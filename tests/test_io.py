import inspect
import json
import os
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scorefield.errors import InvalidData
from scorefield.models import (
    DeltaMixtureModel,
    GaussianComponent,
    GaussianModel,
    IsotropicModel,
    MixtureModel,
    load_model,
    model_fingerprint,
    model_from_json,
    model_to_json,
    save_model,
)
from scorefield.samplers import Trajectory, load_trajectory_csv, save_trajectory_csv
from scorefield.spectrum import (
    CompactSpectrum,
    PointCloud,
    _save_table,
    load_cloud,
    load_cloud_binary,
    load_cloud_csv,
    save_cloud,
    save_cloud_binary,
    save_cloud_csv,
    spectrum_from_json,
    spectrum_to_json,
)


def sample_cloud(labels=True):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((7, 3))
    return PointCloud(data, rng.integers(0, 3, 7) if labels else None)


def sample_spectrum():
    rng = np.random.default_rng(1)
    u, _ = np.linalg.qr(rng.standard_normal((5, 2)))
    return CompactSpectrum(rng.standard_normal(5), u, [2.0, 0.5])


class TestCloudFiles:
    def test_csv_roundtrip(self, tmp_path):
        cloud = sample_cloud(labels=False)
        path = tmp_path / "cloud.csv"
        save_cloud_csv(cloud, path)
        back = load_cloud_csv(path)
        np.testing.assert_array_equal(back.data, cloud.data)
        assert back.labels is None

    def test_csv_roundtrip_with_labels(self, tmp_path):
        cloud = sample_cloud()
        path = tmp_path / "cloud.csv"
        save_cloud_csv(cloud, path, with_labels=True)
        back = load_cloud_csv(path, with_labels=True)
        np.testing.assert_array_equal(back.data, cloud.data)
        np.testing.assert_array_equal(back.labels, cloud.labels)

    def test_binary_roundtrip(self, tmp_path):
        for labels in (False, True):
            cloud = sample_cloud(labels)
            path = tmp_path / f"cloud_{labels}.bin"
            save_cloud_binary(cloud, path)
            back = load_cloud_binary(path)
            np.testing.assert_array_equal(back.data, cloud.data)
            if labels:
                np.testing.assert_array_equal(back.labels, cloud.labels)
            else:
                assert back.labels is None

    def test_binary_layout(self, tmp_path):
        cloud = PointCloud([[1.0, 2.0]], labels=[5])
        path = tmp_path / "one.bin"
        save_cloud_binary(cloud, path)
        blob = path.read_bytes()
        assert blob[:5] == b"PCLD1"
        assert int.from_bytes(blob[5:9], "little") == 1  # N
        assert int.from_bytes(blob[9:13], "little") == 2  # D
        assert blob[13] == 1  # has_labels
        assert np.frombuffer(blob, dtype="<f8", count=2, offset=14).tolist() == [1.0, 2.0]
        assert np.frombuffer(blob, dtype="<i4", count=1, offset=30)[0] == 5

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTPC" + b"\x00" * 16)
        with pytest.raises(InvalidData):
            load_cloud_binary(path)

    def test_truncated_file_names_path_and_sizes(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "cut.bin"
        save_cloud_binary(PointCloud(rng.standard_normal((20, 3))), path)
        path.write_bytes(path.read_bytes()[:100])
        # 14 header bytes + 20 * 3 * 8 data bytes are expected.
        with pytest.raises(InvalidData, match=r"cut\.bin.*494 bytes.*has 100"):
            load_cloud_binary(path)
        path.write_bytes(b"PCLD1\x01")
        with pytest.raises(InvalidData, match="cut.bin"):
            load_cloud_binary(path)

    def test_extension_dispatch(self, tmp_path):
        cloud = sample_cloud()
        save_cloud(cloud, tmp_path / "c.csv")
        save_cloud(cloud, tmp_path / "c.bin")
        np.testing.assert_allclose(load_cloud(tmp_path / "c.bin").data, cloud.data)

    @pytest.mark.parametrize("labels", [False, True])
    @pytest.mark.parametrize("dim", [1, 3, 7])
    def test_loaded_cloud_is_aligned_and_owns_its_data(self, tmp_path, labels, dim):
        # The 14-byte header would leave a view of the file bytes 6 bytes off
        # an 8-byte boundary.
        rng = np.random.default_rng(dim)
        cloud = PointCloud(rng.standard_normal((5, dim)), rng.integers(-4, 4, 5) if labels else None)
        path = tmp_path / "c.bin"
        save_cloud_binary(cloud, path)
        back = load_cloud_binary(path)
        for arr in (back.data,) + ((back.labels,) if labels else ()):
            assert arr.flags.aligned and arr.flags.c_contiguous
            assert arr.flags.owndata and arr.base is None
        np.testing.assert_array_equal(back.data, cloud.data)
        if labels:
            np.testing.assert_array_equal(back.labels, cloud.labels)

    def test_oversized_file_names_path_and_sizes(self, tmp_path):
        path = tmp_path / "long.bin"
        save_cloud_binary(PointCloud(np.ones((4, 2)), [1, 2, 3, 4]), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 3)
        # 14 header bytes + 4 * 2 * 8 data bytes + 4 * 4 label bytes.
        with pytest.raises(InvalidData, match=r"long\.bin.*labels=True.*94 bytes.*has 97"):
            load_cloud_binary(path)

    def test_short_header_names_path_and_sizes(self, tmp_path):
        path = tmp_path / "head.bin"
        path.write_bytes(b"PCLD1\x01\x00")
        with pytest.raises(InvalidData, match=r"head\.bin: 7 bytes.*14-byte PCLD1 header"):
            load_cloud_binary(path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_read_and_checked_as_it_streams(self, tmp_path):
        # A pipe has no length up front: the payload reads must catch a
        # short stream and bytes past the payload.
        save_cloud_binary(PointCloud(np.arange(8.0).reshape(4, 2), [1, 2, 3, 4]), tmp_path / "c.bin")
        blob = (tmp_path / "c.bin").read_bytes()

        def load_piped(data):
            r, w = os.pipe()
            try:
                os.write(w, data)
                os.close(w)
                return load_cloud_binary(f"/dev/fd/{r}")
            finally:
                os.close(r)

        back = load_piped(blob)
        np.testing.assert_array_equal(back.data, np.arange(8.0).reshape(4, 2))
        np.testing.assert_array_equal(back.labels, [1, 2, 3, 4])
        with pytest.raises(InvalidData, match=r"/dev/fd/\d+: read 56 of 64 payload bytes"):
            load_piped(blob[:14 + 56])
        with pytest.raises(InvalidData, match=r"read 12 of 16 payload bytes"):
            load_piped(blob[:-4])
        with pytest.raises(InvalidData, match=r"bytes follow the 94"):
            load_piped(blob + b"\0")


class TestAlignedCloud:
    def test_misaligned_buffer_is_copied_aligned(self):
        n, d = 9, 5
        values = np.random.default_rng(3).standard_normal((n, d))
        raw = np.frombuffer(b"\0" * 6 + values.tobytes(), offset=6).reshape(n, d)
        assert not raw.flags.aligned
        data = PointCloud(raw).data
        assert data.flags.aligned
        np.testing.assert_array_equal(data.view(np.uint64), values.view(np.uint64))

    def test_misaligned_memmap_is_copied_aligned(self, tmp_path):
        values = np.random.default_rng(4).standard_normal((6, 3))
        path = tmp_path / "c.bin"
        save_cloud_binary(PointCloud(values), path)
        raw = np.memmap(path, dtype="<f8", mode="r", offset=14, shape=values.shape)
        assert not raw.flags.aligned
        data = PointCloud(raw).data
        assert data.flags.aligned and type(data) is np.ndarray
        np.testing.assert_array_equal(data, values)

    def test_aligned_input_is_not_copied(self):
        values = np.random.default_rng(5).standard_normal((4, 3))
        assert PointCloud(values).data is values

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), labelled=st.booleans())
    def test_binary_roundtrip_keeps_every_bit(self, tmp_path_factory, data, labelled):
        n, d = data.draw(st.integers(1, 50)), data.draw(st.integers(1, 40))
        extremes = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                                    -1.7976931348623157e308])
        values = data.draw(hnp.arrays(np.float64, (n, d), elements=extremes | st.floats(
            allow_nan=False, allow_infinity=False)))
        labels = data.draw(hnp.arrays(np.int32, n)) if labelled else None
        path = tmp_path_factory.mktemp("pcld") / "c.bin"
        save_cloud_binary(PointCloud(values, labels), path)
        back = load_cloud_binary(path)
        assert back.data.flags.aligned
        assert back.data.tobytes() == values.tobytes()
        if labelled:
            np.testing.assert_array_equal(back.labels, labels)
        else:
            assert back.labels is None


class TestCloudFileMemory:
    """Saving writes the cloud's own buffer; loading holds one copy of it."""

    @pytest.fixture(scope="class")
    def cloud(self):
        rng = np.random.default_rng(8)
        return PointCloud(rng.standard_normal((4000, 781)), rng.integers(0, 10, 4000))

    @staticmethod
    def payload(cloud):
        return cloud.data.nbytes + cloud.n_samples * 4

    def test_save_makes_no_copy(self, tmp_path, cloud):
        tracemalloc.start()
        try:
            save_cloud_binary(cloud, tmp_path / "c.bin")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * self.payload(cloud)

    def test_load_holds_one_copy(self, tmp_path, cloud):
        path = tmp_path / "c.bin"
        save_cloud_binary(cloud, path)
        tracemalloc.start()
        try:
            back = load_cloud_binary(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back.data, cloud.data)
        assert peak < 1.1 * self.payload(cloud)


class TestSpectrumJson:
    @staticmethod
    def roundtrip(spec):
        return spectrum_from_json(json.loads(json.dumps(spectrum_to_json(spec))))

    def test_roundtrip(self):
        spec = sample_spectrum()
        back = self.roundtrip(spec)
        np.testing.assert_array_equal(back.mean, spec.mean)
        np.testing.assert_array_equal(back.basis, spec.basis)
        np.testing.assert_array_equal(back.eigenvalues, spec.eigenvalues)

    def test_schema_keys(self):
        obj = json.loads(json.dumps(spectrum_to_json(sample_spectrum())))
        assert set(obj) == {"mean", "eigenvalues", "basis"}
        assert len(obj["basis"]) == 5 and len(obj["basis"][0]) == 2  # row-major rows

    def test_rank0_roundtrip(self):
        spec = CompactSpectrum(np.zeros(3), np.zeros((3, 0)), np.zeros(0))
        assert self.roundtrip(spec).rank == 0


class TestModelJson:
    def test_gaussian_roundtrip(self, tmp_path):
        model = GaussianModel(sample_spectrum())
        path = tmp_path / "m.json"
        save_model(model, path)
        back = load_model(path)
        x = np.random.default_rng(2).standard_normal(5)
        np.testing.assert_array_equal(back.score(x, 0.7), model.score(x, 0.7))

    def test_isotropic_roundtrip(self, tmp_path):
        model = IsotropicModel(np.array([1.0, -2.0]))
        path = tmp_path / "m.json"
        save_model(model, path)
        back = load_model(path)
        np.testing.assert_array_equal(back.mean, model.mean)

    def test_mixture_schema(self, tmp_path):
        comps = (
            GaussianComponent(0.25, sample_spectrum()),
            GaussianComponent(0.75, sample_spectrum()),
        )
        model = MixtureModel(comps)
        path = tmp_path / "mix.json"
        save_model(model, path)
        obj = json.loads(path.read_text())
        assert "components" in obj
        assert set(obj["components"][0]) == {"weight", "mean", "eigenvalues", "basis"}
        back = load_model(path)
        x = np.random.default_rng(3).standard_normal(5)
        np.testing.assert_array_equal(back.score(x, 1.1), model.score(x, 1.1))

    def test_mixture_loads_without_kind_key(self):
        spec = sample_spectrum()
        obj = {
            "components": [
                {
                    "weight": 1.0,
                    "mean": spec.mean.tolist(),
                    "eigenvalues": spec.eigenvalues.tolist(),
                    "basis": spec.basis.tolist(),
                }
            ]
        }
        model = model_from_json(obj)
        assert isinstance(model, MixtureModel)

    def test_delta_by_cloud_reference(self, tmp_path):
        cloud = sample_cloud()
        save_cloud(cloud, str(tmp_path / "cloud.bin"))
        model = DeltaMixtureModel(cloud)
        path = tmp_path / "delta.json"
        save_model(model, path, cloud_path="cloud.bin")
        obj = json.loads(path.read_text())
        assert obj == {"kind": "delta", "cloud_path": "cloud.bin"}
        back = load_model(path)  # relative path resolves against the json dir
        np.testing.assert_array_equal(back.cloud.data, cloud.data)

    def test_delta_requires_cloud_path(self):
        with pytest.raises(InvalidData):
            model_to_json(DeltaMixtureModel(sample_cloud()))


def fingerprint_models(tmp_path):
    """One model of each variant, the delta model saved by cloud reference."""
    cloud = sample_cloud(labels=False)
    save_cloud(cloud, str(tmp_path / "cloud.bin"))
    spec = sample_spectrum()
    mix = (GaussianComponent(0.25, spec), GaussianComponent(0.75, sample_spectrum()))
    return {"isotropic": IsotropicModel(np.array([1.0, -2.0])), "gaussian": GaussianModel(spec),
            "mixture": MixtureModel(mix), "delta": DeltaMixtureModel(cloud)}


class TestModelFingerprint:
    @pytest.mark.parametrize("variant", ["isotropic", "gaussian", "mixture", "delta"])
    def test_survives_json_roundtrip(self, tmp_path, variant):
        model = fingerprint_models(tmp_path)[variant]
        path = tmp_path / "m.json"
        save_model(model, path, cloud_path="cloud.bin" if variant == "delta" else None)
        assert model_fingerprint(load_model(path)) == model_fingerprint(model)

    def test_changes_with_one_entry(self, tmp_path):
        models = fingerprint_models(tmp_path)
        spec = models["gaussian"].spectrum
        eigs = spec.eigenvalues.copy()
        eigs[0] = np.nextafter(eigs[0], np.inf)
        comps = models["mixture"].components
        weight = np.nextafter(comps[0].weight, 1.0)
        data = models["delta"].cloud.data.copy()
        data[3, 1] = np.nextafter(data[3, 1], np.inf)
        for before, after in [
            (models["gaussian"], GaussianModel(CompactSpectrum(spec.mean, spec.basis, eigs))),
            (models["mixture"], MixtureModel((GaussianComponent(weight, comps[0].spectrum),
                                              comps[1]))),
            (models["delta"], DeltaMixtureModel(PointCloud(data))),
        ]:
            assert model_fingerprint(after) != model_fingerprint(before)

    def test_delta_hashes_cloud_in_place(self):
        model = DeltaMixtureModel(PointCloud(np.random.default_rng(2).standard_normal((20000, 16))))
        tracemalloc.start()
        try:
            model_fingerprint(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < model.cloud.data.nbytes / 100

    def test_pinned_digest(self):
        spec = CompactSpectrum(np.array([1.0, -2.0]), np.array([[0.6], [0.8]]), np.array([3.0]))
        digest = "be9c63de19d6c0df2ef2916beeae41773511d8cf340446815119334b0e37867c"
        assert model_fingerprint(GaussianModel(spec)) == digest


class TestTableWriter:
    def test_extreme_floats_read_back_bitwise(self, tmp_path):
        table = np.array([[5e-324, -0.0, 1.7976931348623157e308, 1.0 / 3.0],
                          [-5e-324, 0.0, -1.7976931348623157e308, -1.0 / 3.0]])
        path = tmp_path / "t.csv"
        _save_table(path, table, "a,b,c,d")
        assert path.read_text().splitlines()[0] == "a,b,c,d"
        back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        np.testing.assert_array_equal(back.view(np.uint64), table.view(np.uint64))

    def test_only_numeric_csv_writer(self):
        src = Path(__file__).resolve().parent.parent / "src" / "scorefield"
        calls = {p.name: p.read_text().count("savetxt(") for p in src.glob("*.py")}
        assert sum(calls.values()) == 1, calls
        assert "savetxt(" in inspect.getsource(_save_table)


class TestTableBytes:
    """``_save_table`` writes the bytes of ``np.savetxt(fmt="%.17g")``."""

    TABLES = {
        # 1.8e308 parses as inf; the largest finite double is the next pair.
        "extremes": np.array([[-0.0, 5e-324, 1.8e308, -1.8e308],
                              [0.0, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]]),
        "one-by-one": np.array([[1.0 / 3.0]]),
        "one-d": np.array([2.5, -0.0, 1e-300, 7.0]),
        "no-rows": np.empty((0, 3)),
        "over-2^16-values": (np.random.default_rng(9).standard_normal(70001)
                             * 10.0 ** np.random.default_rng(10).integers(-300, 301, 70001))[:, None],
        "wide-blocks": np.random.default_rng(11).standard_normal((9000, 19)),
    }

    @pytest.mark.parametrize("header", ["", "t,sigma\n# second line"], ids=["no-header", "two-lines"])
    @pytest.mark.parametrize("name", TABLES)
    def test_matches_savetxt(self, tmp_path, name, header):
        table = self.TABLES[name]
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        _save_table(ours, table, header)
        np.savetxt(ref, table, delimiter=",", fmt="%.17g", header=header, comments="")
        assert ours.read_bytes() == ref.read_bytes()


class TestAtomicWrites:
    """Every writer replaces its file in one step: a write that raises
    midway leaves the old file as it was and no temporary file behind."""

    @staticmethod
    def _sweep(rows):
        from scorefield.gmmfit import SweepTable

        row = dict(k=1, rank=None, sigma=1.0, mean_uv=0.5, q25=0.25, q75=0.75,
                   ratio_of_sums=0.5, n_excluded=0)
        return SweepTable((row,) * rows + ({"k": 2},))

    @staticmethod
    def _sidecar(path, value):
        from argparse import Namespace

        from scorefield.cli import _write_sidecar

        _write_sidecar(Namespace(command="curves", out=str(path)[: -len(".meta.json")],
                                 value=value))

    WRITERS = {
        "table": (lambda p: _save_table(p, np.ones((70000, 1))),
                  lambda p: _save_table(p, np.array([1.0] * 70000 + ["x"], dtype=object))),
        "sidecar": (lambda p: TestAtomicWrites._sidecar(p, 1),
                    lambda p: TestAtomicWrites._sidecar(p, object())),
        "model": (lambda p: save_model(IsotropicModel(np.zeros(3)), p),
                  lambda p: save_model(DeltaMixtureModel(PointCloud(np.zeros((2, 3)))), p)),
        "cloud": (lambda p: save_cloud_binary(PointCloud(np.ones((4, 3))), p),
                  lambda p: save_cloud_binary(types.SimpleNamespace(
                      n_samples=1, dim=2, labels=None, data=np.array([["a", "b"]], dtype=object)), p)),
        "sweep": (lambda p: TestAtomicWrites._sweep(1).filter(k=1).to_csv(p),
                  lambda p: TestAtomicWrites._sweep(3).to_csv(p)),
    }

    @pytest.mark.parametrize("writer", WRITERS)
    def test_failed_write_keeps_old_file(self, tmp_path, writer):
        good, bad = self.WRITERS[writer]
        path = tmp_path / "out.meta.json"
        good(path)
        before = path.read_bytes()
        with pytest.raises(Exception):
            bad(path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == [path.name]

    def test_mode_and_symlink_follow_plain_open(self, tmp_path):
        plain, target, link = tmp_path / "plain", tmp_path / "target.csv", tmp_path / "link.csv"
        plain.write_text("")
        target.write_text("old")
        link.symlink_to(target)
        _save_table(link, np.ones((2, 2)))
        assert link.is_symlink() and target.read_text() == "1,1\n1,1\n"
        assert target.stat().st_mode == plain.stat().st_mode
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "plain", "target.csv"]


class TestTrajectoryCsv:
    def _traj(self):
        t = np.array([3.0, 2.0, 1.0])
        states = np.random.default_rng(4).standard_normal((3, 4))
        den = states * 0.5
        return Trajectory(t, t, np.ones(3), states, den, {"sampler": "heun", "nfe": 3})

    def test_roundtrip(self, tmp_path):
        traj = self._traj()
        path = tmp_path / "traj.csv"
        save_trajectory_csv(traj, path, include_denoised=True)
        back = load_trajectory_csv(path)
        np.testing.assert_array_equal(back.states, traj.states)
        np.testing.assert_array_equal(back.denoised, traj.denoised)
        np.testing.assert_array_equal(back.sigma, traj.sigma)

    def test_header(self, tmp_path):
        path = tmp_path / "traj.csv"
        save_trajectory_csv(self._traj(), path)
        header = path.read_text().splitlines()[0]
        assert header == "t,sigma,alpha,x0,x1,x2,x3"

    def test_projection(self, tmp_path):
        traj = self._traj()
        proj = np.zeros((2, 4))
        proj[0, 0] = proj[1, 1] = 1.0
        path = tmp_path / "traj.csv"
        save_trajectory_csv(traj, path, projection=proj)
        back = load_trajectory_csv(path)
        np.testing.assert_array_equal(back.states, traj.states[:, :2])
