import json

import numpy as np
import pytest

from scorefield.errors import InvalidData
from scorefield.models import (
    DeltaMixtureModel,
    GaussianComponent,
    GaussianModel,
    IsotropicModel,
    MixtureModel,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
)
from scorefield.samplers import Trajectory, load_trajectory_csv, save_trajectory_csv
from scorefield.spectrum import (
    CompactSpectrum,
    PointCloud,
    load_cloud,
    load_cloud_binary,
    load_cloud_csv,
    load_spectrum,
    save_cloud,
    save_cloud_binary,
    save_cloud_csv,
    save_spectrum,
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


class TestSpectrumJson:
    def test_roundtrip(self, tmp_path):
        spec = sample_spectrum()
        path = tmp_path / "spec.json"
        save_spectrum(spec, path)
        back = load_spectrum(path)
        np.testing.assert_array_equal(back.mean, spec.mean)
        np.testing.assert_array_equal(back.basis, spec.basis)
        np.testing.assert_array_equal(back.eigenvalues, spec.eigenvalues)

    def test_schema_keys(self, tmp_path):
        path = tmp_path / "spec.json"
        save_spectrum(sample_spectrum(), path)
        obj = json.loads(path.read_text())
        assert set(obj) == {"mean", "eigenvalues", "basis"}
        assert len(obj["basis"]) == 5 and len(obj["basis"][0]) == 2  # row-major rows

    def test_rank0_roundtrip(self, tmp_path):
        spec = CompactSpectrum(np.zeros(3), np.zeros((3, 0)), np.zeros(0))
        path = tmp_path / "s.json"
        save_spectrum(spec, path)
        assert load_spectrum(path).rank == 0


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
