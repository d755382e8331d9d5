import contextlib
import io
import json
import math
import os
import shlex
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scorefield
import scorefield.cli as cli
from scorefield.cli import run
from scorefield.models import DeltaMixtureModel, GaussianModel, IsotropicModel
from scorefield.samplers import (
    ddim_style_sample,
    heun_sample,
    load_trajectory_csv,
    rk4_sample,
    save_trajectory_csv,
    teleport_sample,
)
from scorefield.schedules import parse_grid_spec, parse_schedule_spec
from scorefield.spectrum import estimate_moments, load_cloud, save_cloud, spectrum_from_cloud
from scorefield.synthetic import gmm_cloud


def _pcld1(n: int, d: int, values) -> bytes:
    """An unlabelled PCLD1 file holding ``values`` under an (n, d) header."""
    return b"PCLD1" + struct.pack("<IIB", n, d, 0) + np.asarray(values, "<f8").tobytes()


@pytest.fixture
def cloud_file(tmp_path):
    path = tmp_path / "cloud.bin"
    code = run([
        "gen-synthetic", "--kind", "gmm", "--d", "4", "--n", "120", "--k", "3",
        "--seed", "3", "--out", str(path),
    ])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def heavy_cloud_file(tmp_path_factory):
    """A delta cloud whose one-row call carries N x D = 4096 x 32 = 2^17
    elements, exactly the size at which the ensemble pool takes workers."""
    path = tmp_path_factory.mktemp("heavy") / "cloud.bin"
    assert run(["gen-synthetic", "--kind", "gaussian", "--d", "32", "--n", "4096",
                "--seed", "5", "--out", str(path)]) == 0
    return path


@pytest.fixture
def pool_sizes(monkeypatch):
    """``max_workers`` of every ensemble pool, on a CLI that sees 2 CPUs."""
    sizes = []

    class RecordingPool(cli.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_CPUS", 2)
    return sizes


class TestGenSynthetic:
    def test_writes_cloud_and_sidecar(self, tmp_path):
        out = tmp_path / "c.bin"
        assert run(["gen-synthetic", "--kind", "gaussian", "--d", "5", "--n", "50",
                    "--seed", "1", "--out", str(out)]) == 0
        cloud = load_cloud(out)
        assert cloud.data.shape == (50, 5)
        meta = json.loads((tmp_path / "c.bin.meta.json").read_text())
        assert meta["command"] == "gen-synthetic"
        assert meta["params"]["seed"] == 1

    @pytest.mark.parametrize("kind", ["gaussian", "gmm", "two-cluster"])
    @pytest.mark.parametrize("n, d", [("0", "3"), ("-1", "3"), ("5", "0"), ("5", "-2")])
    def test_empty_shape_exit_1(self, tmp_path, capsys, kind, n, d):
        out = tmp_path / "c.csv"
        assert run(["gen-synthetic", "--kind", kind, "--n", n, "--d", d, "--out", str(out)]) == 1
        assert f"need n >= 1 and d >= 1, got n={n}, d={d}" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_output(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["gen-synthetic", "--kind", "two-cluster", "--d", "3", "--n", "10",
                    "--seed", "0", "--out", str(out)]) == 0
        # two-cluster clouds carry labels, but a CSV cloud has only coordinates
        assert np.loadtxt(out, delimiter=",").shape == (10, 3)

    def test_labelled_kind_to_csv_fits_in_d_dimensions(self, tmp_path):
        cloud = tmp_path / "c.csv"
        assert run(["gen-synthetic", "--kind", "gmm", "--d", "3", "--n", "10", "--k", "2",
                    "--seed", "0", "--out", str(cloud)]) == 0
        out = tmp_path / "gmm.json"
        assert run(["fit-gmm", "--input", str(cloud), "--k", "2", "--out", str(out)]) == 0
        assert [len(c["mean"]) for c in json.loads(out.read_text())["components"]] == [3, 3]


class TestFitGmm:
    def test_fit_and_sidecar(self, tmp_path, cloud_file):
        out = tmp_path / "model.json"
        assert run(["fit-gmm", "--input", str(cloud_file), "--k", "3", "--rank", "2",
                    "--seed", "0", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert len(obj["components"]) == 3
        meta = json.loads((tmp_path / "model.json.meta.json").read_text())
        assert meta["params"]["k"] == 3
        assert "inertia" in meta["params"]

    def test_full_rank_flag(self, tmp_path, cloud_file):
        out = tmp_path / "model.json"
        assert run(["fit-gmm", "--input", str(cloud_file), "--k", "1", "--rank", "full",
                    "--seed", "0", "--out", str(out)]) == 0

    def test_bad_rank_is_usage_error(self, tmp_path, cloud_file, capsys):
        assert run(["fit-gmm", "--input", str(cloud_file), "--rank", "abc",
                    "--out", str(tmp_path / "model.json")]) == 2
        assert "--rank" in capsys.readouterr().err


class TestSample:
    def test_heun_run_and_reproducibility(self, tmp_path, cloud_file):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        args = ["sample", "--model", f"gaussian:{cloud_file}", "--sampler", "heun",
                "--grid", "0.01:10:7:12", "--n", "3", "--seed", "7"]
        assert run(args + ["--out", str(out_a)]) == 0
        assert run(args + ["--out", str(out_b)]) == 0
        for i in range(3):
            fa = out_a / f"traj_{i:04d}.csv"
            fb = out_b / f"traj_{i:04d}.csv"
            assert fa.read_bytes() == fb.read_bytes()
        traj = load_trajectory_csv(out_a / "traj_0000.csv")
        assert traj.sigma[0] == 10.0 and traj.sigma[-1] == 0.01

    @pytest.mark.parametrize("sampler, kind", [
        ("heun", "delta"), ("rk4", "gaussian"), ("ddim", "iso"), ("teleport", "delta"),
        ("heun", "heavy-delta"), ("teleport", "heavy-delta"),
    ])
    def test_seed_contract(self, tmp_path, cloud_file, heavy_cloud_file, pool_sizes,
                           sampler, kind):
        """``traj_<i>.csv`` holds the library sampler run from sigma_T times
        the standard normal draw of child i of ``SeedSequence(--seed)``,
        however the ensemble is scheduled. The heavy delta cloud runs its
        ensemble on 2 workers, every other model on one."""
        n, seed, grid_spec, schedule_spec = 3, 11, "0.01:10:7:8", "vp:0.1:20:1"
        if kind == "heavy-delta":
            kind, cloud_file = "delta", heavy_cloud_file
        cloud = load_cloud(cloud_file)
        model = {"delta": DeltaMixtureModel(cloud),
                 "gaussian": GaussianModel(spectrum_from_cloud(cloud)),
                 "iso": IsotropicModel(estimate_moments(cloud)[0])}[kind]
        grid, schedule = parse_grid_spec(grid_spec), parse_schedule_spec(schedule_spec)
        sigma_T, sample = {
            "heun": (grid.levels[0], lambda x: heun_sample(model, grid, x)),
            "rk4": (grid.levels[0], lambda x: rk4_sample(
                model, float(grid.levels[0]), float(grid.levels[-1]), 30, x,
                record_levels=grid.levels)),
            "ddim": (float(schedule.sigma(schedule.T)),
                     lambda x: ddim_style_sample(model, schedule, 30, x)),
            "teleport": (grid.levels[0], lambda x: teleport_sample(
                model, spectrum_from_cloud(cloud), grid, 2.0, x, skip_mode="regrid")),
        }[sampler]
        if sampler == "teleport":
            argv = ["teleport", "--cloud", str(cloud_file), "--skip", "2.0",
                    "--skip-mode", "regrid"]
        else:
            argv = ["sample", "--sampler", sampler, "--schedule", schedule_spec, "--steps", "30"]
        out = tmp_path / "out"
        assert run([*argv, "--model", f"{kind}:{cloud_file}", "--grid", grid_spec,
                    "--n", str(n), "--seed", str(seed), "--out", str(out)]) == 0
        for i, child in enumerate(np.random.SeedSequence(seed).spawn(n)):
            x_T = sigma_T * np.random.default_rng(child).standard_normal(model.dim)
            expected = tmp_path / f"expected_{i}.csv"
            save_trajectory_csv(sample(x_T), expected)
            assert (out / f"traj_{i:04d}.csv").read_bytes() == expected.read_bytes()
        assert pool_sizes == [2 if cloud_file == heavy_cloud_file else 1]

    @pytest.mark.parametrize("model, n, workers", [
        ("gaussian", 3, 1), ("iso", 3, 1), ("mixture", 3, 1), ("delta", 3, 1),
        ("heavy-delta", 3, 2), ("heavy-delta", 1, 1),
    ])
    def test_pool_gate(self, tmp_path, cloud_file, heavy_cloud_file, pool_sizes,
                       model, n, workers):
        """The ensemble pool takes ``min(--n, CPUs)`` workers only when one
        one-row model call carries ``models._SHARE`` elements or more."""
        if model == "mixture":
            spec = str(tmp_path / "gmm.json")
            assert run(["fit-gmm", "--input", str(cloud_file), "--k", "3", "--rank", "2",
                        "--seed", "0", "--out", spec]) == 0
        elif model == "heavy-delta":
            spec = f"delta:{heavy_cloud_file}"
        else:
            spec = f"{model}:{cloud_file}"
        assert run(["sample", "--model", spec, "--grid", "0.01:10:7:4", "--n", str(n),
                    "--seed", "1", "--out", str(tmp_path / "out")]) == 0
        assert pool_sizes == [workers]

    def test_rk4_and_ddim(self, tmp_path, cloud_file):
        assert run(["sample", "--model", f"gaussian:{cloud_file}", "--sampler", "rk4",
                    "--grid", "0.01:10:7:8", "--steps", "50", "--n", "1", "--seed", "2",
                    "--out", str(tmp_path / "rk4")]) == 0
        assert run(["sample", "--model", f"gaussian:{cloud_file}", "--sampler", "ddim",
                    "--schedule", "vp:0.1:20:1", "--steps", "20", "--n", "1", "--seed", "2",
                    "--out", str(tmp_path / "ddim")]) == 0

    def test_config_file_merging(self, tmp_path, cloud_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": f"gaussian:{cloud_file}", "sampler": "heun",
            "grid": "0.01:10:7:8", "n": 1, "seed": 5,
        }))
        out = tmp_path / "cfgout"
        # explicit --seed wins over the config value
        assert run(["sample", "--config", str(cfg), "--seed", "9", "--out", str(out)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["params"]["seed"] == 9
        assert meta["params"]["grid"] == "0.01:10:7:8"


class TestTeleport:
    def test_degenerate_skip_equals_plain_sample(self, tmp_path, cloud_file):
        plain = tmp_path / "plain"
        tele = tmp_path / "tele"
        common = ["--grid", "0.01:10:7:12", "--n", "2", "--seed", "4"]
        assert run(["sample", "--model", f"gaussian:{cloud_file}", "--sampler", "heun",
                    *common, "--out", str(plain)]) == 0
        assert run(["teleport", "--model", f"gaussian:{cloud_file}", "--cloud", str(cloud_file),
                    "--skip", "10.0", *common, "--out", str(tele)]) == 0
        for i in range(2):
            a = load_trajectory_csv(plain / f"traj_{i:04d}.csv")
            b = load_trajectory_csv(tele / f"traj_{i:04d}.csv")
            np.testing.assert_allclose(b.states, a.states, rtol=1e-10, atol=1e-12)

    def test_regrid_mode(self, tmp_path, cloud_file):
        out = tmp_path / "regrid"
        assert run(["teleport", "--model", f"delta:{cloud_file}", "--cloud", str(cloud_file),
                    "--skip", "2.5", "--skip-mode", "regrid", "--grid", "0.01:10:7:10",
                    "--n", "1", "--seed", "4", "--out", str(out)]) == 0
        traj = load_trajectory_csv(out / "traj_0000.csv")
        assert traj.sigma[0] == 2.5


class TestCompare:
    def test_table(self, tmp_path, cloud_file):
        out = tmp_path / "table.csv"
        assert run(["compare", "--ref", f"delta:{cloud_file}",
                    "--approx", f"gaussian:{cloud_file}",
                    "--sigmas", "0.5,2.0,8.0", "--probes", "64", "--seed", "0",
                    "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "sigma,mean_uv,q25,q75,ratio_of_sums,n_excluded"
        assert len(lines) == 4
        meta = json.loads((tmp_path / "table.csv.meta.json").read_text())
        assert meta["params"]["sigmas"] == [0.5, 2.0, 8.0]


class TestCloudReads:
    @pytest.mark.parametrize("command", ["compare", "teleport", "sweep", "slice"])
    def test_each_cloud_file_read_once_per_command(self, tmp_path, cloud_file,
                                                   monkeypatch, command):
        reads = []

        def counting_load(path, *args, **kwargs):
            reads.append(path)
            return load_cloud(path, *args, **kwargs)

        monkeypatch.setattr(cli, "load_cloud", counting_load)
        anchors = tmp_path / "anchors.csv"
        np.savetxt(anchors, np.eye(3, 4), delimiter=",")
        c = str(cloud_file)
        argv = {
            "compare": ["--ref", f"delta:{c}", "--approx", f"gaussian:{c}",
                        "--sigmas", "1.0", "--probes", "8", "--probe-dist",
                        "noised-cloud", "--cloud", c],
            "teleport": ["--model", f"delta:{c}", "--cloud", c, "--skip", "2.5",
                         "--skip-mode", "regrid", "--grid", "0.01:10:7:6"],
            "sweep": ["--cloud", c, "--reference", f"gaussian:{c}", "--k-list", "1",
                      "--rank-list", "0", "--sigmas", "1.0", "--probes", "8"],
            "slice": ["--models", f"gaussian:{c},delta:{c},iso:{c}",
                      "--anchors", str(anchors), "--sigma", "0.5", "--grid-n", "4"],
        }[command]
        for i in range(2):
            assert run([command, *argv, "--out", str(tmp_path / f"out{i}")]) == 0
            # one read per invocation: nothing is kept between commands
            assert reads == [c] * (i + 1)


class TestSweep:
    def test_long_table(self, tmp_path, cloud_file):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--cloud", str(cloud_file), "--k-list", "1,2",
                    "--rank-list", "0,full", "--sigmas", "1.0,4.0", "--probes", "32",
                    "--seed", "0", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2 * 2


class TestSlice:
    def test_outputs_per_model(self, tmp_path, cloud_file):
        anchors = tmp_path / "anchors.csv"
        np.savetxt(anchors, np.array([[0.0, 0, 0, 0], [1.0, 0, 0, 0], [0, 1.0, 0, 0]]),
                   delimiter=",")
        out = tmp_path / "slices"
        assert run(["slice", "--models", f"gaussian:{cloud_file},delta:{cloud_file}",
                    "--anchors", str(anchors), "--sigma", "0.5", "--grid-n", "6",
                    "--extent", "2.0", "--out", str(out)]) == 0
        assert (out / "slice_00.csv").exists()
        assert (out / "slice_01.csv").exists()
        first = (out / "slice_00.csv").read_text().splitlines()
        assert first[0].startswith("# anchors_uv=")
        assert first[1] == "u,v,s_u,s_v,norm"

    @pytest.mark.parametrize("extent", ["nan", "inf", "0", "-1", "1e300", "1e160"])
    def test_bad_extent_exit_1(self, tmp_path, cloud_file, capsys, extent):
        # nan, inf, 0 and -1 are no half-width; at 1e300 the squared score
        # components overflow and the norm is inf. At 1e160 the delta's
        # squared distances overflow at sigma = 0.5, on x/sigma as well, so
        # its score is NaN, and that must fail without a warning.
        anchors = tmp_path / "anchors.csv"
        np.savetxt(anchors, np.array([[0.0, 0, 0, 0], [1.0, 0, 0, 0], [0, 1.0, 0, 0]]),
                   delimiter=",")
        out = tmp_path / "slices"
        models = f"gaussian:{cloud_file},iso:{cloud_file}"
        if extent == "1e160":
            models = f"delta:{cloud_file}"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run(["slice", "--models", models, "--anchors", str(anchors), "--sigma", "0.5",
                        "--grid-n", "6", f"--extent={extent}", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        if extent in ("1e300", "1e160"):
            assert "non-finite slice score at sigma=0.5" in err
        else:
            assert f"extent must be finite and > 0, got {extent}" in err
        assert not out.exists()


class TestCurves:
    def test_unit_lambda_gain_column(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert run(["curves", "--schedule", "vp:0.1:20:1", "--lambdas", "1",
                    "--n-t", "101", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        gain_col = header.index("gain_1")
        for line in lines[1:]:
            assert abs(float(line.split(",")[gain_col]) - 1.0) < 1e-12

    @pytest.mark.parametrize("lam", ["0", "inf", "nan", "-1"])
    def test_bad_lambda_exit_1(self, tmp_path, capsys, lam):
        # lambda = 0 would give 0/0 in xi / sqrt(lambda); every lambda must be
        # an eigenvalue of some compact spectrum.
        out = tmp_path / "curves.csv"
        assert run(["curves", "--schedule", "vp:0.1:20:1", f"--lambdas=1,{lam}",
                    "--n-t", "11", "--out", str(out)]) == 1
        assert f"lambda must be finite and > 0, got {lam}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("spec, message", [
        ("vp:0.1:inf", "beta_max must be finite, got inf"),
        ("vp:0.1:20:inf", "horizon must be finite, got inf"),
        ("vp:0.1:20:nan", "horizon must be finite, got nan"),
        ("edm:inf", "sigma_max must be finite, got inf"),
        ("edm:-5", "sigma_max must be > 0, got -5.0"),
        ("edm:0.002:80", "edm spec must be 'edm:sigma_max', got 'edm:0.002:80'"),
        ("edm:1e200", "analytical curves are not finite at t = "),
        ("table", "sigma_table must be finite, got inf at index 1"),
        pytest.param("table:0,1,0\n1,-0.5,1\n", "alpha_table must be >= 0, got -0.5 at index 1",
                     id="table-negative-alpha"),
        pytest.param("table:0,1,-0.5\n1,0.5,1\n", "sigma_table must be >= 0, got -0.5 at index 0",
                     id="table-negative-sigma"),
        pytest.param("table:0,0,0\n1,0.5,1\n", "alpha_table and sigma_table are both 0 at index 0",
                     id="table-all-zero"),
        ("what:1", "unknown schedule kind 'what', expected vp, edm or table"),
    ])
    def test_bad_schedule_exit_1(self, tmp_path, capsys, spec, message):
        if spec.startswith("table"):
            table = tmp_path / "table.csv"
            table.write_text(spec[len("table:"):] or "0,1,0\n0.5,0.6,inf\n1,0,1\n")
            spec, message = f"table:{table}", f"{table}: {message}"
        out = tmp_path / "curves.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["curves", "--schedule", spec, "--n-t", "11", "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert list(tmp_path.glob("curves*")) == []


class TestBimodal:
    def test_curve_output(self, tmp_path):
        out = tmp_path / "bimodal.csv"
        assert run(["bimodal", "--m", "4", "--q", "0.1", "--dims", "1,16",
                    "--sigmas", "2,4", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "sigma,E_d1,E_d16"
        assert len(lines) == 3

    def test_no_dims_writes_sigma_column(self, tmp_path):
        out = tmp_path / "bimodal.csv"
        assert run(["bimodal", "--dims", ",", "--sigmas", "2,4", "--out", str(out)]) == 0
        assert out.read_text() == "sigma\n2\n4\n"

    @pytest.mark.parametrize("dims", ["1", ","])
    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_exit_1(self, tmp_path, capsys, dims, sigma):
        out = tmp_path / "bimodal.csv"
        assert run(["bimodal", "--dims", dims, "--sigmas", f"2,{sigma}", "--out", str(out)]) == 1
        assert f"--sigmas must be finite, got {sigma}" in capsys.readouterr().err
        assert not out.exists()


class TestSidecar:
    @pytest.mark.parametrize("command", [
        "gen-synthetic", "fit-gmm", "sample", "teleport", "compare", "sweep", "slice",
        "curves", "bimodal",
    ])
    def test_params_hold_every_option(self, tmp_path, cloud_file, command):
        # every option the subparser declares, except --config, with its parsed value
        anchors = tmp_path / "anchors.csv"
        np.savetxt(anchors, np.eye(3, 4), delimiter=",")
        c = str(cloud_file)
        argv, out = {
            "gen-synthetic": (["--n", "20"], "c.bin"),
            "fit-gmm": (["--input", c, "--k", "2", "--max-iter", "5"], "m.json"),
            "sample": (["--model", f"gaussian:{c}", "--grid", "0.01:10:7:4"], "traj"),
            "teleport": (["--model", f"gaussian:{c}", "--cloud", c, "--skip", "2.5",
                          "--skip-mode", "regrid", "--grid", "0.01:10:7:4"], "tele"),
            "compare": (["--ref", f"delta:{c}", "--approx", f"gaussian:{c}",
                         "--sigmas", "1,2", "--probes", "8"], "cmp.csv"),
            "sweep": (["--cloud", c, "--k-list", "1", "--rank-list", "0,full",
                       "--sigmas", "1", "--probes", "8", "--max-iter", "5"], "sweep.csv"),
            "slice": (["--models", f"gaussian:{c}", "--anchors", str(anchors),
                       "--sigma", "0.5", "--grid-n", "4"], "slices"),
            "curves": (["--n-t", "11"], "curves.csv"),
            "bimodal": (["--sigmas", "1,2", "--dims", "1,2", "--n-quad", "64"], "bimodal.csv"),
        }[command]
        argv = [command, *argv, "--out", str(tmp_path / out)]
        assert run(argv) == 0
        meta_path = tmp_path / out / "meta.json"
        if not meta_path.exists():
            meta_path = tmp_path / f"{out}.meta.json"
        params = json.loads(meta_path.read_text())["params"]
        parsed = vars(cli.build_parser().parse_args(argv))
        for name in ("func", "command", "config"):
            del parsed[name]
        for name, value in parsed.items():
            assert params[name] == json.loads(json.dumps(value)), name


class TestConfig:
    def _run(self, tmp_path, argv, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return run([*argv, "--config", str(path)])

    def test_value_parsed_like_its_flag(self, tmp_path):
        argv = ["gen-synthetic", "--kind", "gmm", "--d", "3", "--seed", "2"]
        assert run([*argv, "--n", "3", "--out", str(tmp_path / "flag.bin")]) == 0
        assert self._run(tmp_path, [*argv, "--out", str(tmp_path / "cfg.bin")], {"n": "3"}) == 0
        assert (tmp_path / "cfg.bin").read_bytes() == (tmp_path / "flag.bin").read_bytes()

    @pytest.mark.parametrize("key, value, expected", [
        ("max_iter", 5, 5),
        ("max-iter", 5, 5),
        ("batch", None, 2048),  # null keeps the default
    ])
    def test_keys_and_null(self, tmp_path, cloud_file, key, value, expected):
        out = tmp_path / "m.json"
        argv = ["fit-gmm", "--input", str(cloud_file), "--k", "2", "--out", str(out)]
        assert self._run(tmp_path, argv, {key: value}) == 0
        params = json.loads((tmp_path / "m.json.meta.json").read_text())["params"]
        assert params[key.replace("-", "_")] == expected

    @pytest.mark.parametrize("via_config", [False, True])
    @pytest.mark.parametrize("command", ["gen-synthetic", "fit-gmm", "sample", "teleport",
                                         "compare", "sweep"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, command, via_config):
        argv = [command, "--out", str(tmp_path / "out")]
        if via_config:
            assert self._run(tmp_path, argv, {"seed": -1}) == 2
        else:
            assert run([*argv, "--seed", "-1"]) == 2
        assert "argument --seed: invalid seed '-1'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, cfg, code, message", [
        pytest.param(["sample"], {"samplr": "rk4"}, 2, "--samplr", id="unknown-key"),
        pytest.param(["sample"], {"samp": "rk4", "st": 3}, 2, "--samp", id="prefix-key"),
        pytest.param(["compare"], {"sigmas": [0.5, 2]}, 2, "--sigmas", id="list-value"),
        pytest.param(["sample"], [1, 2], 1, "must hold a JSON object", id="not-an-object"),
    ])
    def test_bad_config(self, tmp_path, cloud_file, capsys, argv, cfg, code, message):
        argv = [*argv, "--out", str(tmp_path / "out")]
        assert self._run(tmp_path, argv, cfg) == code
        assert message in capsys.readouterr().err

    def test_invalid_json_names_path(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{n: 3}")
        assert run(["sample", "--out", str(tmp_path / "out"), "--config", str(path)]) == 1
        assert str(path) in capsys.readouterr().err


class TestErrors:
    def test_usage_error_exit_2(self):
        assert run(["sample", "--not-a-flag"]) == 2
        assert run(["unknown-subcommand"]) == 2

    def test_help_shows_declared_defaults(self, capsys):
        assert run(["compare", "--help"]) == 0
        assert "(default: 256)" in capsys.readouterr().out

    def test_missing_file_exit_1(self, tmp_path, capsys):
        code = run(["fit-gmm", "--input", str(tmp_path / "absent.bin"), "--k", "1",
                    "--out", str(tmp_path / "m.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "absent.bin" in err

    def test_unwritable_output_names_its_path(self, tmp_path, capsys):
        out = tmp_path / "absent" / "curves.csv"
        assert run(["curves", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(out) in err and ".tmp" not in err

    @pytest.mark.parametrize("sigma", ["1e155", "1e-160", "1e-200"])
    def test_sigma_outside_domain_exit_1(self, tmp_path, cloud_file, capsys, sigma):
        code = run(["compare", "--ref", f"delta:{cloud_file}",
                    "--approx", f"gaussian:{cloud_file}", "--sigmas", sigma,
                    "--probes", "4", "--out", str(tmp_path / "table.csv")])
        assert code == 1
        assert str(float(sigma)) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compare", "sweep"])
    def test_top_of_sigma_domain_exit_0(self, tmp_path, command):
        # At sigma = 1e154, |x - y|^2 overflows for probes x ~ sigma z; the
        # delta reference retakes those rows on x/sigma and stays finite.
        cloud = tmp_path / "cloud.bin"
        assert run(["gen-synthetic", "--kind", "gaussian", "--d", "4", "--n", "50",
                    "--seed", "0", "--out", str(cloud)]) == 0
        argv = {
            "compare": ["--ref", f"delta:{cloud}", "--approx", f"gaussian:{cloud}"],
            "sweep": ["--cloud", str(cloud), "--k-list", "1", "--rank-list", "0"],
        }[command]
        out = tmp_path / "table.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run([command, *argv, "--sigmas", "1e154", "--probes", "8",
                        "--out", str(out)])
        assert code == 0
        rows = np.loadtxt(out, delimiter=",", comments="#", skiprows=1, ndmin=2)
        assert rows.shape[0] >= 1 and np.all(np.isfinite(rows))

    @pytest.mark.parametrize("command", ["sample", "teleport"])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_negative_count_exit_1(self, tmp_path, cloud_file, capsys, command, via_config):
        argv = [command, "--model", f"gaussian:{cloud_file}", "--out", str(tmp_path / "out")]
        if command == "teleport":
            argv += ["--cloud", str(cloud_file), "--skip", "2.0"]
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"n": -1}))
            argv += ["--config", str(cfg)]
        else:
            argv += ["--n", "-1"]
        assert run(argv) == 1
        assert "--n must be >= 1, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("command, value", [("fit-gmm", "-3"), ("sweep", "-1")])
    def test_negative_max_iter_exit_1(self, tmp_path, cloud_file, capsys, command, value):
        argv = {
            "fit-gmm": ["--input", str(cloud_file), "--k", "2"],
            "sweep": ["--cloud", str(cloud_file), "--k-list", "1,2", "--rank-list", "0",
                      "--sigmas", "1", "--probes", "8"],
        }[command]
        out = tmp_path / "out"
        assert run([command, *argv, "--max-iter", value, "--out", str(out)]) == 1
        assert f"max_iter must be >= 0, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_required_option_exit_1(self, tmp_path):
        assert run(["fit-gmm", "--k", "1", "--out", str(tmp_path / "m.json")]) == 1

    @pytest.mark.parametrize("text", [
        "[1,2]", '"x"', "null",
        '{"kind":"mixture","components":5}', '{"kind":"mixture","components":[1]}',
        '{"kind":"delta","cloud_path":5}',
        '{"kind":"isotropic","mean":[]}', '{"kind":"isotropic","mean":[NaN,0]}',
        '{"kind":"gaussian","mean":[0],"basis":[[1]],"eigenvalues":[Infinity]}',
    ])
    def test_malformed_model_file_exit_1(self, tmp_path, capsys, text):
        model = tmp_path / "m.json"
        model.write_text(text)
        out = tmp_path / "out"
        assert run(["sample", "--model", str(model), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {model}: " in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("content", [b"0,0,0,0\n1,0,0,a\n0,1,0,0\n", b"\xff\xfe\x00\x01"])
    def test_malformed_anchors_exit_1(self, tmp_path, cloud_file, capsys, content):
        anchors = tmp_path / "anchors.csv"
        anchors.write_bytes(content)
        out = tmp_path / "slices"
        assert run(["slice", "--models", f"gaussian:{cloud_file}", "--anchors", str(anchors),
                    "--sigma", "0.5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {anchors}: " in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("name, content", [
        ("nan.csv", b"1,2\nnan,0\n"),
        ("nan.bin", _pcld1(2, 2, [1.0, 2.0, np.nan, 0.0])),
        ("no_rows.bin", _pcld1(0, 3, [])),
    ], ids=["nan.csv", "nan.bin", "no_rows.bin"])
    def test_bad_cloud_content_names_its_file(self, tmp_path, capsys, name, content):
        cloud = tmp_path / name
        cloud.write_bytes(content)
        assert run(["fit-gmm", "--input", str(cloud), "--k", "1",
                    "--out", str(tmp_path / "m.json")]) == 1
        err = capsys.readouterr().err
        assert f"error: {cloud}: " in err and err.count(str(cloud)) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("content", [b"", b"\n\n"])
    @pytest.mark.parametrize("caller", ["cloud", "schedule", "anchors"])
    def test_empty_table_names_its_file(self, tmp_path, cloud_file, capsys, caller, content):
        table = tmp_path / "empty.csv"
        table.write_bytes(content)
        out = tmp_path / "out"
        argv = {
            "cloud": ["sample", "--model", f"gaussian:{table}"],
            "schedule": ["curves", "--schedule", f"table:{table}"],
            "anchors": ["slice", "--models", f"gaussian:{cloud_file}", "--anchors", str(table),
                        "--sigma", "0.5"],
        }[caller]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([*argv, "--out", str(out)]) == 1
        assert f"error: {table}: no data" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid, message", [
        ("0.1:inf:7:4", "sigma_max must be finite, got inf"),
        ("0.1:80:inf:4", "rho must be finite, got inf"),
    ])
    def test_non_finite_grid_names_its_field(self, tmp_path, cloud_file, capsys, grid, message):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["sample", "--model", f"gaussian:{cloud_file}", "--grid", grid,
                        "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestReadme:
    """Every command of README's Command line block parses as written."""

    def _commands(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        return [shlex.split(line)[1:] for line in lines if line.startswith("scorefield ")]

    def test_commands_parse(self):
        commands = self._commands()
        assert len(commands) >= len(cli.build_parser()._subparsers._group_actions[0].choices)
        for argv in commands:
            args = cli.build_parser().parse_args(argv)
            if "--grid" in argv:
                parse_grid_spec(args.grid)
            if "--schedule" in argv:
                parse_schedule_spec(args.schedule)


def run_python(args, cwd):
    """Run ``python <args>`` in a fresh interpreter that imports this scorefield."""
    src = str(Path(scorefield.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


class TestModuleEntryPoint:
    def test_bad_config_exits_1(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        proc = run_python(["-m", "scorefield.cli", "sample", "--config", str(cfg),
                           "--out", "x"], tmp_path)
        assert proc.returncode == 1
        assert "bad.json" in proc.stderr
        assert not (tmp_path / "x").exists()

    def test_version(self, tmp_path):
        proc = run_python(["-m", "scorefield.cli", "--version"], tmp_path)
        assert proc.returncode == 0
        assert proc.stdout.strip() == scorefield.__version__

    def test_import_leaves_scipy_special_unloaded(self, tmp_path):
        proc = run_python(["-c", "import scorefield.cli, sys; "
                                 "sys.exit('scipy.special' in sys.modules)"], tmp_path)
        assert proc.returncode == 0, proc.stderr


def _fuzz_inputs(root: Path) -> dict:
    """Value pools for every option, each mixing valid values with malformed
    ones: bad numbers, and model, cloud, anchor and schedule files whose
    content is wrong. Every file lives under ``root``."""
    def put(name, content):
        path = root / name
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        return str(path)

    rows = np.random.default_rng(0).standard_normal((30, 2))
    good = put("cloud.csv", "".join(f"{a:.17g},{b:.17g}\n" for a, b in rows))
    save_cloud(load_cloud(good), str(root / "cloud.bin"))
    clouds = [good, str(root / "cloud.bin"), put("cell.csv", "1,2\n3,a\n"),
              put("binary.csv", b"\xff\xfe\x00\x01"), put("empty.csv", ""),
              put("ragged.csv", "1,2\n3\n"), put("nan.csv", "1,2\nnan,0\n"),
              put("short.bin", b"PCLD1\x02"), str(root / "absent.csv"), str(root),
              put("nan.bin", _pcld1(2, 2, [1.0, 2.0, np.nan, 0.0])),
              put("no_rows.bin", _pcld1(0, 3, []))]
    save_cloud(gmm_cloud(12, 2, k=2, seed=0), str(root / "labelled.csv"), with_labels=True)
    clouds.append(str(root / "labelled.csv"))
    t = np.linspace(0.0, 1.0, 6)
    tables = {"good": "".join(f"{a:.17g},{np.cos(a):.17g},{np.sin(a):.17g}\n" for a in t),
              "cell": "0,1,0\n1,0.5,a\n", "cols": "0,1\n1,0.5\n", "back": "1,0.5,0.8\n0,1,0\n",
              "inf": "0,1,0\n0.5,0.6,inf\n1,0,1\n", "neg": "0,1,-0.5\n1,0.5,1\n",
              "zero": "0,0,0\n1,0.5,1\n"}
    spectrum = {"mean": [0.0, 0.0], "basis": [[1.0], [0.0]], "eigenvalues": [1.0]}
    model_texts = ["[1,2]", '"x"', "null", "{not json", '{"kind":"mixture","components":5}',
                   '{"kind":"mixture","components":[1]}', '{"kind":"delta","cloud_path":5}',
                   '{"kind":"delta","cloud_path":"cell.csv"}', '{"kind":"isotropic","mean":[]}',
                   '{"kind":"isotropic","mean":[NaN,0]}', '{"kind":"isotropic","mean":{}}',
                   '{"kind":"gaussian","mean":[0],"basis":[[1]],"eigenvalues":[Infinity]}',
                   '{"kind":"mixture","components":[{"weight":[1]}]}', '{"kind":"what"}',
                   json.dumps({"kind": "gaussian", **spectrum}),
                   json.dumps({"kind": "mixture", "components": [{"weight": 1.0, **spectrum}]})]
    models = [put(f"model_{i}.json", text) for i, text in enumerate(model_texts)]
    models += [f"{kind}:{c}" for kind in ("gaussian", "delta", "iso") for c in clouds[:4]]
    anchors = [put(f"anchors_{i}.csv", text) for i, text in enumerate(
        ["0,0\n1,0\n0,1\n", "0,0\n1,1\n2,2\n", "0,0\n0,0\n0,1\n", "0,0\n1,0\n",
         "0,0,0\n1,0,0\n0,1,0\n", "0,0\n1,a\n0,1\n", "nan,0\n1,0\n0,1\n"])]
    anchors += [put("anchors_binary.csv", b"\xff\xfe\x00\x01"), str(root / "absent.csv")]
    ints = ["1", "2", "0", "-1", "x", "2.5"]
    floats = ["2", "0.5", "0", "-1", "nan", "inf", "1e300", "x"]
    return {
        "model": models, "ref": models, "approx": models, "reference": ["delta", *models],
        "models": [",".join(p) for p in zip(models, models[5:] + models[:5])] + models,
        "cloud": clouds, "input": clouds, "anchors": anchors,
        "schedule": ["vp:0.1:20:1", "edm:80", "vp:1", "vp:a:b", "edm:0.002:80", "edm:1:0.5",
                     "edm:inf", "edm:-1", "vp:0.1:inf", "vp:0.1:20:nan", "what:1",
                     *(f"table:{put(f'table_{k}.csv', v)}" for k, v in tables.items()),
                     f"table:{clouds[3]}", f"table:{root / 'absent.csv'}"],
        "grid": ["0.1:5:7:4", "0.002:80:7:3", "1:0.5:7:3", "0.1:5:7:1", "a:b:c:d", "0.1:5:7",
                 "nan:5:7:4", "0.1:inf:7:4", "0:5:7:4", "0.1:5:-7:4"],
        "sigmas": ["1", "0.5,2", "nan", "-1", "0", "", "1e-200", "1e200", "inf", "x"],
        "lambdas": ["0.04,1", "0", "-1", "nan", "x", ""],
        "k_list": ["1,2", "0", "50", "x", ""], "rank_list": ["0,full", "1", "-1", "x", ""],
        "rank": ["full", "0", "1", "-1", "x"], "dims": ["1,2", "0", "-1", "x", ""],
        "kind": ["gaussian", "gmm", "two-cluster", "what"],
        "sampler": ["heun", "rk4", "ddim", "what"], "skip_mode": ["regrid", "grid-aligned", "x"],
        "probe_dist": ["gaussian", "noised-cloud", "x"], "n_quad": ["64", "65", "10", "-1", "x"],
        "skip": floats, "sigma": floats, "extent": floats, "m": floats, "q": floats,
        "out": [str(root / "out"), str(root / "out.csv"), str(root / "absent" / "out"),
                put("taken", "")],
        "int": ints,
    }


class TestFuzz:
    """Random argv over every subcommand: a valid command with some options
    replaced by malformed values and files, or left out, and some moved into
    ``--config``. ``run`` returns 0, 1 or 2 and never raises, and a run that
    returns 0 writes no non-finite number into a CSV file."""

    @pytest.fixture(scope="class")
    def pools(self, tmp_path_factory):
        return _fuzz_inputs(tmp_path_factory.mktemp("fuzz"))

    def test_run_exits_0_1_or_2(self, pools):
        root = Path(pools["cloud"][0]).parent
        good, out = pools["cloud"][0], str(root / "out")
        valid = {
            "gen-synthetic": {"kind": "gaussian", "d": "2", "n": "5", "out": out + ".csv"},
            "fit-gmm": {"input": good, "k": "2", "max_iter": "3", "out": out + ".json"},
            "sample": {"model": f"gaussian:{good}", "grid": "0.1:5:7:4", "steps": "3",
                       "out": out},
            "teleport": {"model": f"delta:{good}", "cloud": good, "skip": "2",
                         "skip_mode": "regrid", "grid": "0.1:5:7:4", "out": out},
            "compare": {"ref": f"delta:{good}", "approx": f"gaussian:{good}",
                        "sigmas": "0.5,2", "probes": "4", "out": out + ".csv"},
            "sweep": {"cloud": good, "k_list": "1,2", "rank_list": "0,full", "sigmas": "1",
                      "probes": "4", "max_iter": "3", "out": out + ".csv"},
            "slice": {"models": f"gaussian:{good},iso:{good}", "anchors": pools["anchors"][0],
                      "sigma": "0.5", "grid_n": "3", "out": out},
            "curves": {"n_t": "5", "out": out + ".csv"},
            "bimodal": {"sigmas": "1", "dims": "1,2", "n_quad": "64", "out": out + ".csv"},
        }
        parser = cli.build_parser()
        options = {name: sorted(a.dest for a in sub._actions
                                if a.option_strings and a.dest not in ("help", "config"))
                   for name, sub in parser._subparsers._group_actions[0].choices.items()}
        assert sorted(options) == sorted(valid)
        config = root / "config.json"

        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @given(data=st.data())
        def check(data):
            command = data.draw(st.sampled_from(sorted(valid)))
            values = dict(valid[command])
            for key in data.draw(st.lists(st.sampled_from(options[command]), max_size=3,
                                          unique=True)):
                values[key] = data.draw(st.sampled_from([None, *pools.get(key, pools["int"])]))
            values = {k: v for k, v in values.items() if v is not None}
            argv = [command]
            moved = data.draw(st.lists(st.sampled_from(sorted(values)), max_size=3,
                                       unique=True)) if values else []
            if moved:
                # some options as a config object, or a config file that holds none
                cfg = {k: values.pop(k) for k in moved}
                typed = {k: _json_value(v) for k, v in cfg.items()}
                config.write_text(data.draw(st.sampled_from(
                    [json.dumps(cfg), json.dumps(typed)] * 2 + ["[1]", "{bad", '{"nope": 1}'])))
                argv += ["--config", str(config)]
            target = values.get("out", cfg.get("out") if moved else None)
            argv += [f"--{k.replace('_', '-')}={v}" for k, v in values.items()]
            _run_checked(argv, target)

        check()

    @pytest.mark.parametrize("command", ["curves", "sample"])
    def test_every_schedule(self, pools, command):
        # the random draws above reach a given schedule and command rarely
        good = pools["cloud"][0]
        argv, out = {
            "curves": (["curves", "--n-t=5"], Path(good).parent / "schedule.csv"),
            "sample": (["sample", f"--model=gaussian:{good}", "--sampler=ddim", "--steps=3"],
                       Path(good).parent / "schedule"),
        }[command]
        codes = {spec: _run_checked([*argv, f"--schedule={spec}", f"--out={out}"], out)
                 for spec in pools["schedule"]}
        assert codes["vp:0.1:20:1"] == codes["edm:80"] == 0
        assert codes["vp:0.1:inf"] == codes["edm:0.002:80"] == 1


def _run_checked(argv, out) -> int:
    """``run(argv)`` with its output captured. It must return 0, 1 or 2
    without a traceback, and a run that returns 0 must write no non-finite
    number into a CSV file at ``out``."""
    before = _csv_inodes(out)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = run(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        for path, inode in _csv_inodes(out).items():
            if inode != before.get(path):
                assert not _non_finite_cells(path), (argv, path)
    return code


def _csv_inodes(out) -> dict:
    """Inode of the CSV file ``out``, or of each CSV file in directory
    ``out``. Every write replaces its file, so a written file has a new inode."""
    out = Path(out) if out else None
    if out is None or not out.exists():
        return {}
    paths = sorted(out.glob("*.csv")) if out.is_dir() else [out]
    return {p: p.stat().st_ino for p in paths if p.suffix == ".csv"}


def _non_finite_cells(path: Path) -> list:
    """Cells of a CSV file that read as a number that is not finite."""
    bad = []
    for line in path.read_text().splitlines():
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                bad.append(cell)
    return bad


def _json_value(text: str):
    """An option value as the JSON number it spells, where it spells one."""
    try:
        return json.loads(text)
    except ValueError:
        return text
