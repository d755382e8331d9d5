"""The benchmark tracer's invariants on a tiny sampling run.

``perfbench/tracer.py`` wraps scorefield from outside the package. It counts
model calls per trajectory and replaces ``cli.ThreadPoolExecutor`` to carry
span parents into the worker threads, so a change that batches the samplers
or removes the pool breaks the benchmark's traced run. This test fails
first. The tracer source is only read here, never written or imported as a
package module.
"""

import types
from pathlib import Path

import scorefield.cli as cli
from scorefield.cli import run

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_sampler_model_calls_equal_trajectory_nfe(tmp_path):
    trace = load_tracer()
    cloud, model = tmp_path / "cloud.bin", tmp_path / "gmm.json"
    assert run(["gen-synthetic", "--kind", "gmm", "--d", "4", "--n", "200", "--k", "2",
                "--seed", "1", "--out", str(cloud)]) == 0
    assert run(["fit-gmm", "--input", str(cloud), "--k", "2", "--rank", "2", "--seed", "1",
                "--out", str(model)]) == 0
    pool = cli.ThreadPoolExecutor
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert cli.ThreadPoolExecutor is not pool
        # Six grid levels: five Heun steps and nine model calls per trajectory.
        assert run(["sample", "--model", str(model), "--sampler", "heun",
                    "--grid", "0.01:10:7:6", "--n", "3", "--seed", "2",
                    "--out", str(tmp_path / "heun")]) == 0
        assert run(["teleport", "--model", f"delta:{cloud}", "--cloud", str(cloud),
                    "--skip", "2.0", "--skip-mode", "regrid", "--grid", "0.01:10:7:6",
                    "--n", "2", "--seed", "3", "--out", str(tmp_path / "teleport")]) == 0
        metrics = trace.summarize(tracer.take(), tracer.fingerprint)
    finally:
        tracer.uninstall()
    assert cli.ThreadPoolExecutor is pool
    assert metrics["samplers.trajectories"] == 5
    assert metrics["samplers.model_calls"] == metrics["samplers.nfe"] == 45


def test_ddim_and_rk4_model_calls_equal_trajectory_nfe(tmp_path):
    trace = load_tracer()
    cloud, model = tmp_path / "cloud.bin", tmp_path / "gmm.json"
    assert run(["gen-synthetic", "--kind", "gmm", "--d", "4", "--n", "200", "--k", "2",
                "--seed", "1", "--out", str(cloud)]) == 0
    assert run(["fit-gmm", "--input", str(cloud), "--k", "2", "--rank", "2", "--seed", "1",
                "--out", str(model)]) == 0
    tracer = trace.Tracer()
    tracer.install()
    try:
        # DDIM: one model call per step, four steps per trajectory.
        assert run(["sample", "--model", str(model), "--sampler", "ddim", "--steps", "4",
                    "--n", "2", "--seed", "2", "--out", str(tmp_path / "ddim")]) == 0
        ddim = trace.summarize(tracer.take(), tracer.fingerprint)
        # RK4 with one substep: each of the five grid segments takes one
        # substep of four model calls, so 20 per trajectory.
        assert run(["sample", "--model", str(model), "--sampler", "rk4", "--steps", "1",
                    "--grid", "0.01:10:7:6", "--n", "3", "--seed", "3",
                    "--out", str(tmp_path / "rk4")]) == 0
        rk4 = trace.summarize(tracer.take(), tracer.fingerprint)
    finally:
        tracer.uninstall()
    assert ddim["samplers.trajectories"] == 2
    assert ddim["samplers.model_calls"] == ddim["samplers.nfe"] == 8
    assert rk4["samplers.trajectories"] == 3
    assert rk4["samplers.model_calls"] == rk4["samplers.nfe"] == 60


def test_two_worker_teleport_model_calls_equal_trajectory_nfe(tmp_path, monkeypatch):
    """A delta cloud of N x D = 2^17 elements runs its ensemble on 2 workers
    through the tracer's pool, which still books every model call to its
    trajectory."""
    trace = load_tracer()
    cloud = tmp_path / "cloud.bin"
    assert run(["gen-synthetic", "--kind", "gaussian", "--d", "32", "--n", "4096",
                "--seed", "1", "--out", str(cloud)]) == 0
    monkeypatch.setattr(cli, "_CPUS", 2)
    pool = cli.ThreadPoolExecutor
    tracer = trace.Tracer()
    tracer.install()
    propagating, sizes = cli.ThreadPoolExecutor, []

    class Recording(propagating):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    try:
        cli.ThreadPoolExecutor = Recording
        assert run(["teleport", "--model", f"delta:{cloud}", "--cloud", str(cloud),
                    "--skip", "2.0", "--skip-mode", "regrid", "--grid", "0.01:10:7:6",
                    "--n", "4", "--seed", "3", "--out", str(tmp_path / "teleport")]) == 0
        metrics = trace.summarize(tracer.take(), tracer.fingerprint)
    finally:
        cli.ThreadPoolExecutor = propagating
        tracer.uninstall()
    assert cli.ThreadPoolExecutor is pool
    assert sizes == [2]
    assert metrics["samplers.trajectories"] == 4
    # Nine model calls per trajectory, as for the teleport run above.
    assert metrics["samplers.model_calls"] == metrics["samplers.nfe"] == 36
