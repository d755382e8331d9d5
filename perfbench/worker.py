"""Child process of perfbench/run.py: one set-up or one series of passes.

    python3 perfbench/worker.py setup  --workload W --seed S --data DIR --result FILE [--trace]
    python3 perfbench/worker.py passes --workload W --seed S --data DIR --out DIR
                                       --seconds T --min-passes K --result FILE [--trace]

Runs the workload's CLI commands in-process through ``scorefield.cli.run``
and writes a JSON result to FILE. A fresh process per call keeps the
import cost inside ``setup`` and keeps set-up and tracer memory out of the
``passes`` process's peak resident set. The checkout root is the current
directory; scorefield is imported from its ``src``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time includes every import, numpy's too

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _run_commands(cli, argvs) -> list[tuple]:
    """One operation per CLI invocation: (name, ok, detail)."""
    ops = []
    for argv in argvs:
        try:
            code = cli.run(argv)
            ops.append((argv[0], code == 0, f"exit {code}"))
        except Exception as exc:  # a traceback out of the CLI is a failed operation
            ops.append((argv[0], False, f"{type(exc).__name__}: {exc}"))
    return ops


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) clock ticks of all CPUs since boot, from /proc/stat.

    Steal is time the hypervisor ran something else on this machine's
    virtual CPUs; it explains a slow pass that the program did not cause.
    """
    try:
        with open("/proc/stat") as f:
            ticks = [int(v) for v in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def machine_record() -> dict:
    import ctypes
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "blas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
        if threads is not None:
            break
    l3 = None
    cache = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache)) if os.path.isdir(cache) else ():
        try:
            with open(os.path.join(cache, index, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(cache, index, "size")) as f:
                size = f.read().strip()
        except OSError:
            continue
        if level == "3":
            l3 = size
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "l3": l3,
        "env": {k: os.environ.get(k) for k in ("GSL_THREADS",) + BLAS_THREAD_VARS},
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "passes"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import scorefield.cli as cli

    tracer = None
    if args.trace:
        from tracer import Tracer, summarize

        tracer = Tracer()
        tracer.install()

    result: dict = {}
    if args.mode == "setup":
        os.makedirs(args.data, exist_ok=True)
        ops = _run_commands(cli, workload.setup(args.data, args.seed))
        result["setup_s"] = time.perf_counter() - STARTED
        if tracer is not None:
            result["layers"] = summarize(tracer.take(), tracer.fingerprint)
    else:
        result["machine"] = machine_record()
        ops, walls, cpus, steals, layers = [], [], [], [], []
        # Passes start only while one more pass of the mean length still ends
        # within --seconds, so a run measures for about --seconds, not more.
        first = time.perf_counter()
        while len(walls) < args.min_passes or (
                time.perf_counter() - first + sum(walls) / len(walls) <= args.seconds):
            out = os.path.join(args.out, f"pass_{len(walls)}")
            os.makedirs(out, exist_ok=True)
            argvs = workload.one_pass(args.data, out, args.seed)
            ticks0, wall0, cpu0 = cpu_ticks(), time.perf_counter(), time.process_time()
            ops += _run_commands(cli, argvs)
            walls.append(time.perf_counter() - wall0)
            cpus.append(time.process_time() - cpu0)
            ticks1 = cpu_ticks()
            if ticks0 is not None and ticks1 is not None and ticks1[1] > ticks0[1]:
                steals.append((ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1]))
            if tracer is not None:
                layers.append(summarize(tracer.take(), tracer.fingerprint))
        result.update(walls=walls, cpus=cpus, steals=steals, layers=layers,
                      peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    result["ops"] = ops
    with open(args.result, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
