"""scorefield benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {ensemble,memorization,sweep}
                             --seed N --seconds T --trace {0,1}

Run from the root of a scorefield checkout. With ``--trace 0`` it prints the
end-to-end metrics (wall_s, cpu_s, peak_rss_mb, setup_s; fail_rate is
``failed / attempted``); with ``--trace 1`` the per-layer metrics of a
traced run. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

WORK_DIR = ".perfbench_work"
SETUP_REPS = 3
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# Every run ends within 180 s: child processes are killed at this deadline.
RUN_DEADLINE_S = 170

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


def per_layer_unit(name: str) -> str:
    if name.endswith("us_per_row"):
        return "us"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("bytes", "bytes_computed")):
        return "B"
    if name.endswith("flops_computed"):
        return "flop"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


class Run:
    """Operations attempted and failed over one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        elif name.startswith("check"):
            print(f"ok {name}: {detail}")

    def child(self, mode: str, workload: str, seed: int, data: str, result: str, **opts) -> dict | None:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, "--workload", workload,
               "--seed", str(seed), "--data", data, "--result", result]
        for key, value in opts.items():
            if value is True:
                cmd.append(f"--{key.replace('_', '-')}")
            elif value not in (None, False):
                cmd += [f"--{key.replace('_', '-')}", str(value)]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.record(f"{mode} worker", False, f"no result within {RUN_DEADLINE_S} s of the start")
            return None
        if proc.returncode != 0 or not os.path.isfile(result):
            self.record(f"{mode} worker", False, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return None
        with open(result) as f:
            out = json.load(f)
        for name, ok, detail in out["ops"]:
            self.record(f"{mode} {name}", ok, detail)
        return out


def same_files(a: str, b: str) -> tuple[bool, str]:
    """Byte equality of every output file except the meta.json sidecars,
    which record the output path."""
    diff = []
    for root, _, files in os.walk(a):
        for name in files:
            if name.endswith("meta.json"):
                continue
            pa = os.path.join(root, name)
            pb = os.path.join(b, os.path.relpath(pa, a))
            if not os.path.isfile(pb) or not filecmp.cmp(pa, pb, shallow=False):
                diff.append(os.path.relpath(pa, a))
    return not diff, f"{len(diff)} files differ: {diff[:3]}" if diff else "identical"


def check_passes(run: Run, workload, data: str, out: str, passes: int, seed: int) -> None:
    """Full check of the first pass's outputs; later passes must repeat them
    byte for byte."""
    first = os.path.join(out, "pass_0")
    try:
        checks = workload.check(data, first, seed)
    except Exception as exc:  # unreadable or malformed output is a failed check
        checks = [("outputs", False, f"{type(exc).__name__}: {exc}")]
    for name, ok, detail in checks:
        run.record(f"check {name}", ok, detail)
    for k in range(1, passes):
        ok, detail = same_files(first, os.path.join(out, f"pass_{k}"))
        run.record(f"pass {k} repeats pass 0", ok, detail)


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(run: Run, workload, args, work: str) -> dict:
    setups = []
    for i in range(SETUP_REPS):
        out = run.child("setup", workload.name, args.seed, os.path.join(work, f"data_{i}"),
                        os.path.join(work, f"setup_{i}.json"))
        if out is not None:
            setups.append(out["setup_s"])
    data = os.path.join(work, "data_0")
    for i in range(1, SETUP_REPS):
        ok, detail = same_files(data, os.path.join(work, f"data_{i}"))
        run.record(f"set-up {i} repeats set-up 0", ok, detail)
        shutil.rmtree(os.path.join(work, f"data_{i}"), ignore_errors=True)

    res = run.child("passes", workload.name, args.seed, data, os.path.join(work, "passes.json"),
                    out=os.path.join(work, "out"), seconds=args.seconds, min_passes=MIN_PASSES)
    if res is None or not setups:
        return {}
    check_passes(run, workload, data, os.path.join(work, "out"), len(res["walls"]), args.seed)
    print(f"machine: {json.dumps(res['machine'], sort_keys=True)}")
    print(f"passes: {len(res['walls'])}; set-ups: {len(setups)}")
    if res["steals"]:
        print(f"host steal during the passes: median {100 * median(res['steals']):.1f}%, "
              f"max {100 * max(res['steals']):.1f}% of all CPU time")
    return {
        "wall_s": median(res["walls"]),
        "cpu_s": median(res["cpus"]),
        "peak_rss_mb": res["peak_rss_kib"] / 1024.0,
        "setup_s": median(setups),
    }


def per_layer(run: Run, workload, args, work: str) -> dict:
    data = os.path.join(work, "data_0")
    setup = run.child("setup", workload.name, args.seed, data, os.path.join(work, "setup.json"),
                      trace=True)
    half = args.seconds / 2.0
    plain = run.child("passes", workload.name, args.seed, data, os.path.join(work, "plain.json"),
                      out=os.path.join(work, "plain"), seconds=half, min_passes=1)
    traced = run.child("passes", workload.name, args.seed, data, os.path.join(work, "traced.json"),
                       out=os.path.join(work, "traced"), seconds=half,
                       min_passes=MIN_TRACED_PASSES, trace=True)
    if setup is None or plain is None or traced is None:
        return {}
    check_passes(run, workload, data, os.path.join(work, "plain"), len(plain["walls"]), args.seed)
    check_passes(run, workload, data, os.path.join(work, "traced"), len(traced["walls"]), args.seed)

    layers = traced["layers"]
    first = layers[0]
    exact = [k for k in first if per_layer_unit(k) not in ("s", "us")]
    for k, later in enumerate(layers[1:], start=1):
        moved = [key for key in exact if later[key] != first[key]]
        run.record(f"traced pass {k} repeats exact counts", not moved, f"moved: {moved[:5]}")
    run.record("samplers.nfe equals the expected trajectory NFE",
               first["samplers.nfe"] == workload.expected_nfe(),
               f"{first['samplers.nfe']} vs {workload.expected_nfe()}")
    run.record("model calls in sampler spans equal samplers.nfe",
               first["samplers.model_calls"] == first["samplers.nfe"],
               f"{first['samplers.model_calls']} vs {first['samplers.nfe']}")

    digest = hashlib.sha256(json.dumps({k: first[k] for k in exact}, sort_keys=True).encode())
    print(f"exact-count digest (equal for equal seeds): {digest.hexdigest()[:16]}")

    metrics = {k: (first[k] if k in exact else median(p[k] for p in layers)) for k in first}
    metrics["synthetic.s"] = setup["layers"]["synthetic.s"]
    plain_wall, traced_wall = median(plain["walls"]), median(traced["walls"])
    metrics["trace.plain_wall_s"] = plain_wall
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    print(f"passes: {len(plain['walls'])} untraced, {len(layers)} traced")
    print_self_time_shares(metrics)
    return metrics


def print_self_time_shares(m: dict) -> None:
    """Each span's self time belongs to one of these parts; print their shares."""
    variants = {f"models.{v}": m[f"models.{v}.s"] for v in ("gaussian", "mixture", "delta")}
    parts = dict(variants)
    parts["models.other"] = m["models.self_s"] - sum(variants.values())
    parts["samplers"] = m["samplers.self_s"]
    parts["samplers.write"] = m["samplers.write.s"]
    for layer in ("cli", "spectrum", "solution", "schedules", "gmmfit", "analysis"):
        parts[layer] = m[f"{layer}.self_s"]
    total = sum(parts.values())
    shares = sorted(parts.items(), key=lambda kv: -kv[1])
    print("self-time shares: " + ", ".join(f"{k} {100 * v / total:.1f}%" for k, v in shares if v > 0))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "scorefield", "cli.py")):
        print("perfbench: run from the root of a scorefield checkout (src/scorefield not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))

    workload = WORKLOADS[args.workload]
    work = os.path.join(WORK_DIR, workload.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    run = Run()
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        values = per_layer(run, workload, args, work)
        units = {k: per_layer_unit(k) for k in values}
    else:
        values = end_to_end(run, workload, args, work)
        units = END_TO_END_UNITS
    for key in sorted(values):
        print(f"{key:36s} {values[key]:>16.6g} {units[key]}")
    attempted = max(run.attempted, 1)
    print(f"{'fail_rate':36s} {len(run.failures) / attempted:>16.6g} ratio "
          f"({len(run.failures)} of {attempted} operations)")
    for failure in run.failures:
        print(f"FAILED {failure}")
    correct = not run.failures and bool(values)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(run.failures),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
