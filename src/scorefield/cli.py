"""Command-line front end: data generation, model fitting, sampling, and the
score-comparison harness.

Every subcommand that takes --seed is bit-reproducible, with all randomness
split from the one seed through numpy SeedSequence spawning. Every output
file gets a JSON sidecar (<name>.meta.json) recording the full invocation.
Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .analysis import slice_field as _slice_field
from .analysis import analytical_curves, bimodal_error_curve, unexplained_variance
from .errors import InvalidInput, ScoreFieldError
from .gmmfit import gmm_from_assignments, minibatch_kmeans_full, rank_mode_sweep
from .models import (
    DeltaMixtureModel,
    GaussianModel,
    IsotropicModel,
    load_model,
    model_fingerprint,
    model_to_json,
)
from .samplers import (
    ddim_style_sample,
    heun_sample,
    rk4_sample,
    save_trajectory_csv,
    teleport_sample,
)
from .schedules import parse_grid_spec, parse_schedule_spec
from .spectrum import estimate_moments, load_cloud, save_cloud, spectrum_from_cloud
from .synthetic import generate_cloud


def _worker_count(n: int) -> int:
    cap = os.environ.get("GSL_THREADS")
    cap = int(cap) if cap else os.cpu_count() or 1
    return max(1, min(n, cap))


def _write_sidecar(out_path: str, command: str, params: dict) -> None:
    meta = {"tool": "scorefield", "version": __version__, "command": command,
            "params": params}
    base = out_path.rstrip("/")
    path = os.path.join(base, "meta.json") if os.path.isdir(base) else base + ".meta.json"
    with open(path, "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)


def _read_cloud(clouds: dict, path: str):
    """Load a point-cloud file once per command: ``clouds`` maps path to
    cloud and lives for one invocation only."""
    if path not in clouds:
        clouds[path] = load_cloud(path)
    return clouds[path]


def _load_model_spec(spec: str, clouds: dict):
    """Model references: a JSON path, or 'gaussian:<cloud>', 'delta:<cloud>',
    'iso:<cloud>' built from a point-cloud file read through ``clouds``."""
    if ":" in spec and spec.split(":", 1)[0] in ("gaussian", "delta", "iso"):
        kind, path = spec.split(":", 1)
        cloud = _read_cloud(clouds, path)
        if kind == "gaussian":
            return GaussianModel(spectrum_from_cloud(cloud))
        if kind == "delta":
            return DeltaMixtureModel(cloud)
        return IsotropicModel(estimate_moments(cloud)[0])
    return load_model(spec)


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _parse_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _parse_ranks(text: str) -> list:
    out = []
    for v in text.split(","):
        v = v.strip()
        if not v:
            continue
        out.append(None if v == "full" else int(v))
    return out


def _merge_config(args: argparse.Namespace, parser_defaults: dict) -> None:
    """Config JSON fills options left at their 'unset' sentinel; explicit
    flags win."""
    if getattr(args, "config", None):
        with open(args.config) as f:
            cfg = json.load(f)
        for key, value in cfg.items():
            attr = key.replace("-", "_")
            if getattr(args, attr, None) is None:
                setattr(args, attr, value)
    for attr, value in parser_defaults.items():
        if getattr(args, attr, None) is None:
            setattr(args, attr, value)


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ScoreFieldError(f"missing required option --{name.replace('_', '-')}")


def _require_count(args, name: str) -> None:
    """A count option, flag or config value alike, must be at least 1."""
    value = getattr(args, name)
    if value < 1:
        raise InvalidInput(f"--{name.replace('_', '-')} must be >= 1, got {value}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_synthetic(args) -> None:
    _merge_config(args, {"kind": "gaussian", "d": 8, "n": 256, "seed": 0, "k": 3})
    _require(args, "out")
    kwargs = {}
    if args.kind == "gmm":
        kwargs["k"] = args.k
    cloud = generate_cloud(args.kind, args.n, args.d, args.seed, **kwargs)
    save_cloud(cloud, args.out)
    _write_sidecar(args.out, "gen-synthetic", {
        "kind": args.kind, "d": args.d, "n": args.n, "seed": args.seed, "k": args.k,
        "out": args.out,
    })


def cmd_fit_gmm(args) -> None:
    _merge_config(args, {"k": 1, "rank": "full", "seed": 0, "batch": 2048, "max_iter": 100})
    _require(args, "input", "out")
    cloud = load_cloud(args.input)
    rank = None if str(args.rank) == "full" else int(args.rank)
    km = minibatch_kmeans_full(cloud, args.k, args.batch, args.seed, args.max_iter)
    model = gmm_from_assignments(cloud, km.assignments, rank)
    with open(args.out, "w") as f:
        json.dump(model_to_json(model), f)
    _write_sidecar(args.out, "fit-gmm", {
        "input": args.input, "k": args.k, "rank": args.rank, "seed": args.seed,
        "batch": args.batch, "max_iter": args.max_iter, "out": args.out,
        "iterations": km.iterations, "inertia": km.inertia,
    })


def _run_one_trajectory(args, model, index: int, seed_seq) -> str:
    rng = np.random.default_rng(seed_seq)
    if args.sampler == "ddim":
        schedule = parse_schedule_spec(args.schedule)
        sigma_T = float(schedule.sigma(schedule.T))
        x_T = sigma_T * rng.standard_normal(model.dim)
        traj = ddim_style_sample(model, schedule, args.steps, x_T)
    else:
        grid = parse_grid_spec(args.grid)
        x_T = grid.levels[0] * rng.standard_normal(model.dim)
        if args.sampler == "heun":
            traj = heun_sample(model, grid, x_T)
        elif args.sampler == "rk4":
            traj = rk4_sample(model, float(grid.levels[0]), float(grid.levels[-1]),
                              args.steps, x_T, record_levels=grid.levels)
        else:
            raise ScoreFieldError(f"unknown sampler {args.sampler!r}")
    path = os.path.join(args.out, f"traj_{index:04d}.csv")
    save_trajectory_csv(traj, path, include_denoised=False)
    return path


def cmd_sample(args) -> None:
    _merge_config(args, {"sampler": "heun", "grid": "0.002:80:7:18", "n": 1,
                         "seed": 0, "steps": 200, "schedule": "vp:0.1:20:1"})
    _require(args, "model", "out")
    _require_count(args, "n")
    model = _load_model_spec(args.model, {})
    os.makedirs(args.out, exist_ok=True)
    seeds = np.random.SeedSequence(args.seed).spawn(args.n)
    with ThreadPoolExecutor(max_workers=_worker_count(args.n)) as pool:
        futures = [pool.submit(_run_one_trajectory, args, model, i, seeds[i])
                   for i in range(args.n)]
        for fut in futures:
            fut.result()
    _write_sidecar(args.out, "sample", {
        "model": args.model, "sampler": args.sampler, "grid": args.grid,
        "schedule": args.schedule, "steps": args.steps, "n": args.n,
        "seed": args.seed, "out": args.out,
    })


def cmd_teleport(args) -> None:
    _merge_config(args, {"grid": "0.002:80:7:18", "skip_mode": "grid-aligned",
                         "n": 1, "seed": 0})
    _require(args, "model", "cloud", "skip", "out")
    _require_count(args, "n")
    clouds = {}
    model = _load_model_spec(args.model, clouds)
    cloud = _read_cloud(clouds, args.cloud)
    spec = spectrum_from_cloud(cloud)
    grid = parse_grid_spec(args.grid)
    os.makedirs(args.out, exist_ok=True)
    seeds = np.random.SeedSequence(args.seed).spawn(args.n)

    def run(i):
        rng = np.random.default_rng(seeds[i])
        x_T = grid.levels[0] * rng.standard_normal(model.dim)
        traj = teleport_sample(model, spec, grid, float(args.skip), x_T,
                               skip_mode=args.skip_mode)
        save_trajectory_csv(traj, os.path.join(args.out, f"traj_{i:04d}.csv"))

    with ThreadPoolExecutor(max_workers=_worker_count(args.n)) as pool:
        for fut in [pool.submit(run, i) for i in range(args.n)]:
            fut.result()
    _write_sidecar(args.out, "teleport", {
        "model": args.model, "cloud": args.cloud, "skip": float(args.skip),
        "skip_mode": args.skip_mode, "grid": args.grid, "n": args.n,
        "seed": args.seed, "out": args.out,
    })


def cmd_compare(args) -> None:
    _merge_config(args, {"probes": 256, "seed": 0, "probe_dist": "gaussian"})
    _require(args, "ref", "approx", "sigmas", "out")
    clouds = {}
    ref = _load_model_spec(args.ref, clouds)
    approx = _load_model_spec(args.approx, clouds)
    sigmas = _parse_floats(args.sigmas)
    cloud = _read_cloud(clouds, args.cloud) if getattr(args, "cloud", None) else None
    seeds = np.random.SeedSequence(args.seed).spawn(len(sigmas))
    rows = []
    for s, seed in zip(sigmas, seeds):
        st = unexplained_variance(ref, approx, s, args.probes, seed=seed,
                                  probe_dist=args.probe_dist, cloud=cloud)
        rows.append((s, st.mean, st.q25, st.q75, st.ratio_of_sums, st.n_excluded))
    with open(args.out, "w") as f:
        f.write("sigma,mean_uv,q25,q75,ratio_of_sums,n_excluded\n")
        for row in rows:
            f.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")
    _write_sidecar(args.out, "compare", {
        "ref": args.ref, "approx": args.approx, "sigmas": sigmas,
        "probes": args.probes, "seed": args.seed, "probe_dist": args.probe_dist,
        "out": args.out, "ref_hash": model_fingerprint(ref),
        "approx_hash": model_fingerprint(approx),
    })


def cmd_sweep(args) -> None:
    _merge_config(args, {"probes": 256, "seed": 0, "reference": "delta",
                         "batch": 2048, "max_iter": 100})
    _require(args, "cloud", "k_list", "rank_list", "sigmas", "out")
    clouds = {}
    cloud = _read_cloud(clouds, args.cloud)
    if args.reference == "delta":
        reference = DeltaMixtureModel(cloud)
    else:
        reference = _load_model_spec(args.reference, clouds)
    table = rank_mode_sweep(
        cloud,
        _parse_ints(args.k_list),
        _parse_ranks(args.rank_list),
        _parse_floats(args.sigmas),
        reference,
        n_probe=args.probes,
        seed=args.seed,
        batch=args.batch,
        max_iter=args.max_iter,
    )
    table.to_csv(args.out)
    _write_sidecar(args.out, "sweep", {
        "cloud": args.cloud, "k_list": args.k_list, "rank_list": args.rank_list,
        "sigmas": args.sigmas, "probes": args.probes, "seed": args.seed,
        "reference": args.reference, "out": args.out,
        "reference_hash": model_fingerprint(reference),
    })


def cmd_slice(args) -> None:
    _merge_config(args, {"grid_n": 40, "extent": None})
    _require(args, "models", "anchors", "sigma", "out")
    clouds = {}
    models = [_load_model_spec(m, clouds) for m in args.models.split(",")]
    anchors = np.loadtxt(args.anchors, delimiter=",", ndmin=2)
    field = _slice_field(models, anchors, float(args.sigma), args.grid_n,
                         None if args.extent is None else float(args.extent))
    os.makedirs(args.out, exist_ok=True)
    for i in range(len(models)):
        field.to_csv(os.path.join(args.out, f"slice_{i:02d}.csv"), model_index=i)
    _write_sidecar(args.out, "slice", {
        "models": args.models, "anchors": args.anchors, "sigma": float(args.sigma),
        "grid_n": args.grid_n, "extent": args.extent, "out": args.out,
        "origin": field.origin.tolist(), "anchor_uv": field.anchor_uv.tolist(),
        "model_hashes": [model_fingerprint(m) for m in models],
    })


def cmd_curves(args) -> None:
    _merge_config(args, {"schedule": "vp:0.1:20:1", "lambdas": "0.04,1,25", "n_t": 1001})
    _require(args, "out")
    schedule = parse_schedule_spec(args.schedule)
    lambdas = _parse_floats(args.lambdas)
    t_grid = np.linspace(0.0, schedule.T, args.n_t)
    table = analytical_curves(schedule, lambdas, t_grid)
    table.to_csv(args.out)
    _write_sidecar(args.out, "curves", {
        "schedule": args.schedule, "lambdas": lambdas, "n_t": args.n_t, "out": args.out,
    })


def cmd_bimodal(args) -> None:
    _merge_config(args, {"m": 4.0, "q": 0.1, "dims": "1,16,256", "n_quad": 200})
    _require(args, "sigmas", "out")
    sigmas = np.asarray(_parse_floats(args.sigmas))
    dims = _parse_ints(args.dims)
    curves = {d: bimodal_error_curve(args.m, args.q, d, sigmas, args.n_quad) for d in dims}
    with open(args.out, "w") as f:
        f.write("sigma," + ",".join(f"E_d{d}" for d in dims) + "\n")
        for i, s in enumerate(sigmas):
            f.write(f"{s:.17g}," + ",".join(f"{curves[d][i]:.17g}" for d in dims) + "\n")
    _write_sidecar(args.out, "bimodal", {
        "m": args.m, "q": args.q, "dims": dims, "sigmas": sigmas.tolist(),
        "n_quad": args.n_quad, "out": args.out,
    })


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scorefield",
        description="Analytical diffusion score models and samplers.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **opts):
        p = sub.add_parser(name)
        p.set_defaults(func=fn)
        p.add_argument("--config", default=None, help="JSON config merged under explicit flags")
        for flag, kw in opts.items():
            p.add_argument(f"--{flag.replace('_', '-')}", **kw)
        return p

    add("gen-synthetic", cmd_gen_synthetic,
        kind={"default": None, "choices": ["gaussian", "gmm", "two-cluster"]},
        d={"type": int, "default": None}, n={"type": int, "default": None},
        k={"type": int, "default": None}, seed={"type": int, "default": None},
        out={"default": None})
    add("fit-gmm", cmd_fit_gmm,
        input={"default": None}, k={"type": int, "default": None},
        rank={"default": None}, seed={"type": int, "default": None},
        batch={"type": int, "default": None}, max_iter={"type": int, "default": None},
        out={"default": None})
    add("sample", cmd_sample,
        model={"default": None},
        sampler={"default": None, "choices": ["heun", "rk4", "ddim"]},
        grid={"default": None}, schedule={"default": None},
        steps={"type": int, "default": None}, n={"type": int, "default": None},
        seed={"type": int, "default": None}, out={"default": None})
    add("teleport", cmd_teleport,
        model={"default": None}, cloud={"default": None},
        skip={"type": float, "default": None},
        skip_mode={"default": None, "choices": ["regrid", "grid-aligned"]},
        grid={"default": None}, n={"type": int, "default": None},
        seed={"type": int, "default": None}, out={"default": None})
    add("compare", cmd_compare,
        ref={"default": None}, approx={"default": None}, sigmas={"default": None},
        probes={"type": int, "default": None}, seed={"type": int, "default": None},
        probe_dist={"default": None, "choices": ["gaussian", "noised-cloud"]},
        cloud={"default": None}, out={"default": None})
    add("sweep", cmd_sweep,
        cloud={"default": None}, k_list={"default": None}, rank_list={"default": None},
        sigmas={"default": None}, probes={"type": int, "default": None},
        seed={"type": int, "default": None}, reference={"default": None},
        batch={"type": int, "default": None}, max_iter={"type": int, "default": None},
        out={"default": None})
    add("slice", cmd_slice,
        models={"default": None}, anchors={"default": None},
        sigma={"type": float, "default": None}, grid_n={"type": int, "default": None},
        extent={"type": float, "default": None}, out={"default": None})
    add("curves", cmd_curves,
        schedule={"default": None}, lambdas={"default": None},
        n_t={"type": int, "default": None}, out={"default": None})
    add("bimodal", cmd_bimodal,
        m={"type": float, "default": None}, q={"type": float, "default": None},
        dims={"default": None}, sigmas={"default": None},
        n_quad={"type": int, "default": None}, out={"default": None})
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except (OSError, ScoreFieldError, ValueError, KeyError) as exc:
        print(f"scorefield {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())
