"""Command-line front end: data generation, model fitting, sampling, and the
score-comparison harness.

Every subcommand that takes --seed is bit-reproducible, with all randomness
split from the one seed through numpy SeedSequence spawning. Every output
file gets a JSON sidecar (<name>.meta.json) recording every option of the
run. Each option and its default are declared once, in ``build_parser``.
Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
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
    _CPUS,
    _SHARE,
    DeltaMixtureModel,
    GaussianModel,
    IsotropicModel,
    load_model,
    model_fingerprint,
    save_model,
)
from .samplers import (
    ddim_style_sample,
    heun_sample,
    rk4_sample,
    save_trajectory_csv,
    teleport_sample,
)
from .schedules import parse_grid_spec, parse_schedule_spec
from .spectrum import (_load_table, _replacing, _save_table, load_cloud, save_cloud,
                       spectrum_from_cloud)
from .synthetic import generate_cloud


def _write_sidecar(args: argparse.Namespace, **derived) -> None:
    """Record every option of the run, after config merging, plus what the
    command derived from them, next to ``args.out``."""
    params = {k: v for k, v in vars(args).items() if k not in ("func", "command", "config")}
    meta = {"tool": "scorefield", "version": __version__, "command": args.command,
            "params": {**params, **derived}}
    base = args.out.rstrip("/")
    path = os.path.join(base, "meta.json") if os.path.isdir(base) else base + ".meta.json"
    with _replacing(path) as f:
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
        return IsotropicModel(cloud.data.mean(axis=0))
    return load_model(spec)


def _rank(text: str):
    """A covariance rank: an integer, or ``full`` (None)."""
    text = text.strip()
    if text == "full":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid rank {text!r}: not an integer or full") from None


def _seed(text: str) -> int:
    """A seed: an integer >= 0, as numpy's SeedSequence requires."""
    if text.strip().isdecimal():
        return int(text)
    raise argparse.ArgumentTypeError(f"invalid seed {text!r}: not an integer >= 0")


def _comma_list(convert):
    """argparse type of a comma-separated list of ``convert`` values, empty
    items skipped. argparse names the type by its ``__name__`` in errors."""
    def parse(text: str) -> list:
        return [convert(v) for v in text.split(",") if v.strip()]
    parse.__name__ = f"{convert.__name__} list"
    return parse


def _config_tokens(parser, path: str, options) -> list[str]:
    """A JSON config object as ``--key=value`` tokens, parsed like flags.
    Keys are long option names (``-`` or ``_``) and must name one of
    ``options`` exactly, since argparse would accept a prefix; any other key
    is a usage error. ``null`` values are left out, so the option keeps its
    default."""
    with open(path) as f:
        try:
            cfg = json.load(f)
        except json.JSONDecodeError as exc:
            raise ScoreFieldError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ScoreFieldError(f"config {path} must hold a JSON object, got {type(cfg).__name__}")
    for key in cfg:
        if key.replace("-", "_") not in options:
            parser.error(f"config {path}: unknown option --{key.replace('_', '-')}")
    return [f"--{key.replace('_', '-')}={value if isinstance(value, str) else json.dumps(value)}"
            for key, value in cfg.items() if value is not None]


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
    _require(args, "out")
    kwargs = {}
    if args.kind == "gmm":
        kwargs["k"] = args.k
    cloud = generate_cloud(args.kind, args.n, args.d, args.seed, **kwargs)
    save_cloud(cloud, args.out)
    _write_sidecar(args)


def cmd_fit_gmm(args) -> None:
    _require(args, "input", "out")
    cloud = load_cloud(args.input)
    km = minibatch_kmeans_full(cloud, args.k, args.batch, args.seed, args.max_iter)
    save_model(gmm_from_assignments(cloud, km.assignments, args.rank), args.out)
    _write_sidecar(args, iterations=km.iterations, inertia=km.inertia)


def _ensemble(args, model, sigma_T, sample) -> None:
    """Write ``--n`` trajectories ``sample(x_T)`` to ``traj_<i>.csv``, the i-th
    from ``sigma_T`` times a standard normal draw of child i of
    ``SeedSequence(--seed)``: a file depends on the seed and i, not on workers.

    The pool runs ``min(--n, _CPUS)`` workers only when one one-row model
    call carries ``_SHARE`` = 2^17 elements or more (components x D, as the
    model's own share gate counts them); otherwise it runs one. A smaller
    call holds the GIL for most of its time, so a second thread only trades
    it back and forth. Teleport ensembles on 2 vCPUs, 2 workers against 1,
    wall / CPU: N x D = 64 000 -29 % / +21 %, 256 000 -29 % / +16 %,
    3.1 M (4000 x 784) -39 % / +3 %; heun, rk4 and ddim on 16-D models
    -4 to +31 % / -1 to +33 %.
    """
    os.makedirs(args.out, exist_ok=True)
    seeds = np.random.SeedSequence(args.seed).spawn(args.n)

    def run_one(i):
        x_T = sigma_T * np.random.default_rng(seeds[i]).standard_normal(model.dim)
        save_trajectory_csv(sample(x_T), os.path.join(args.out, f"traj_{i:04d}.csv"))

    heavy = getattr(model, "n_components", 1) * model.dim >= _SHARE
    with ThreadPoolExecutor(max_workers=min(args.n, _CPUS) if heavy else 1) as pool:
        list(pool.map(run_one, range(args.n)))
    _write_sidecar(args)


def cmd_sample(args) -> None:
    _require(args, "model", "out")
    _require_count(args, "n")
    model = _load_model_spec(args.model, {})
    if args.sampler == "ddim":
        schedule = parse_schedule_spec(args.schedule)
        sigma_T = float(schedule.sigma(schedule.T))
        sample = functools.partial(ddim_style_sample, model, schedule, args.steps)
    else:
        grid = parse_grid_spec(args.grid)
        sigma_T = grid.levels[0]
        if args.sampler == "heun":
            sample = functools.partial(heun_sample, model, grid)
        else:
            sample = functools.partial(rk4_sample, model, float(grid.levels[0]),
                                       float(grid.levels[-1]), args.steps,
                                       record_levels=grid.levels)
    _ensemble(args, model, sigma_T, sample)


def cmd_teleport(args) -> None:
    _require(args, "model", "cloud", "skip", "out")
    _require_count(args, "n")
    clouds = {}
    model = _load_model_spec(args.model, clouds)
    spec = spectrum_from_cloud(_read_cloud(clouds, args.cloud))
    grid = parse_grid_spec(args.grid)
    _ensemble(args, model, grid.levels[0], functools.partial(
        teleport_sample, model, spec, grid, args.skip, skip_mode=args.skip_mode))


def cmd_compare(args) -> None:
    _require(args, "ref", "approx", "sigmas", "out")
    clouds = {}
    ref = _load_model_spec(args.ref, clouds)
    approx = _load_model_spec(args.approx, clouds)
    cloud = _read_cloud(clouds, args.cloud) if args.cloud else None
    seeds = np.random.SeedSequence(args.seed).spawn(len(args.sigmas))
    rows = []
    for s, seed in zip(args.sigmas, seeds):
        st = unexplained_variance(ref, approx, s, args.probes, seed=seed,
                                  probe_dist=args.probe_dist, cloud=cloud)
        rows.append((s, st.mean, st.q25, st.q75, st.ratio_of_sums, st.n_excluded))
    _save_table(args.out, np.reshape(rows, (-1, 6)),
                "sigma,mean_uv,q25,q75,ratio_of_sums,n_excluded")
    _write_sidecar(args, ref_hash=model_fingerprint(ref), approx_hash=model_fingerprint(approx))


def cmd_sweep(args) -> None:
    _require(args, "cloud", "k_list", "rank_list", "sigmas", "out")
    clouds = {}
    cloud = _read_cloud(clouds, args.cloud)
    spec = f"delta:{args.cloud}" if args.reference == "delta" else args.reference
    reference = _load_model_spec(spec, clouds)
    table = rank_mode_sweep(cloud, args.k_list, args.rank_list, args.sigmas, reference,
                            n_probe=args.probes, seed=args.seed, batch=args.batch,
                            max_iter=args.max_iter)
    table.to_csv(args.out)
    _write_sidecar(args, reference_hash=model_fingerprint(reference))


def cmd_slice(args) -> None:
    _require(args, "models", "anchors", "sigma", "out")
    clouds = {}
    models = [_load_model_spec(m, clouds) for m in args.models.split(",")]
    anchors = _load_table(args.anchors)
    field = _slice_field(models, anchors, args.sigma, args.grid_n, args.extent)
    os.makedirs(args.out, exist_ok=True)
    for i in range(len(models)):
        field.to_csv(os.path.join(args.out, f"slice_{i:02d}.csv"), model_index=i)
    _write_sidecar(args, origin=field.origin.tolist(), anchor_uv=field.anchor_uv.tolist(),
                   model_hashes=[model_fingerprint(m) for m in models])


def cmd_curves(args) -> None:
    _require(args, "out")
    schedule = parse_schedule_spec(args.schedule)
    t_grid = np.linspace(0.0, schedule.T, args.n_t)
    analytical_curves(schedule, args.lambdas, t_grid).to_csv(args.out)
    _write_sidecar(args)


def cmd_bimodal(args) -> None:
    _require(args, "sigmas", "out")
    sigmas = np.asarray(args.sigmas)
    curves = [bimodal_error_curve(args.m, args.q, d, sigmas, args.n_quad) for d in args.dims]
    _save_table(args.out, np.column_stack([sigmas, *curves]),
                ",".join(["sigma", *(f"E_d{d}" for d in args.dims)]))
    _write_sidecar(args)


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
        p = sub.add_parser(name, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(func=fn)
        p.add_argument("--config", help="JSON object of option values; explicit flags win")
        for flag, kw in opts.items():
            p.add_argument(f"--{flag.replace('_', '-')}", **kw)

    seed = {"type": _seed, "default": 0, "help": "seed of every random draw"}
    out = {"help": "output path (required)"}
    model = {"help": "model JSON, or gaussian:/delta:/iso:<cloud file> (required)"}
    grid = {"default": "0.002:80:7:18", "help": "noise grid sigma_min:sigma_max:rho:n"}
    schedule = {"default": "vp:0.1:20:1", "help": "noise schedule spec"}
    count = {"type": int, "default": 1, "help": "number of trajectories"}
    sigmas = {"type": _comma_list(float), "help": "comma-separated noise levels (required)"}
    probes = {"type": int, "default": 256, "help": "probe points per noise level"}
    batch = {"type": int, "default": 2048, "help": "k-means mini-batch size"}
    max_iter = {"type": int, "default": 100, "help": "k-means iteration cap (0: k-means++ seeds only)"}

    add("gen-synthetic", cmd_gen_synthetic,
        kind={"default": "gaussian", "choices": ["gaussian", "gmm", "two-cluster"],
              "help": "cloud family"},
        d={"type": int, "default": 8, "help": "dimension"},
        n={"type": int, "default": 256, "help": "number of points"},
        k={"type": int, "default": 3, "help": "clusters of a gmm cloud"},
        seed=seed, out=out)
    add("fit-gmm", cmd_fit_gmm,
        input={"help": "point-cloud file (required)"},
        k={"type": int, "default": 1, "help": "mixture components"},
        rank={"type": _rank, "default": "full", "help": "covariance rank per component, or full"},
        seed=seed, batch=batch, max_iter=max_iter, out=out)
    add("sample", cmd_sample,
        model=model,
        sampler={"default": "heun", "choices": ["heun", "rk4", "ddim"], "help": "integrator"},
        grid=grid, schedule={**schedule, "help": "ddim noise schedule spec"},
        steps={"type": int, "default": 200, "help": "rk4 substeps or ddim steps"},
        n=count, seed=seed, out=out)
    add("teleport", cmd_teleport,
        model=model, cloud={"help": "cloud whose Gaussian fit makes the jump (required)"},
        skip={"type": float, "help": "noise level the jump lands on (required)"},
        skip_mode={"default": "grid-aligned", "choices": ["regrid", "grid-aligned"],
                   "help": "keep the grid below the skip, or re-grid that range"},
        grid=grid, n=count, seed=seed, out=out)
    add("compare", cmd_compare,
        ref={**model, "help": "reference model spec (required)"},
        approx={**model, "help": "approximate model spec (required)"},
        sigmas=sigmas, probes=probes, seed=seed,
        probe_dist={"default": "gaussian", "choices": ["gaussian", "noised-cloud"],
                    "help": "probe distribution"},
        cloud={"help": "cloud of the noised-cloud probes"}, out=out)
    add("sweep", cmd_sweep,
        cloud={"help": "training cloud (required)"},
        k_list={"type": _comma_list(int), "help": "comma-separated mode counts (required)"},
        rank_list={"type": _comma_list(_rank), "help": "comma-separated ranks or full (required)"},
        sigmas=sigmas, probes=probes, seed=seed,
        reference={"default": "delta", "help": "reference: delta on the cloud, or a model spec"},
        batch=batch, max_iter=max_iter, out=out)
    add("slice", cmd_slice,
        models={"help": "comma-separated model specs (required)"},
        anchors={"help": "CSV of three anchor points (required)"},
        sigma={"type": float, "help": "noise level (required)"},
        grid_n={"type": int, "default": 40, "help": "grid points per axis"},
        extent={"type": float, "default": None, "help": "half-width of the plane"},
        out=out)
    add("curves", cmd_curves,
        schedule=schedule,
        lambdas={"type": _comma_list(float), "default": "0.04,1,25",
                 "help": "comma-separated eigenvalues"},
        n_t={"type": int, "default": 1001, "help": "time points"}, out=out)
    add("bimodal", cmd_bimodal,
        m={"type": float, "default": 4.0, "help": "mode separation"},
        q={"type": float, "default": 0.1, "help": "mode width"},
        dims={"type": _comma_list(int), "default": "1,16,256", "help": "comma-separated dimensions"},
        sigmas=sigmas,
        n_quad={"type": int, "default": 200, "help": "quadrature points"}, out=out)
    return parser


def run(argv=None) -> int:
    """Run one command. ``--config`` keys become ``--key=value`` tokens
    placed right after the subcommand, so they are parsed like flags and
    explicit flags, coming later, win."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            at = argv.index(args.command) + 1
            tokens = _config_tokens(parser, args.config, vars(args))
            args = parser.parse_args(argv[:at] + tokens + argv[at:])
        args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OSError, ScoreFieldError, ValueError, KeyError) as exc:
        print(f"scorefield {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
