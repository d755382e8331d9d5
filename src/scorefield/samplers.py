"""Deterministic PF-ODE integrators and the analytical-teleportation sampler.

All EDM-style samplers integrate in sigma directly (sigma(t) = t), so the
ODE is dx/dsigma = -sigma s(x, sigma) = (x - D(x, sigma)) / sigma. Runs are
serial and deterministic. Heun, RK4 and DDIM are step rules over one
integration loop, and teleport is Heun's rule started at the closed-form
jump. The loop counts the ``denoise`` calls, the only model method a step
rule uses; a trajectory's NFE is that count and is kept nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidData, InvalidInput, InvalidSkip, NumericalBlowup
from .models import ScoreModel
from .schedules import NoiseGrid, NoiseSchedule, karras_grid
from .solution import SolutionContext, solve_state
from .spectrum import CompactSpectrum, _load_table, _save_table

__all__ = [
    "Trajectory",
    "heun_sample",
    "rk4_sample",
    "teleport_sample",
    "ddim_style_sample",
    "save_trajectory_csv",
    "load_trajectory_csv",
]

@dataclass(frozen=True)
class Trajectory:
    """Ordered records (t, sigma, alpha, state).

    ``sigma`` is strictly decreasing along the record order. Metadata
    carries the sampler name, the exact NFE count, and any skip parameters.
    """

    t: np.ndarray
    sigma: np.ndarray
    alpha: np.ndarray
    states: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("t", "sigma", "alpha"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        states = np.atleast_2d(np.asarray(self.states, dtype=np.float64))
        object.__setattr__(self, "states", states)
        if self.sigma.size > 1 and np.any(np.diff(self.sigma) >= 0):
            raise InvalidInput("trajectory sigma levels must be strictly decreasing")

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1]

    @property
    def nfe(self) -> int:
        return int(self.metadata.get("nfe", 0))


class _CountingView:
    """Counts the ``denoise`` calls made to a model, the only model method a
    step rule uses. Not a ``ScoreModel``, so instrumentation that wraps the
    model classes sees each call once, on the model."""

    def __init__(self, model: ScoreModel):
        self.model = model
        self.calls = 0

    def denoise(self, x, sigma):
        self.calls += 1
        return self.model.denoise(x, sigma)


def _integrate(sampler: str, model: ScoreModel, x_start, arg: str, step, sigma: np.ndarray,
               t=None, alpha=None, **metadata) -> Trajectory:
    """The loop of every sampler: ``x = step(view, x, i)`` moves the state
    from ``sigma[i]`` to ``sigma[i + 1]``. The NFE is the number of calls
    made through ``view``. ``t`` and ``alpha`` default to ``sigma`` and ones
    (EDM form).
    """
    x = np.array(x_start, dtype=np.float64).reshape(-1)
    if x.size != model.dim:
        raise InvalidInput(f"{arg} has length {x.size}, model dimension is {model.dim}")
    view = _CountingView(model)
    states = np.empty((sigma.size, x.size))
    states[0] = x
    for i in range(sigma.size - 1):
        x = step(view, x, i)
        if not np.isfinite(x).all():
            raise NumericalBlowup(f"{sampler} produced a non-finite state at step {i}", step=i)
        states[i + 1] = x
    return Trajectory(
        t=sigma.copy() if t is None else t,
        sigma=sigma.copy(),
        alpha=np.ones(sigma.size) if alpha is None else alpha,
        states=states,
        metadata={"sampler": sampler, "nfe": view.calls, **metadata},
    )


def _heun_step(levels: np.ndarray):
    """Heun's step rule over ``levels``, as ``heun_sample`` describes it."""

    def step(model, x, i):
        s_cur, s_next = levels[i], levels[i + 1]
        d_cur = (x - model.denoise(x, s_cur)) / s_cur
        x_next = x + (s_next - s_cur) * d_cur
        if i < levels.size - 2:
            d_next = (x_next - model.denoise(x_next, s_next)) / s_next
            x_next = x + (s_next - s_cur) * 0.5 * (d_cur + d_next)
        return x_next

    return step


def heun_sample(model: ScoreModel, grid: NoiseGrid, x_T: np.ndarray) -> Trajectory:
    """Heun (2nd order) integration over the grid levels.

    Euler predictor with slope d = (x - D(x, sigma)) / sigma, trapezoidal
    corrector at the next level; the final step to sigma_{n-1} is plain Euler
    (the corrector slope is undefined at sigma ~ 0 floors), giving
    NFE = 2 (n-1) - 1.
    """
    return _integrate("heun", model, x_T, "x_T", _heun_step(grid.levels), grid.levels)


def rk4_sample(
    model: ScoreModel,
    sigma_start: float,
    sigma_end: float,
    n_sub: int,
    x_start: np.ndarray,
    record_levels=None,
) -> Trajectory:
    """Classical fixed-step RK4 on dx/dsigma = -sigma s(x, sigma).

    ``n_sub`` substeps are spread uniformly in sigma over the whole interval;
    requested ``record_levels`` (descending, within [sigma_end, sigma_start])
    are hit exactly by splitting the interval there. Score evaluations floor
    sigma at 1e-8 so sigma_end = 0 is integrable.
    """
    if sigma_start < sigma_end or sigma_end < 0:
        raise InvalidInput(f"need sigma_start >= sigma_end >= 0, got ({sigma_start}, {sigma_end})")
    if n_sub < 1:
        raise InvalidInput(f"n_sub must be >= 1, got {n_sub}")

    levels = np.asarray(() if record_levels is None else record_levels, dtype=np.float64)
    if not np.all((sigma_end <= levels) & (levels <= sigma_start)):
        raise InvalidInput("record levels must lie within [sigma_end, sigma_start]")
    record = np.unique(np.concatenate([[sigma_start], levels.reshape(-1), [sigma_end]]))[::-1]

    def slope(model, xv, sigma):
        # -sigma s(x, sigma) with the score evaluated no lower than the floor;
        # keeping the true sigma multiplier damps the off-manifold 1/sigma
        # blowup as sigma -> 0 instead of amplifying it.
        s_eval = max(sigma, 1e-8)
        return (sigma / s_eval**2) * (xv - model.denoise(xv, s_eval))

    def step(model, x, seg):
        a, b = record[seg], record[seg + 1]
        m = max(1, int(round(n_sub * (a - b) / (sigma_start - sigma_end))))
        h = (b - a) / m
        for j in range(m):
            s0 = a + j * h
            k1 = slope(model, x, s0)
            k2 = slope(model, x + 0.5 * h * k1, s0 + 0.5 * h)
            k3 = slope(model, x + 0.5 * h * k2, s0 + 0.5 * h)
            k4 = slope(model, x + h * k3, s0 + h)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return x

    return _integrate("rk4", model, x_start, "x_start", step, record, n_sub=n_sub)


def teleport_sample(
    model: ScoreModel,
    spec: CompactSpectrum,
    grid: NoiseGrid,
    sigma_skip: float,
    x_T: np.ndarray,
    skip_mode: str = "grid-aligned",
) -> Trajectory:
    """Hybrid sampling: one Gaussian closed-form jump, then Heun's rule from there.

    The state at ``sigma_skip`` is computed exactly from the Gaussian model
    of the target (``spec`` holds the training cloud's mean/covariance
    spectrum), replacing every integration step above that level:

        x_skip = mean + (sigma_skip / sigma_max) (I - U U^T)(x_T - mean)
                 + sum_k sqrt((sigma_skip^2 + lam_k) / (sigma_max^2 + lam_k))
                   u_k u_k^T (x_T - mean)

    In ``grid-aligned`` mode sigma_skip must be one of the grid levels, whose
    prefix is skipped (skipping i levels saves 2i NFE); in ``regrid`` mode the
    remaining range [sigma_min, sigma_skip] is re-gridded with the same
    power-law rule and the grid's number of levels.
    """
    sigma_max, sigma_min = grid.levels[0], grid.levels[-1]
    if not (sigma_min < sigma_skip <= sigma_max):
        raise InvalidSkip(f"sigma_skip must lie in ({sigma_min}, {sigma_max}], got {sigma_skip}")

    ctx = SolutionContext.create(spec, x_T, sigma_T=float(sigma_max))
    x_skip = solve_state(ctx, float(sigma_skip))

    if skip_mode == "grid-aligned":
        skipped = grid.index_of(sigma_skip)
        if skipped is None:
            raise InvalidSkip(f"sigma_skip={sigma_skip} is not a grid level; use skip_mode='regrid'")
        sub = grid.truncate_from(skipped)
    elif skip_mode == "regrid":
        sub = karras_grid(float(sigma_min), float(sigma_skip), grid.rho, len(grid))
        skipped = None
    else:
        raise InvalidInput(f"skip_mode must be 'grid-aligned' or 'regrid', got {skip_mode!r}")

    return _integrate("teleport", model, x_skip, "x_T", _heun_step(sub.levels), sub.levels,
                      sigma_skip=float(sigma_skip), skip_mode=skip_mode, skipped_levels=skipped)


def ddim_style_sample(
    model: ScoreModel,
    schedule: NoiseSchedule,
    n_step: int,
    x_T: np.ndarray,
) -> Trajectory:
    """Deterministic VP sampler driven by the endpoint estimate.

    Steps t_i = T (1 - i/n_step). At each step the clean-sample estimate is
    the denoiser of the scaled state, x0_hat = D(x / alpha, sigma / alpha)
    (equal to (x + sigma^2 s(x / alpha, sigma / alpha) / alpha) / alpha),
    and the update keeps the noise direction fixed:

        x_next = alpha_next x0_hat + sigma_next (x - alpha x0_hat) / sigma.
    """
    if n_step < 1:
        raise InvalidInput(f"n_step must be >= 1, got {n_step}")
    times = schedule.T * (1.0 - np.arange(n_step + 1) / n_step)
    alphas = np.asarray(schedule.alpha(times), dtype=np.float64)
    sigmas = np.asarray(schedule.sigma(times), dtype=np.float64)
    if np.any(sigmas[:-1] <= 0):
        raise InvalidInput("schedule sigma must be positive on all but the final level")

    def step(model, x, i):
        a_cur, s_cur = alphas[i], sigmas[i]
        a_next, s_next = alphas[i + 1], sigmas[i + 1]
        x0_hat = model.denoise(x / a_cur, s_cur / a_cur)
        return a_next * x0_hat + s_next * (x - a_cur * x0_hat) / s_cur

    return _integrate("ddim", model, x_T, "x_T", step, sigmas, t=times, alpha=alphas,
                      n_step=n_step)


# ---------------------------------------------------------------------------
# Trajectory CSV export
# ---------------------------------------------------------------------------

def save_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV columns t, sigma, alpha, then state components x0, x1, ..."""
    header = ["t", "sigma", "alpha", *(f"x{j}" for j in range(traj.states.shape[1]))]
    _save_table(path, np.column_stack([traj.t, traj.sigma, traj.alpha, traj.states]),
                ",".join(header))


def load_trajectory_csv(path) -> Trajectory:
    """Read a trajectory that ``save_trajectory_csv`` wrote; bad or no
    content raises InvalidData naming ``path``."""
    raw = _load_table(path, skiprows=1)
    with open(path) as f:
        header = f.readline().strip()
    expected = ",".join(["t", "sigma", "alpha", *(f"x{j}" for j in range(raw.shape[1] - 3))])
    if raw.shape[1] < 4 or header != expected:
        raise InvalidData(f"{path}: header {header!r} does not name t,sigma,alpha,x0.. "
                          f"for {raw.shape[1]} columns")
    try:
        return Trajectory(raw[:, 0], raw[:, 1], raw[:, 2], raw[:, 3:])
    except InvalidInput as exc:  # sigma not strictly decreasing
        raise InvalidData(f"{path}: {exc}") from exc
