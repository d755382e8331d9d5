"""Score-field comparison metrics, analytical curve grids, 2D slices, and the
bimodal deviation integral.

The central metric is the fraction of unexplained variance

    |s_ref(x, sigma) - s_approx(x, sigma)|^2 / |s_ref(x, sigma)|^2

averaged over probe points. The mean of per-probe ratios is the primary
statistic; the ratio of summed norms is emitted alongside for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePlane, GridMismatch, InvalidInput, InvalidNoise, NumericalBlowup
from .models import ScoreModel
from .samplers import Trajectory
from .schedules import NoiseSchedule
from .solution import _psi_vp, _xi_vp, perturbation_gain
from .spectrum import PointCloud, _save_table

__all__ = [
    "UnexplainedVarianceStats",
    "unexplained_variance",
    "trajectory_deviation",
    "CurveTable",
    "analytical_curves",
    "critical_times",
    "SliceField",
    "slice_field",
    "bimodal_error_curve",
    "bimodal_error_mc",
]


@dataclass(frozen=True)
class UnexplainedVarianceStats:
    """Per-probe ratio statistics; probes where the reference score vanishes
    are excluded and counted."""

    mean: float
    q25: float
    q75: float
    ratio_of_sums: float
    n_excluded: int
    values: np.ndarray


def probe_points(dim: int, sigma: float, n_probe: int, seed=0, probe_dist: str = "gaussian",
                 cloud: PointCloud | None = None) -> np.ndarray:
    """Validated probe set of ``unexplained_variance``: ``n_probe`` points
    from a generator seeded with ``seed``, either origin-centered
    N(0, sigma^2 I) or cloud points with sigma-scaled noise added
    ("noised-cloud")."""
    if sigma <= 0:
        raise InvalidNoise(f"sigma must be positive, got {sigma}")
    if n_probe < 1:
        raise InvalidInput(f"n_probe must be >= 1, got {n_probe}")
    rng = np.random.default_rng(seed)
    if probe_dist == "gaussian":
        return sigma * rng.standard_normal((n_probe, dim))
    if probe_dist == "noised-cloud":
        if cloud is None:
            raise InvalidInput("noised-cloud probing needs a cloud")
        idx = rng.integers(cloud.n_samples, size=n_probe)
        return cloud.data[idx] + sigma * rng.standard_normal((n_probe, dim))
    raise InvalidInput(f"unknown probe_dist {probe_dist!r}")


def ratio_stats(s_ref: np.ndarray, s_app: np.ndarray, sigma: float) -> UnexplainedVarianceStats:
    """Unexplained-variance statistics of approximate scores ``s_app``
    against reference scores ``s_ref`` on the same probes at noise ``sigma``.

    Raises NumericalBlowup naming ``sigma`` if any score is non-finite.
    """
    if not (np.all(np.isfinite(s_ref)) and np.all(np.isfinite(s_app))):
        raise NumericalBlowup(f"non-finite score at sigma={sigma:g}")
    num = np.einsum("md,md->m", s_ref - s_app, s_ref - s_app)
    den = np.einsum("md,md->m", s_ref, s_ref)
    ok = den > 0
    values = num[ok] / den[ok]
    if values.size == 0:
        raise InvalidInput("reference score vanished at every probe")
    total_den = float(den.sum())
    return UnexplainedVarianceStats(
        mean=float(values.mean()),
        q25=float(np.percentile(values, 25)),
        q75=float(np.percentile(values, 75)),
        ratio_of_sums=float(num.sum() / total_den) if total_den > 0 else np.inf,
        n_excluded=int(np.count_nonzero(~ok)),
        values=values,
    )


def unexplained_variance(
    ref: ScoreModel,
    approx: ScoreModel,
    sigma: float,
    n_probe: int,
    seed=0,
    probe_dist: str = "gaussian",
    cloud: PointCloud | None = None,
) -> UnexplainedVarianceStats:
    """Fraction of unexplained variance of ``approx`` against ``ref`` at one
    noise scale, with mean and 25/75% quantiles over probes."""
    x = probe_points(ref.dim, sigma, n_probe, seed, probe_dist, cloud)
    return ratio_stats(ref.score(x, sigma), approx.score(x, sigma), sigma)


def trajectory_deviation(traj_a: Trajectory, traj_b: Trajectory) -> np.ndarray:
    """Per-level mean squared state error (1/D)|a - b|^2 between two
    trajectories on the same noise levels."""
    if traj_a.sigma.size != traj_b.sigma.size or not np.allclose(
            traj_a.sigma, traj_b.sigma, rtol=1e-9, atol=0.0):
        raise GridMismatch("trajectories do not share the same noise levels")
    diff = traj_a.states - traj_b.states
    return np.einsum("nd,nd->n", diff, diff) / diff.shape[1]


# ---------------------------------------------------------------------------
# Analytical curves over a schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveTable:
    """Grid evaluation of the closed-form gains along each eigen-direction.

    Per lambda: the state gain psi_bar, the normalized denoiser gain
    xi_bar / sqrt(lambda), its centered time derivative, and the perturbation
    gain sqrt(lambda / (sigma_t^2 + lambda alpha_t^2)).
    """

    t: np.ndarray
    alpha: np.ndarray
    sigma: np.ndarray
    lambdas: np.ndarray
    psi: np.ndarray       # (n_lambda, n_t)
    xi_norm: np.ndarray   # (n_lambda, n_t)
    dxi_dt: np.ndarray    # (n_lambda, n_t)
    gain: np.ndarray      # (n_lambda, n_t)

    def to_csv(self, path) -> None:
        header = ["t", "alpha", "sigma"]
        cols = [self.t, self.alpha, self.sigma]
        for i, lam in enumerate(self.lambdas):
            tag = f"{lam:g}"
            header += [f"psi_{tag}", f"xi_norm_{tag}", f"dxi_dt_{tag}", f"gain_{tag}"]
            cols += [self.psi[i], self.xi_norm[i], self.dxi_dt[i], self.gain[i]]
        _save_table(path, np.column_stack(cols), ",".join(header))


def analytical_curves(schedule: NoiseSchedule, lambdas, t_grid) -> CurveTable:
    """Evaluate psi_bar, xi_bar / sqrt(lambda), its derivative (central
    differences on the grid), and the perturbation gain, anchored at the
    schedule horizon T. Every lambda must be finite and > 0, as the
    eigenvalues of a compact spectrum are; a curve value that is not finite
    raises NumericalBlowup naming the first such t."""
    t = np.asarray(t_grid, dtype=np.float64)
    if t.ndim != 1 or t.size < 3:
        raise InvalidInput("t_grid must be 1-D with at least 3 points")
    lambdas = np.asarray(lambdas, dtype=np.float64).reshape(-1)
    for lam in lambdas:
        if not 0 < lam < np.inf:  # also rejects NaN
            raise InvalidInput(f"lambda must be finite and > 0, got {lam:g}")
    with np.errstate(all="ignore"):  # a non-finite value is reported below
        alpha = np.asarray(schedule.alpha(t), dtype=np.float64)
        sigma = np.asarray(schedule.sigma(t), dtype=np.float64)
        alpha_T = np.float64(schedule.alpha(schedule.T))
        sigma_T = np.float64(schedule.sigma(schedule.T))  # its square overflows to inf

        psi_rows = np.empty((lambdas.size, t.size))
        xi_rows = np.empty_like(psi_rows)
        gain_rows = np.empty_like(psi_rows)
        for i, lam in enumerate(lambdas):
            psi_rows[i] = _psi_vp(alpha, sigma, alpha_T, sigma_T, lam)
            xi_rows[i] = _xi_vp(alpha, sigma, alpha_T, sigma_T, lam) / np.sqrt(lam)
            gain_rows[i] = perturbation_gain(lam, alpha, sigma)
        dxi = np.gradient(xi_rows, t, axis=1)
    values = np.vstack([t, alpha, sigma, psi_rows, xi_rows, dxi, gain_rows])
    finite = np.isfinite(values).all(axis=0)
    if not finite.all():
        raise NumericalBlowup(f"analytical curves are not finite at t = {t[np.argmin(finite)]:g}")
    return CurveTable(t, alpha, sigma, lambdas, psi_rows, xi_rows, dxi, gain_rows)


def critical_times(schedule: NoiseSchedule, lambdas, t_grid) -> np.ndarray:
    """Per-lambda time of fastest denoiser-gain change: argmax over the grid
    of |d(xi_bar / sqrt(lambda)) / dt|."""
    table = analytical_curves(schedule, lambdas, t_grid)
    idx = np.argmax(np.abs(table.dxi_dt), axis=1)
    return table.t[idx]


# ---------------------------------------------------------------------------
# 2D score-field slices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SliceField:
    """Score fields projected onto the plane through three anchor points.

    The in-plane frame (e_u, e_v) comes from Gram-Schmidt on
    (a2 - a1, a3 - a1); the origin sits at the anchor centroid. ``s_u`` and
    ``s_v`` are lists (one entry per model) of grid_n x grid_n projected
    components, and ``norm`` the in-plane L2 norm.
    """

    origin: np.ndarray
    e_u: np.ndarray
    e_v: np.ndarray
    anchor_uv: np.ndarray  # (3, 2) plane coordinates of the anchors
    u: np.ndarray
    v: np.ndarray
    s_u: tuple[np.ndarray, ...]
    s_v: tuple[np.ndarray, ...]
    norm: tuple[np.ndarray, ...]

    def to_csv(self, path, model_index: int = 0) -> None:
        anchors = ";".join(f"({a[0]:.17g},{a[1]:.17g})" for a in self.anchor_uv)
        uu, vv = np.meshgrid(self.u, self.v, indexing="ij")
        body = np.column_stack([
            uu.ravel(), vv.ravel(),
            self.s_u[model_index].ravel(),
            self.s_v[model_index].ravel(),
            self.norm[model_index].ravel(),
        ])
        _save_table(path, body, f"# anchors_uv={anchors}\nu,v,s_u,s_v,norm")


def slice_field(models, anchors, sigma: float, grid_n: int = 40, extent: float | None = None) -> SliceField:
    """Evaluate each model's score on the plane spanned by three anchors.

    ``extent`` bounds the (u, v) square grid and must be finite and > 0; by
    default it is 1.5x the largest anchor plane coordinate. Raises DegeneratePlane for collinear
    anchors and NumericalBlowup naming ``sigma`` if any projected score or
    norm is non-finite.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    if anchors.shape[0] != 3:
        raise InvalidInput(f"need exactly 3 anchors, got {anchors.shape[0]}")
    if sigma <= 0:
        raise InvalidNoise(f"sigma must be positive, got {sigma}")
    if grid_n < 2:
        raise InvalidInput(f"grid_n must be >= 2, got {grid_n}")
    if extent is not None and not 0 < extent < np.inf:  # also rejects NaN
        raise InvalidInput(f"extent must be finite and > 0, got {extent:g}")
    models = list(models)
    if not models:
        raise InvalidInput("need at least one model")

    v1 = anchors[1] - anchors[0]
    v2 = anchors[2] - anchors[0]
    scale = max(np.linalg.norm(v1), np.linalg.norm(v2))
    if np.linalg.norm(v1) < 1e-12 * max(scale, 1.0):
        raise DegeneratePlane("first two anchors coincide")
    e_u = v1 / np.linalg.norm(v1)
    w = v2 - (v2 @ e_u) * e_u
    if np.linalg.norm(w) < 1e-12 * max(scale, 1.0):
        raise DegeneratePlane("anchors are collinear")
    e_v = w / np.linalg.norm(w)
    origin = anchors.mean(axis=0)

    anchor_uv = np.column_stack([(anchors - origin) @ e_u, (anchors - origin) @ e_v])
    if extent is None:
        extent = 1.5 * float(np.max(np.abs(anchor_uv)))
    u = np.linspace(-extent, extent, grid_n)
    v = np.linspace(-extent, extent, grid_n)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    points = origin + uu.ravel()[:, None] * e_u + vv.ravel()[:, None] * e_v

    s_u, s_v, norms = [], [], []
    for model in models:
        s = model.score(points, sigma)
        su = (s @ e_u).reshape(grid_n, grid_n)
        sv = (s @ e_v).reshape(grid_n, grid_n)
        with np.errstate(over="ignore"):
            norm = np.sqrt(su**2 + sv**2)
        # A non-finite component makes its norm non-finite too.
        if not np.isfinite(norm).all():
            raise NumericalBlowup(f"non-finite slice score at sigma={sigma:g}")
        s_u.append(su)
        s_v.append(sv)
        norms.append(norm)
    return SliceField(origin, e_u, e_v, anchor_uv, u, v, tuple(s_u), tuple(s_v), tuple(norms))


# ---------------------------------------------------------------------------
# Bimodal deviation integral
# ---------------------------------------------------------------------------

def _bimodal_integrand(x1, m: float, s2: float, d: int) -> np.ndarray:
    th = np.tanh(m * x1 / s2)
    num = m**2 * (th - m * x1 / (s2 + m**2)) ** 2
    den = (m * th - x1) ** 2 + (d - 1) * s2
    return num / den


def bimodal_error_curve(m: float, q: float, D: int, sigma_grid, n_quad: int = 200) -> np.ndarray:
    """Expected score deviation E(sigma) between an equal two-mode isotropic
    mixture at +-m e_1 (per-mode variance q^2) and its Gaussian surrogate.

    Reduced to a one-dimensional expectation over the mode-axis marginal
    x_1 ~ 1/2 [N(m, q^2 + sigma^2) + N(-m, q^2 + sigma^2)] (the off-axis
    norm concentrates at (D-1)(q^2 + sigma^2)), evaluated with n_quad-point
    Gauss-Hermite quadrature per component. A non-finite value (an overflow,
    or a node on the D = 1 singularity) raises NumericalBlowup.
    """
    m, q = np.float64(m), np.float64(q)  # their squares overflow to inf, not OverflowError
    if not (0 < m < np.inf and 0 <= q < np.inf and D >= 1):  # also rejects NaN
        raise InvalidInput(f"need finite m > 0, q >= 0 and D >= 1, got ({m}, {q}, {D})")
    if n_quad < 64:
        raise InvalidInput(f"n_quad must be >= 64, got {n_quad}")
    # Imported here, not at module level: scipy.special is large and slow to
    # import, and no other command needs it.
    from scipy.special import roots_hermite

    nodes, weights = roots_hermite(n_quad)
    sigma_grid = np.asarray(sigma_grid, dtype=np.float64).reshape(-1)
    out = np.empty(sigma_grid.size)
    for i, sigma in enumerate(sigma_grid):
        with np.errstate(all="ignore"):  # a non-finite value raises below
            s2 = q**2 + sigma**2
            std = np.sqrt(s2)
            acc = 0.0
            for center in (m, -m):
                x1 = center + np.sqrt(2.0) * std * nodes
                acc += 0.5 * float(weights @ _bimodal_integrand(x1, m, s2, D)) / np.sqrt(np.pi)
        if not np.isfinite(acc):
            raise NumericalBlowup(f"non-finite bimodal deviation at sigma={sigma:g}, D={D}")
        out[i] = acc
    return out


def bimodal_error_mc(m: float, q: float, D: int, sigma: float, n_sample: int = 20000, seed=0) -> float:
    """Monte Carlo cross-check of bimodal_error_curve: draws from the full
    D-dimensional noised mixture and evaluates the exact per-sample ratio."""
    rng = np.random.default_rng(seed)
    s2 = q**2 + sigma**2
    signs = rng.choice([-1.0, 1.0], size=n_sample)
    x = np.sqrt(s2) * rng.standard_normal((n_sample, D))
    x[:, 0] += signs * m
    th = np.tanh(m * x[:, 0] / s2)
    # score difference is confined to the mode axis
    num = m**2 * (th - m * x[:, 0] / (s2 + m**2)) ** 2
    den = (m * th - x[:, 0]) ** 2 + np.einsum("nd,nd->n", x[:, 1:], x[:, 1:])
    return float(np.mean(num / den))
