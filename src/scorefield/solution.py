"""Closed-form probability-flow-ODE solution for the Gaussian score model.

With ``Sigma = U diag(lam) U^T`` the PF-ODE is linear and separates along the
principal axes. Anchoring at the initial state ``x_T`` (noise ``sigma_T``,
signal scale ``alpha_T``) and writing ``c_k = u_k . (x_T - alpha_T mean)``,

    x_t = alpha_t mean + (sigma_t / sigma_T) x_perp
          + sum_k psi_bar(t, lam_k) c_k u_k
    D(t) = mean + sum_k xi_bar(t, lam_k) c_k u_k

where psi_bar and xi_bar are per-eigenvalue interpolation gains. The EDM
parameterization is the alpha = 1 special case; everything here works for
either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePlane, InvalidInput, InvalidSchedule
from .schedules import NoiseSchedule
from .spectrum import CompactSpectrum

__all__ = [
    "psi",
    "xi",
    "SolutionContext",
    "solve_state",
    "solve_denoiser",
    "endpoint",
    "solve_state_vp",
    "perturbation_gain",
    "perturbation_shift",
    "rotation_correction",
    "RotationDecomposition",
    "rotation_decompose",
    "plane_coefficients",
]

# Peak of |rotation_correction| over alpha, per unit sqrt(lam / (lam + 1)).
ROTATION_BOUND_COEFF = 4.0 * (1.0 - np.sqrt(2.0) / 2.0) ** 2


def _check_nonneg(**vals):
    for name, v in vals.items():
        if np.any(np.asarray(v) < 0):
            raise InvalidInput(f"{name} must be nonnegative, got {v}")


def psi(sigma_t, sigma_T, lam):
    """State gain sqrt((sigma_t^2 + lam) / (sigma_T^2 + lam)) along one axis."""
    _check_nonneg(sigma_t=sigma_t, lam=lam)
    if np.any(np.asarray(sigma_T) <= 0):
        raise InvalidInput(f"sigma_T must be positive, got {sigma_T}")
    return _psi_vp(1.0, np.asarray(sigma_t, float), 1.0, np.asarray(sigma_T, float), lam)


def xi(sigma_t, sigma_T, lam):
    """Denoiser gain lam / sqrt((lam + sigma_t^2)(lam + sigma_T^2)).

    Fused form; deriving it as psi * lam/(lam + sigma_t^2) cancels
    catastrophically at large sigma_T with small lam.
    """
    _check_nonneg(sigma_t=sigma_t, lam=lam)
    if np.any(np.asarray(sigma_T) <= 0):
        raise InvalidInput(f"sigma_T must be positive, got {sigma_T}")
    return _xi_vp(1.0, np.asarray(sigma_t, float), 1.0, np.asarray(sigma_T, float), lam)


def _psi_vp(alpha_t, sigma_t, alpha_T, sigma_T, lam):
    """Scaled state gain sqrt((sigma_t^2 + lam alpha_t^2) / (sigma_T^2 + lam alpha_T^2))."""
    lam = np.asarray(lam, float)
    return np.sqrt((sigma_t**2 + lam * alpha_t**2) / (sigma_T**2 + lam * alpha_T**2))


def _xi_vp(alpha_t, sigma_t, alpha_T, sigma_T, lam):
    """Scaled denoiser gain alpha_t lam / sqrt((alpha_t^2 lam + sigma_t^2)(alpha_T^2 lam + sigma_T^2))."""
    lam = np.asarray(lam, float)
    return (
        alpha_t
        * lam
        / (np.sqrt(alpha_t**2 * lam + sigma_t**2) * np.sqrt(alpha_T**2 * lam + sigma_T**2))
    )


@dataclass(frozen=True)
class SolutionContext:
    """Anchored initial condition, kept as its manifold split.

    Holds ``coeffs[k] = u_k . (x_T - alpha_T mean)`` and the off-manifold
    residual, from which every state and denoiser of the trajectory follows;
    re-anchoring (e.g. for teleportation) builds a fresh context.
    """

    spectrum: CompactSpectrum
    sigma_T: float
    alpha_T: float
    coeffs: np.ndarray
    residual: np.ndarray

    @classmethod
    def create(
        cls,
        spectrum: CompactSpectrum,
        x_T: np.ndarray,
        sigma_T: float,
        alpha_T: float = 1.0,
    ) -> "SolutionContext":
        if sigma_T <= 0:
            raise InvalidInput(f"sigma_T must be positive, got {sigma_T}")
        x_T = np.asarray(x_T, dtype=np.float64).reshape(-1)
        if x_T.size != spectrum.dim:
            raise InvalidInput(f"x_T has length {x_T.size}, spectrum dimension is {spectrum.dim}")
        diff = x_T - alpha_T * spectrum.mean
        coeffs = spectrum.basis.T @ diff
        residual = diff - spectrum.basis @ coeffs
        for arr in (coeffs, residual):
            arr.setflags(write=False)
        return cls(spectrum, float(sigma_T), float(alpha_T), coeffs, residual)


def _state_at(ctx: SolutionContext, alpha_t: float, sigma_t: float) -> np.ndarray:
    spec = ctx.spectrum
    out = alpha_t * spec.mean + (sigma_t / ctx.sigma_T) * ctx.residual
    if spec.rank:
        gains = _psi_vp(alpha_t, sigma_t, ctx.alpha_T, ctx.sigma_T, spec.eigenvalues)
        out = out + spec.basis @ (gains * ctx.coeffs)
    return out


def _denoiser_at(ctx: SolutionContext, alpha_t: float, sigma_t: float) -> np.ndarray:
    spec = ctx.spectrum
    out = spec.mean.copy()
    if spec.rank:
        gains = _xi_vp(alpha_t, sigma_t, ctx.alpha_T, ctx.sigma_T, spec.eigenvalues)
        out = out + spec.basis @ (gains * ctx.coeffs)
    return out


def solve_state(ctx: SolutionContext, sigma_t: float) -> np.ndarray:
    """Exact PF-ODE state at noise level sigma_t (EDM parameterization)."""
    if not (0.0 <= sigma_t <= ctx.sigma_T):
        raise InvalidInput(f"sigma_t must lie in [0, {ctx.sigma_T}], got {sigma_t}")
    return _state_at(ctx, 1.0, float(sigma_t))


def solve_denoiser(ctx: SolutionContext, sigma_t: float) -> np.ndarray:
    """Denoiser output D(x_t, sigma_t) along the exact trajectory."""
    if not (0.0 <= sigma_t <= ctx.sigma_T):
        raise InvalidInput(f"sigma_t must lie in [0, {ctx.sigma_T}], got {sigma_t}")
    return _denoiser_at(ctx, 1.0, float(sigma_t))


def endpoint(ctx: SolutionContext) -> np.ndarray:
    """Exact trajectory endpoint x_0; lies on the affine manifold mean + span(U)."""
    return _state_at(ctx, 1.0, 0.0)


def solve_state_vp(ctx: SolutionContext, schedule: NoiseSchedule, t: float) -> np.ndarray:
    """Exact state at time t under a scaled (e.g. variance-preserving) schedule.

    The context must be anchored at (alpha_T, sigma_T) = schedule(T). Reduces
    to ``solve_state`` when alpha = 1 identically.
    """
    alpha_t = float(schedule.alpha(t))
    sigma_t = float(schedule.sigma(t))
    if alpha_t <= 0:
        raise InvalidSchedule(f"alpha_t must be positive, got {alpha_t} at t={t}")
    return _state_at(ctx, alpha_t, sigma_t)


def perturbation_gain(lam, alpha_tp, sigma_tp):
    """Endpoint amplification sqrt(lam / (sigma^2 + lam alpha^2)) of an
    on-manifold perturbation injected at scales (alpha, sigma)."""
    _check_nonneg(lam=lam, alpha_tp=alpha_tp, sigma_tp=sigma_tp)
    lam = np.asarray(lam, dtype=np.float64)
    denom = sigma_tp**2 + lam * alpha_tp**2
    if np.any((denom == 0) & (lam > 0)):
        raise InvalidInput("degenerate scales: sigma_tp and alpha_tp are both zero")
    with np.errstate(invalid="ignore"):
        out = np.sqrt(np.where(lam > 0, lam / np.where(denom > 0, denom, 1.0), 0.0))
    return out


def perturbation_shift(
    spec: CompactSpectrum, delta_x: np.ndarray, alpha_tp, sigma_tp
) -> np.ndarray:
    """Endpoint shift caused by perturbing the state by delta_x at (alpha, sigma).

    Off-manifold components of delta_x are denoised away and contribute
    nothing; each on-manifold coefficient is amplified by perturbation_gain.
    """
    delta_x = np.asarray(delta_x, dtype=np.float64).reshape(-1)
    if spec.rank == 0:
        return np.zeros_like(delta_x)
    delta_c = spec.basis.T @ delta_x
    gains = perturbation_gain(spec.eigenvalues, alpha_tp, sigma_tp)
    return spec.basis @ (gains * delta_c)


def rotation_correction(alpha, lam):
    """On-manifold correction J to the 2D rotation picture of a trajectory.

    J(alpha; lam) = sqrt(1 + (lam-1) alpha^2) - alpha sqrt(lam) - sqrt(1 - alpha^2),
    valid for variance-preserving scales (sigma^2 = 1 - alpha^2). Always
    nonpositive, bowl-shaped in time, and |J| <= 2 (1 - sqrt(2)/2).
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    return np.sqrt(1.0 + (lam - 1.0) * alpha**2) - alpha * np.sqrt(lam) - np.sqrt(1.0 - alpha**2)


def plane_coefficients(x: np.ndarray, e1: np.ndarray, e2: np.ndarray) -> tuple[float, float, float]:
    """Least-squares (a, b) with x ~ a e1 + b e2, plus the residual norm.

    Solves the 2x2 normal equations on the (e1, e2) Gram matrix; raises
    DegeneratePlane when the Gram determinant falls below
    1e-12 |e1|^2 |e2|^2.
    """
    g11 = float(e1 @ e1)
    g22 = float(e2 @ e2)
    g12 = float(e1 @ e2)
    det = g11 * g22 - g12 * g12
    if det < 1e-12 * g11 * g22 or g11 == 0.0 or g22 == 0.0:
        raise DegeneratePlane("plane vectors are (near-)collinear")
    b1 = float(e1 @ x)
    b2 = float(e2 @ x)
    a = (g22 * b1 - g12 * b2) / det
    b = (g11 * b2 - g12 * b1) / det
    res = float(np.linalg.norm(x - a * e1 - b * e2))
    return a, b, res


@dataclass(frozen=True)
class RotationDecomposition:
    """Per-step plane coefficients of a trajectory against span(x_0, x_T).

    ``a``/``b`` are the least-squares coefficients, ``a_pred``/``b_pred`` the
    analytic rotation prediction (alpha_t, sqrt(1 - alpha_t^2)), and
    ``residual_bound_sq`` the a-priori cap 4 (1 - sqrt(2)/2)^2 sum_k c_k^2 on
    the squared residual (present when on-manifold coefficients were given).
    """

    a: np.ndarray
    b: np.ndarray
    residual_norm: np.ndarray
    a_pred: np.ndarray
    b_pred: np.ndarray
    residual_bound_sq: float | None = None


def rotation_decompose(traj, x_0: np.ndarray, x_T: np.ndarray, coeffs=None) -> RotationDecomposition:
    """Decompose each trajectory state onto the plane spanned by (x_0, x_T).

    ``traj`` is any object with ``alpha`` and ``states`` arrays (see
    samplers.Trajectory). Passing the anchor's on-manifold coefficients
    ``coeffs`` adds the analytic residual bound.
    """
    x_0 = np.asarray(x_0, dtype=np.float64).reshape(-1)
    x_T = np.asarray(x_T, dtype=np.float64).reshape(-1)
    states = np.atleast_2d(np.asarray(traj.states, dtype=np.float64))
    n = states.shape[0]
    a = np.empty(n)
    b = np.empty(n)
    res = np.empty(n)
    for i in range(n):
        a[i], b[i], res[i] = plane_coefficients(states[i], x_0, x_T)
    alpha = np.asarray(traj.alpha, dtype=np.float64)
    bound = None
    if coeffs is not None:
        coeffs = np.asarray(coeffs, dtype=np.float64)
        bound = float(ROTATION_BOUND_COEFF * np.sum(coeffs**2))
    return RotationDecomposition(
        a=a,
        b=b,
        residual_norm=res,
        a_pred=alpha,
        b_pred=np.sqrt(np.maximum(1.0 - alpha**2, 0.0)),
        residual_bound_sq=bound,
    )
