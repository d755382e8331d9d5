"""Idealized score models: isotropic, Gaussian, Gaussian mixture, delta mixture.

Each model defines only its optimal denoiser ``D(x, sigma)``; the score of
the noise-corrupted distribution follows from it once, in ``ScoreModel``, as
``s(x, sigma) = (D(x, sigma) - x) / sigma^2``. The two mixtures share one
posterior-weight loop: their denoiser is ``sum_i w_i(x, sigma) D_i(x, sigma)``,
where ``D_i`` is a Gaussian component's denoiser or, for the delta mixture,
the training point ``y_i``. All operations accept a single query point of
shape (D,) or a batch of shape (M, D); every output row is a pure function of
its input row, so batched and single-point calls agree bitwise. Noise levels
must satisfy ``1.49e-154 <= sigma <= 1.34e154`` (``sigma^2`` a normal double).

Mixture weights are always computed in log space with max subtraction; the
softmax of Gaussian log-densities otherwise underflows catastrophically at
small sigma. The delta mixture streams over its training points in fixed-size
blocks, so a batch of M rows needs O(M N) memory, never an (M, N, D) tensor;
a row whose every delta logit underflows to -inf gets one-hot weights on its
nearest training point, split evenly on exact ties.

Gaussian log-densities never touch a D x D matrix: with the compact spectrum
``Sigma = U diag(lam) U^T``,

    log det(sigma^2 I + Sigma) = (D - r) log sigma^2 + sum_k log(lam_k + sigma^2)
    (x-mu)^T (sigma^2 I + Sigma)^-1 (x-mu)
        = (|x-mu|^2 - sum_k lam_k/(lam_k + sigma^2) c_k^2) / sigma^2

with ``c = U^T (x - mu)``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InvalidData, InvalidNoise, ShapeError, WrongVariant
from .spectrum import (
    CompactSpectrum,
    PointCloud,
    load_cloud,
    spectrum_from_cloud,
    spectrum_from_json,
    spectrum_to_json,
)

__all__ = [
    "ScoreModel",
    "IsotropicModel",
    "GaussianModel",
    "GaussianComponent",
    "MixtureModel",
    "DeltaMixtureModel",
    "iso_score",
    "gaussian_score",
    "gaussian_denoise",
    "mixture_weights",
    "gmm_score",
    "gmm_denoise",
    "delta_score",
    "delta_denoise",
    "model_fingerprint",
    "model_to_json",
    "model_from_json",
    "save_model",
    "load_model",
]

# Row chunk for batched mixture evaluations; bounds the (chunk, K, D) buffer
# without changing per-row results.
_CHUNK = 256

# Element budget of the delta kernel's (rows, block, D) difference buffer
# (512 KiB); the block of training points is sized to fit it.
_BLOCK = 1 << 16

# Exactly the noise levels whose square is a normal, finite double.
_SIGMA_MIN = float(np.sqrt(np.finfo(np.float64).tiny))  # 1.49e-154
_SIGMA_MAX = float(np.sqrt(np.finfo(np.float64).max))  # 1.34e154


def _check_sigma(sigma) -> float:
    """Validate a noise level; every model evaluation passes through here.

    The domain is ``1.49e-154 <= sigma <= 1.34e154``: ``sigma^2`` must be a
    normal, finite double. Above it ``sigma**2`` overflows; below it
    ``sigma^2`` is subnormal or zero and the ``1/sigma^2`` scalings turn
    into inf/NaN.
    """
    sigma = float(sigma)
    if not _SIGMA_MIN <= sigma <= _SIGMA_MAX:  # also rejects NaN
        raise InvalidNoise(
            f"sigma must lie in [{_SIGMA_MIN:.3g}, {_SIGMA_MAX:.3g}] so that sigma^2 "
            f"is a normal finite double, got {sigma}"
        )
    return sigma


def _as_batch(x, dim: int) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise ShapeError(f"query points must have dimension {dim}, got shape {x.shape}")
    return x, single


def _project(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    # einsum keeps each output element an independent contiguous reduction,
    # so results do not depend on the batch size.
    return np.einsum("md,dr->mr", x, basis)


def _lift(c: np.ndarray, basis: np.ndarray) -> np.ndarray:
    return np.einsum("mr,dr->md", c, basis)


def _sq_norm_rows(x: np.ndarray) -> np.ndarray:
    return np.einsum("md,md->m", x, x)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    w = np.exp(shifted)
    return w / w.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Gaussian formulas (batched, sigma already validated)
# ---------------------------------------------------------------------------

def _gaussian_denoise(spec: CompactSpectrum, xb: np.ndarray, sigma: float) -> np.ndarray:
    """mean + U diag[lam/(lam+sigma^2)] U^T (x - mean), in O(D r) per row."""
    out = np.broadcast_to(spec.mean, xb.shape).copy()
    if spec.rank:
        shrink = spec.eigenvalues / (spec.eigenvalues + sigma**2)
        c = _project(xb - spec.mean, spec.basis)
        out = out + _lift(c * shrink, spec.basis)
    return out


def _gaussian_log_density(spec: CompactSpectrum, xb: np.ndarray, sigma: float) -> np.ndarray:
    """log N(x; mean, sigma^2 I + Sigma) per row, via the spectral identities."""
    d = spec.dim
    diff = xb - spec.mean
    quad = _sq_norm_rows(diff)
    logdet = d * 2.0 * np.log(sigma)
    if spec.rank:
        shrink = spec.eigenvalues / (spec.eigenvalues + sigma**2)
        c = _project(diff, spec.basis)
        quad = quad - np.einsum("mr,r->m", c**2, shrink)
        logdet = (d - spec.rank) * 2.0 * np.log(sigma) + np.sum(
            np.log(spec.eigenvalues + sigma**2)
        )
    return -0.5 * (d * np.log(2.0 * np.pi) + logdet + quad / sigma**2)


# ---------------------------------------------------------------------------
# Model classes
# ---------------------------------------------------------------------------

class ScoreModel:
    """Evaluable denoiser field and the score it implies. Immutable and shareable.

    Subclasses define ``denoise``; ``score`` follows from it here and
    nowhere else.
    """

    variant = "base"
    dim: int

    def denoise(self, x, sigma):
        raise NotImplementedError

    def score(self, x, sigma):
        """s(x, sigma) = (D(x, sigma) - x) / sigma^2."""
        sigma = _check_sigma(sigma)
        x = np.asarray(x, dtype=np.float64)
        return (self.denoise(x, sigma) - x) / sigma**2


@dataclass(frozen=True)
class IsotropicModel(ScoreModel):
    """All structure reduced to the data mean; D(x, sigma) = mean."""

    mean: np.ndarray
    variant = "isotropic"

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        mean.setflags(write=False)
        object.__setattr__(self, "mean", mean)

    @property
    def dim(self) -> int:
        return self.mean.size

    def denoise(self, x, sigma):
        _check_sigma(sigma)
        xb, single = _as_batch(x, self.dim)
        out = np.broadcast_to(self.mean, xb.shape).copy()
        return out[0] if single else out


@dataclass(frozen=True)
class GaussianModel(ScoreModel):
    """Single Gaussian with a compact (possibly low-rank) spectrum."""

    spectrum: CompactSpectrum
    variant = "gaussian"

    @property
    def dim(self) -> int:
        return self.spectrum.dim

    @classmethod
    def from_cloud(cls, cloud: PointCloud, max_rank: int | None = None) -> "GaussianModel":
        return cls(spectrum_from_cloud(cloud, max_rank))

    def denoise(self, x, sigma):
        sigma = _check_sigma(sigma)
        xb, single = _as_batch(x, self.dim)
        out = _gaussian_denoise(self.spectrum, xb, sigma)
        return out[0] if single else out


@dataclass(frozen=True)
class GaussianComponent:
    """One mixture mode: positive weight plus its compact spectrum."""

    weight: float
    spectrum: CompactSpectrum

    def __post_init__(self):
        if not (self.weight > 0):
            raise InvalidData(f"component weight must be > 0, got {self.weight}")


class _PosteriorMixture(ScoreModel):
    """A mixture whose denoiser is ``sum_i w_i(x, sigma) D_i(x, sigma)``.

    A variant supplies ``_log_weights`` (unnormalised log posteriors, one
    column per component) and ``_combine`` (the weighted sum of component
    denoisers). Rows run in chunks of ``_CHUNK``; the softmax is taken in
    log space with max subtraction.
    """

    n_components: int

    def _per_chunk(self, x, sigma, width: int, step):
        sigma = _check_sigma(sigma)
        xb, single = _as_batch(x, self.dim)
        out = np.empty((xb.shape[0], width))
        for lo in range(0, xb.shape[0], _CHUNK):
            chunk = xb[lo : lo + _CHUNK]
            w = _softmax_rows(self._log_weights(chunk, sigma))
            out[lo : lo + _CHUNK] = step(w, chunk, sigma)
        return out[0] if single else out

    def denoise(self, x, sigma):
        return self._per_chunk(x, sigma, self.dim, self._combine)

    def posterior_weights(self, x, sigma):
        """Posterior component weights w_i(x, sigma), rows summing to 1."""
        return self._per_chunk(x, sigma, self.n_components, lambda w, xb, sigma: w)


@dataclass(frozen=True)
class MixtureModel(_PosteriorMixture):
    """Gaussian mixture; weights must sum to 1 within 1e-12."""

    components: tuple[GaussianComponent, ...]
    variant = "mixture"

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise EmptyInput("mixture needs at least one component")
        total = sum(c.weight for c in comps)
        if abs(total - 1.0) > 1e-12:
            raise InvalidData(f"mixture weights sum to {total}, expected 1")
        dims = {c.spectrum.dim for c in comps}
        if len(dims) != 1:
            raise ShapeError(f"components disagree on dimension: {sorted(dims)}")
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return self.components[0].spectrum.dim

    @property
    def n_components(self) -> int:
        return len(self.components)

    def _log_weights(self, xb, sigma):
        # log pi_i + log N(x; mu_i, sigma^2 I + Sigma_i)
        return np.column_stack([
            np.log(c.weight) + _gaussian_log_density(c.spectrum, xb, sigma)
            for c in self.components
        ])

    def _combine(self, w, xb, sigma):
        out = np.zeros_like(xb)
        for i, c in enumerate(self.components):
            out += w[:, i : i + 1] * _gaussian_denoise(c.spectrum, xb, sigma)
        return out


@dataclass(frozen=True)
class DeltaMixtureModel(_PosteriorMixture):
    """Exact score of the training set: equal point masses at the samples.

    Each component's denoiser is its training point, so the denoiser is the
    softmax-weighted combination of training points (their convex hull).
    """

    cloud: PointCloud
    variant = "delta"

    def __post_init__(self):
        cloud = self.cloud
        if not isinstance(cloud, PointCloud):
            cloud = PointCloud(np.asarray(cloud))
            object.__setattr__(self, "cloud", cloud)

    @property
    def dim(self) -> int:
        return self.cloud.dim

    @property
    def n_components(self) -> int:
        return self.cloud.n_samples

    def _log_weights(self, xb, sigma):
        # -|x - y_i|^2 / (2 sigma^2), computed from explicit differences: the
        # expanded |x|^2 - 2 x.y + |y|^2 form cancels catastrophically when the
        # softmax gaps matter most. The training points stream through in
        # blocks of at most _BLOCK difference elements, so memory is O(rows N)
        # and every |x - y_i|^2 is the same reduction over D as on the whole
        # (rows, N, D) tensor, bit for bit.
        y = self.cloud.data
        step = max(1, _BLOCK // (xb.shape[0] * y.shape[1]))
        d2 = np.empty((xb.shape[0], y.shape[0]))
        for lo in range(0, y.shape[0], step):
            diff = xb[:, None, :] - y[None, lo : lo + step, :]
            d2[:, lo : lo + step] = np.einsum("mnd,mnd->mn", diff, diff)
        with np.errstate(over="ignore"):
            logits = -d2 / (2.0 * sigma**2)
            # Far from the cloud at tiny sigma every logit of a row can
            # overflow to -inf, and the softmax would give 0/0. Measured from
            # the nearest point, the row keeps its limit: one-hot weights,
            # split evenly on exact ties.
            lost = logits.max(axis=1) == -np.inf
            if lost.any():
                near = d2[lost] - d2[lost].min(axis=1, keepdims=True)
                logits[lost] = -near / (2.0 * sigma**2)
        return logits

    def _combine(self, w, xb, sigma):
        return np.einsum("mn,nd->md", w, self.cloud.data)


# ---------------------------------------------------------------------------
# Function forms
# ---------------------------------------------------------------------------

def _expect(model, cls: type, fn: str):
    if not isinstance(model, cls):
        raise WrongVariant(f"{fn} needs a mixture variant, got {getattr(model, 'variant', type(model))!r}")
    return model


def iso_score(mean, x, sigma):
    """Isotropic score (mean - x) / sigma^2; the covariance-free model."""
    return IsotropicModel(mean).score(x, sigma)


def gaussian_score(spec: CompactSpectrum, x, sigma):
    """Score of N(mean, Sigma + sigma^2 I): (I - U diag[lam/(lam+sigma^2)] U^T)(mean - x)/sigma^2."""
    return GaussianModel(spec).score(x, sigma)


def gaussian_denoise(spec: CompactSpectrum, x, sigma):
    """Optimal denoiser mean + U diag[lam/(lam+sigma^2)] U^T (x - mean)."""
    return GaussianModel(spec).denoise(x, sigma)


def mixture_weights(model: ScoreModel, x, sigma):
    """Posterior component weights w_i(x, sigma), rows summing to 1.

    Mixture: softmax over ``log pi_i + log N(x; mu_i, sigma^2 I + Sigma_i)``.
    Delta mixture: softmax over ``-|x - y_i|^2 / (2 sigma^2)``.
    """
    return _expect(model, _PosteriorMixture, "mixture_weights").posterior_weights(x, sigma)


def gmm_score(model: MixtureModel, x, sigma):
    """Gaussian-mixture score; K = 1 equals gaussian_score."""
    return _expect(model, MixtureModel, "gmm_score").score(x, sigma)


def gmm_denoise(model: MixtureModel, x, sigma):
    """Weighted sum of per-component optimal denoisers."""
    return _expect(model, MixtureModel, "gmm_denoise").denoise(x, sigma)


def delta_score(cloud: PointCloud, x, sigma):
    """Exact score of a finite point cloud, (1/sigma^2)(sum_i w_i y_i - x)."""
    return DeltaMixtureModel(cloud).score(x, sigma)


def delta_denoise(cloud: PointCloud, x, sigma):
    """Softmax-weighted combination of training points (their convex hull)."""
    return DeltaMixtureModel(cloud).denoise(x, sigma)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def model_to_json(model: ScoreModel, cloud_path: str | None = None) -> dict:
    """JSON form of a model. Delta mixtures serialize by reference to a
    point-cloud file path, which must be supplied."""
    if isinstance(model, IsotropicModel):
        return {"kind": "isotropic", "mean": model.mean.tolist()}
    if isinstance(model, GaussianModel):
        return {"kind": "gaussian", **spectrum_to_json(model.spectrum)}
    if isinstance(model, MixtureModel):
        return {
            "kind": "mixture",
            "components": [
                {"weight": c.weight, **spectrum_to_json(c.spectrum)}
                for c in model.components
            ],
        }
    if isinstance(model, DeltaMixtureModel):
        if cloud_path is None:
            raise InvalidData("delta models serialize by cloud file reference; pass cloud_path")
        return {"kind": "delta", "cloud_path": str(cloud_path)}
    raise WrongVariant(f"cannot serialize model variant {model.variant!r}")


def model_from_json(obj: dict, base_dir: str | None = None) -> ScoreModel:
    kind = obj.get("kind", "mixture" if "components" in obj else None)
    if kind == "isotropic":
        return IsotropicModel(np.asarray(obj["mean"], dtype=np.float64))
    if kind == "gaussian":
        return GaussianModel(spectrum_from_json(obj))
    if kind == "mixture":
        comps = tuple(
            GaussianComponent(float(c["weight"]), spectrum_from_json(c))
            for c in obj["components"]
        )
        return MixtureModel(comps)
    if kind == "delta":
        path = obj["cloud_path"]
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        return DeltaMixtureModel(load_cloud(path))
    raise WrongVariant(f"unknown model kind {kind!r}")


def model_fingerprint(model: ScoreModel) -> str:
    """Stable sha256 over the model's defining arrays, for output sidecars."""
    h = hashlib.sha256(model.variant.encode())
    if isinstance(model, IsotropicModel):
        h.update(model.mean.tobytes())
    elif isinstance(model, GaussianModel):
        for arr in (model.spectrum.mean, model.spectrum.eigenvalues, model.spectrum.basis):
            h.update(np.ascontiguousarray(arr).tobytes())
    elif isinstance(model, MixtureModel):
        for c in model.components:
            h.update(np.float64(c.weight).tobytes())
            for arr in (c.spectrum.mean, c.spectrum.eigenvalues, c.spectrum.basis):
                h.update(np.ascontiguousarray(arr).tobytes())
    elif isinstance(model, DeltaMixtureModel):
        h.update(model.cloud.data.tobytes())
    return h.hexdigest()


def save_model(model: ScoreModel, path, cloud_path: str | None = None) -> None:
    with open(path, "w") as f:
        json.dump(model_to_json(model, cloud_path), f)


def load_model(path) -> ScoreModel:
    with open(path) as f:
        obj = json.load(f)
    return model_from_json(obj, base_dir=os.path.dirname(os.path.abspath(path)))
