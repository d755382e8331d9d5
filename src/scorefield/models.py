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
blocks, so a batch of M rows needs O(M N) memory, never an (M, N, D) tensor.
The Gaussian mixture keeps its components stacked (means, and bases and
eigenvalues per group of equal rank) and evaluates all K of them at once on
chunks of ``max(1, _BLOCK // (K D))`` rows, the same element budget. A row
whose every logit underflows to -inf keeps its limit: delta weights go
one-hot on the nearest training point, split evenly on exact ties, and
mixture logits are retaken relative to the row's smallest quadratic form.
A mixture row whose quadratic form overflows near the top of the sigma
domain retakes it on ``x/sigma`` and ``mu/sigma``.

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

# Row chunk for batched delta-mixture evaluations; bounds the (chunk, N)
# logits without changing per-row results.
_CHUNK = 256

# Element budget (512 KiB) of the delta kernel's (rows, block, D) difference
# buffer, whose block of training points is sized to fit it, and of the
# Gaussian mixture's stacked (K, rows, D) temporaries, whose chunk of rows is.
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


def _stacked(arrays) -> np.ndarray:
    out = np.ascontiguousarray(np.stack(arrays), dtype=np.float64)
    out.setflags(write=False)
    return out


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

    A variant supplies ``_evaluate`` (unnormalised log posteriors, one column
    per component, and whatever of their work ``_combine`` can reuse),
    ``_combine`` (the weighted sum of component denoisers) and
    ``_chunk_rows`` (how many rows one chunk evaluates at once). The softmax
    is taken in log space with max subtraction.
    """

    n_components: int
    _chunk_rows: int

    def _per_chunk(self, x, sigma, width: int, step):
        sigma = _check_sigma(sigma)
        xb, single = _as_batch(x, self.dim)
        out = np.empty((xb.shape[0], width))
        rows = self._chunk_rows
        for lo in range(0, xb.shape[0], rows):
            chunk = xb[lo : lo + rows]
            logits, work = self._evaluate(chunk, sigma)
            out[lo : lo + rows] = step(_softmax_rows(logits), work)
        return out[0] if single else out

    def denoise(self, x, sigma):
        return self._per_chunk(x, sigma, self.dim, self._combine)

    def posterior_weights(self, x, sigma):
        """Posterior component weights w_i(x, sigma), rows summing to 1."""
        return self._per_chunk(x, sigma, self.n_components, lambda w, work: w)


@dataclass(frozen=True)
class MixtureModel(_PosteriorMixture):
    """Gaussian mixture; weights must sum to 1 within 1e-12.

    ``components`` is the public form. Construction also stacks it into
    read-only arrays that every evaluation shares: log-weights (K,), means
    (K, D) and, for each group of components of equal rank r, bases
    (k, D, r) and eigenvalues (k, r). A chunk of rows evaluates all K
    components at once on a (K, rows, D) difference array, with each output
    element the same reduction as a per-component evaluation, bit for bit.
    A chunk holds ``max(1, _BLOCK // (K D))`` rows, so those temporaries
    keep the delta kernel's element budget.

    Near the top of the sigma domain, ``|x - mu|^2`` overflows for
    ``x ~ sigma z``; such rows retake their quadratic forms on ``x/sigma``
    and ``mu/sigma``, which gives ``quad/sigma^2`` without overflow.
    """

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
        # Built here, never lazily: models are shared across threads.
        ranks = np.array([c.spectrum.rank for c in comps])
        groups = []
        for r in np.unique(ranks):
            idx = np.flatnonzero(ranks == r)
            whole = idx[-1] - idx[0] + 1 == idx.size
            groups.append((
                slice(idx[0], idx[-1] + 1) if whole else idx,
                _stacked([comps[i].spectrum.basis for i in idx]),
                _stacked([comps[i].spectrum.eigenvalues for i in idx]),
            ))
        object.__setattr__(self, "_log_pi", _stacked([np.log(c.weight) for c in comps]))
        object.__setattr__(self, "_means", _stacked([c.spectrum.mean for c in comps]))
        object.__setattr__(self, "_groups", tuple(groups))
        object.__setattr__(self, "_chunk_rows", max(1, _BLOCK // (len(comps) * self.dim)))

    @property
    def dim(self) -> int:
        return self.components[0].spectrum.dim

    @property
    def n_components(self) -> int:
        return len(self.components)

    def _forms(self, xb, means, sigma):
        """Quadratic forms ``|x - mu_i|^2 - sum_k lam_k/(lam_k + sigma^2) c_k^2``
        (K, rows), the (K, rows, D) differences, and each rank group's
        projections ``c = U_i^T (x - mu_i)`` with their shrink factors."""
        diff = xb[None, :, :] - means[:, None, :]
        quad = np.einsum("kmd,kmd->km", diff, diff)
        coords = []
        for sel, bases, eigs in self._groups:
            c = shrink = None
            if eigs.shape[1]:
                c = np.einsum("kmd,kdr->kmr", diff[sel], bases)
                shrink = eigs / (eigs + sigma**2)
                quad[sel] = quad[sel] - np.einsum("kmr,kr->km", c**2, shrink)
            coords.append((c, shrink))
        return quad, diff, coords

    def _evaluate(self, xb, sigma):
        # log pi_i + log N(x; mu_i, sigma^2 I + Sigma_i)
        with np.errstate(over="ignore", invalid="ignore"):
            quad, diff, coords = self._forms(xb, self._means, sigma)
            scaled = quad / sigma**2
        if not np.isfinite(quad).all():
            # Near the top of the sigma domain |x - mu|^2 overflows for
            # x ~ sigma z. Such rows retake their forms on x/sigma and
            # mu/sigma, which is quad/sigma^2 without the overflow.
            big = ~np.isfinite(quad).all(axis=0)
            scaled[:, big] = self._forms(xb[big] / sigma, self._means / sigma, sigma)[0]
        d = self.dim
        logdet = np.empty(self.n_components)
        for sel, _, eigs in self._groups:
            logdet[sel] = (d - eigs.shape[1]) * 2.0 * np.log(sigma) + np.sum(
                np.log(eigs + sigma**2), axis=1)
        const = d * np.log(2.0 * np.pi)
        with np.errstate(over="ignore"):
            # C-contiguous (rows, K), as a column stack gives: on a transposed
            # view the softmax's row sums would add in another order.
            logits = np.ascontiguousarray(
                (self._log_pi[:, None] - 0.5 * (const + logdet[:, None] + scaled)).T)
            # Far from every mean at tiny sigma all logits of a row can
            # overflow to -inf, and the softmax would give 0/0. Dropping the
            # terms shared by every component of the row (the constant and
            # the row's smallest quadratic form) keeps its limit.
            lost = logits.max(axis=1) == -np.inf
            if lost.any():
                q = quad[:, lost].T
                near = q - q.min(axis=1, keepdims=True)
                logits[lost] = self._log_pi - 0.5 * (logdet + near / sigma**2)
        return logits, (diff, coords)

    def _log_weights(self, xb, sigma):
        return self._evaluate(xb, sigma)[0]

    def _combine(self, w, work):
        # Component denoisers mu_i + U_i diag(shrink) c, written over the
        # chunk's differences, which are no longer needed.
        den, coords = work
        for (sel, bases, _), (c, shrink) in zip(self._groups, coords):
            if c is None:
                den[sel] = self._means[sel, None, :]
            else:
                lift = np.einsum("kmr,kdr->kmd", c * shrink[:, None, :], bases)
                den[sel] = self._means[sel, None, :] + lift
        return np.einsum("mk,kmd->md", w, den)


@dataclass(frozen=True)
class DeltaMixtureModel(_PosteriorMixture):
    """Exact score of the training set: equal point masses at the samples.

    Each component's denoiser is its training point, so the denoiser is the
    softmax-weighted combination of training points (their convex hull).
    """

    cloud: PointCloud
    variant = "delta"
    _chunk_rows = _CHUNK

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

    def _evaluate(self, xb, sigma):
        return self._log_weights(xb, sigma), None

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

    def _combine(self, w, work):
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
