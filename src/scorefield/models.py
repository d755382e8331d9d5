"""Idealized score models: isotropic, Gaussian, Gaussian mixture, delta mixture.

Each model defines only its optimal denoiser ``D(x, sigma)``; the score of
the noise-corrupted distribution follows from it once, in ``ScoreModel``, as
``s(x, sigma) = (D(x, sigma) - x) / sigma^2``. The two mixtures share one
posterior-weight loop: their denoiser is ``sum_i w_i(x, sigma) D_i(x, sigma)``,
where ``D_i`` is a Gaussian component's denoiser or, for the delta mixture,
the training point ``y_i``. All operations accept a single finite query
point of shape (D,) or a batch of shape (M, D); every output row is a pure
function of its input row, so batched and single-point calls agree bitwise.
Noise levels must satisfy ``1.49e-154 <= sigma <= 1.34e154`` (``sigma^2`` a
normal double).

Mixture weights are always computed in log space with max subtraction; the
softmax of Gaussian log-densities otherwise underflows catastrophically at
small sigma. The delta mixture streams over its training points in fixed-size
blocks, never an (M, N, D) tensor. A chunk of rows holds one (rows, N) array,
which its squared distances, logits and weights overwrite in place, the
weights' (N, rows) copy for the combine, and one (rows, block, D) difference
buffer that every block of the call reuses. The combine takes the weights in
that (N, rows) order, so one pass over the cloud serves a whole chunk of
rows, each output element still summed over the training points in order.
The Gaussian mixture keeps its components stacked (means, and bases and
eigenvalues per group of equal rank) and evaluates all K of them at once on
chunks of ``max(1, _BLOCK // (K D))`` rows, the same element budget. Both
mixtures share two limits, kept in one place: a row whose every logit
underflows to -inf is retaken relative to its smallest squared form
(one-hot on the nearest center, split evenly on exact ties), and a row
whose forms overflow near the top of the sigma domain retakes them on
``x/sigma`` against ``centers/sigma``.

Threads live in one place: a module-level pool of ``W - 1`` workers, W being
the usable CPU count, which ``_in_shares`` feeds. A mixture call splits its
rows into at most W contiguous shares, as many as keep every share at
``_SHARE`` = 2^17 difference elements (share rows x components x D) or more;
the caller works the first share and the pool the rest; k-means
(``gmmfit``) never splits. numpy's einsum and ufunc loops release the GIL,
so the shares run at once, and since every row is a pure function of its
input row, the output bits do not depend on W. A call too small for two
shares runs on the calling thread alone, and importing this module starts
no thread.

Gaussian log-densities never touch a D x D matrix: with the compact spectrum
``Sigma = U diag(lam) U^T``,

    log det(sigma^2 I + Sigma) = (D - r) log sigma^2 + sum_k log(lam_k + sigma^2)
    (x-mu)^T (sigma^2 I + Sigma)^-1 (x-mu)
        = (|x-mu|^2 - sum_k lam_k/(lam_k + sigma^2) c_k^2) / sigma^2

with ``c = U^T (x - mu)``. The terms in sigma alone are memoized per model
and sigma (``_memoized``): a sampler comes back to the same few noise levels.
"""

from __future__ import annotations

import contextvars
import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (EmptyInput, InvalidData, InvalidInput, InvalidNoise, ScoreFieldError,
                     ShapeError, WrongVariant)
from .spectrum import (
    CompactSpectrum,
    PointCloud,
    _replacing,
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
    "model_fingerprint",
    "model_to_json",
    "model_from_json",
    "save_model",
    "load_model",
]

# Row chunk for batched delta-mixture evaluations; bounds the (chunk, N)
# logits without changing per-row results.
_CHUNK = 256

# Element budget (512 KiB) of the distance kernel's (rows, block, D)
# difference buffer, whose block of points is sized to fit it, and of the
# Gaussian mixture's stacked (K, rows, D) temporaries, whose chunk of rows is.
_BLOCK = 1 << 16

# Usable CPUs, the difference elements a share of a posterior-mixture call
# must carry, and the pool that works every share but the caller's (see the
# module docstring). The pool's threads start at its first task.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_SHARE = 1 << 17
_POOL = ThreadPoolExecutor(max_workers=max(1, _CPUS - 1), thread_name_prefix="scorefield")

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


def _in_shares(m: int, per_row: int, work) -> None:
    """Run ``work(lo, hi)`` over rows 0:m in at most ``_CPUS`` contiguous
    shares, as many as keep every share at ``_SHARE`` elements (``per_row``
    each) or more. The caller works the first share and the pool the rest.

    ``work`` must write each row as a pure function of its input row, so the
    bits do not depend on the shares. Pool tasks run in a copy of the
    caller's context, which carries its np.errstate, and never submit to the
    pool themselves. A call of fewer than two rows is one share and never
    reads the gate.
    """
    shares = min(_CPUS, m // -(-_SHARE // per_row)) if m > 1 else 1
    if shares < 2:
        return work(0, m)
    tasks = [_POOL.submit(contextvars.copy_context().run, work,
                          m * i // shares, m * (i + 1) // shares) for i in range(1, shares)]
    try:
        work(0, m // shares)
    finally:
        for task in tasks:
            task.result()


def _sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # |x_m - y_n|^2 (M, N), the rows of x against the points of y: the one
    # squared-distance kernel, of the delta score and k-means. Explicit
    # differences, since the expanded |x|^2 - 2 x.y + |y|^2 form cancels
    # catastrophically when the softmax gaps matter most. The points stream
    # through one (M, block, D) buffer of at most _BLOCK elements, and every
    # entry is the same reduction over D as on the whole (M, N, D) tensor,
    # bit for bit, whatever M is.
    step = max(1, _BLOCK // (x.shape[0] * y.shape[1]))
    d2 = np.empty((x.shape[0], y.shape[0]))
    buf = np.empty((x.shape[0], min(step, y.shape[0]), y.shape[1]))
    for lo in range(0, y.shape[0], step):
        blk = y[lo : lo + step]
        diff = np.subtract(x[:, None, :], blk[None], out=buf[:, : blk.shape[0]])
        np.einsum("mnd,mnd->mn", diff, diff, out=d2[:, lo : lo + step])
    return d2


def _memoized(memo: dict, sigma: float, build) -> tuple:
    # ``build(sigma)``'s arrays, read-only, kept in a model's memo per checked
    # sigma (racing threads store equal values); past _BLOCK elements it empties.
    if (consts := memo.get(sigma)) is None:
        consts = build(sigma)
        for a in consts:
            a.setflags(write=False)
        memo[sigma] = consts
        if len(memo) * sum(a.size for a in consts) > _BLOCK:
            memo.clear()
    return consts


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
    if not np.isfinite(x).all():
        row = int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])
        raise InvalidInput(f"query point row {row} is not finite")
    return x, single


def _softmax_rows(logits: np.ndarray, top: np.ndarray) -> np.ndarray:
    # In place: minus the row maxima ``top``, exp and divide each overwrite
    # ``logits``, a fresh C-contiguous (rows, K) array per chunk, returned.
    np.subtract(logits, top, out=logits)
    np.exp(logits, out=logits)
    np.divide(logits, logits.sum(axis=1, keepdims=True), out=logits)
    return logits


# ---------------------------------------------------------------------------
# Model classes
# ---------------------------------------------------------------------------

class ScoreModel:
    """Evaluable denoiser field and the score it implies. Immutable and shareable.

    Subclasses define ``denoise``; ``score`` follows from it here and
    nowhere else. Arrays are built at construction and read-only; so are the
    pure sigma-only values in a Gaussian's or mixture's bounded, thread-safe memo.
    """

    variant = "base"
    dim: int

    def denoise(self, x, sigma):
        raise NotImplementedError

    def score(self, x, sigma):
        """s(x, sigma) = (D(x, sigma) - x) / sigma^2; ``denoise`` validates x and sigma."""
        return (self.denoise(x, sigma) - np.asarray(x, dtype=np.float64)) / float(sigma)**2


@dataclass(frozen=True)
class GaussianModel(ScoreModel):
    """Single Gaussian with a compact (possibly low-rank) spectrum."""

    spectrum: CompactSpectrum
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    variant = "gaussian"

    @property
    def dim(self) -> int:
        return self.spectrum.dim

    @classmethod
    def from_cloud(cls, cloud: PointCloud, max_rank: int | None = None) -> "GaussianModel":
        return GaussianModel(spectrum_from_cloud(cloud, max_rank))

    def denoise(self, x, sigma):
        """mean + U diag[lam/(lam+sigma^2)] U^T (x - mean), in O(D r) per row."""
        sigma = _check_sigma(sigma)
        xb, single = _as_batch(x, self.dim)
        spec = self.spectrum
        if not spec.rank:
            out = np.broadcast_to(spec.mean, xb.shape).copy()
        else:
            # einsum keeps each output element an independent contiguous
            # reduction, so results do not depend on the batch size.
            eigs = spec.eigenvalues
            (shrink,) = _memoized(self._memo, sigma, lambda s: (eigs / (eigs + s**2),))
            c = np.einsum("md,dr->mr", xb - spec.mean, spec.basis)
            out = spec.mean + np.einsum("mr,dr->md", np.multiply(c, shrink, out=c), spec.basis)
        return out[0] if single else out


class IsotropicModel(GaussianModel):
    """The rank-0 Gaussian: all structure reduced to the mean, D(x, sigma) = mean."""

    variant = "isotropic"

    def __init__(self, mean):
        super().__init__(CompactSpectrum(mean, np.empty((np.size(mean), 0)), np.empty(0)))

    @property
    def mean(self) -> np.ndarray:
        return self.spectrum.mean


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

    A variant supplies ``_centers`` (K, D), ``_forms`` (the squared forms of
    rows against centers as a C-contiguous (rows, K) array, and whatever of
    their work ``_combine`` can reuse), ``_logits`` (log posteriors from the
    forms divided by a scale, possibly written over them), ``_combine`` (the
    weighted sum of component denoisers, written into the chunk's rows of
    the call's output) and ``_chunk_rows`` (rows per chunk).

    Both limits live here. A row with a form that is not finite (near the
    top of the sigma domain, for ``x ~ sigma z``) retakes its forms on
    ``x/sigma`` against ``centers/sigma``, at scale 1 instead of sigma^2. A
    row whose logits are all -inf (far from every center at tiny sigma)
    retakes them relative to its smallest form, which keeps the limit:
    one-hot on the nearest center, split evenly on exact ties. Forms are
    row-local, so the other rows keep their bits. A row that overflows on
    ``x/sigma`` too gets NaN, without a warning, for the caller's finite
    check. The softmax is taken in log space with max subtraction, over the
    chunk's logits in place.
    """

    n_components: int
    _chunk_rows: int

    def _evaluate(self, xb, sigma):
        """Log posteriors (rows, K) of rows ``xb``, their row maxima and the forms' work."""
        with np.errstate(over="ignore", invalid="ignore"):
            forms, work = self._forms(xb, self._centers, sigma)
            # Before _logits overwrites them; the row mask only if needed.
            big = None if np.isfinite(forms).all() else ~np.isfinite(forms).all(axis=1)
            logits, top = self._kept_logits(forms, xb, self._centers, sigma, sigma**2)
            if big is not None:
                xs, cs = xb[big] / sigma, self._centers / sigma
                logits[big], top[big] = self._kept_logits(
                    self._forms(xs, cs, sigma)[0], xs, cs, sigma, 1.0)
        return logits, top, work

    def _kept_logits(self, forms, xb, centers, sigma, scale):
        # The logits of forms at one scale, lost rows retaken, and their row maxima.
        logits = self._logits(forms, sigma, scale)
        top = logits.max(axis=1, keepdims=True)
        lost = top[:, 0] == -np.inf
        if np.count_nonzero(lost):
            near = self._forms(xb[lost], centers, sigma)[0]
            near -= near.min(axis=1, keepdims=True)
            logits[lost] = self._logits(near, sigma, scale)
            top[lost] = logits[lost].max(axis=1, keepdims=True)
        return logits, top

    def _per_chunk(self, x, sigma, width: int, step):
        sigma = _check_sigma(sigma)
        xb, single = _as_batch(x, self.dim)
        out = np.empty((xb.shape[0], width))

        def fill(lo: int, hi: int) -> None:  # rows lo:hi, a chunk at a time
            for a in range(lo, hi, self._chunk_rows):
                b = min(a + self._chunk_rows, hi)
                logits, top, work = self._evaluate(xb[a:b], sigma)
                step(_softmax_rows(logits, top), work, out[a:b])

        _in_shares(xb.shape[0], self.n_components * xb.shape[1], fill)
        return out[0] if single else out

    def denoise(self, x, sigma):
        return self._per_chunk(x, sigma, self.dim, self._combine)

    def posterior_weights(self, x, sigma):
        """Posterior component weights w_i(x, sigma), rows summing to 1."""
        return self._per_chunk(x, sigma, self.n_components, lambda w, work, out: np.copyto(out, w))


@dataclass(frozen=True)
class MixtureModel(_PosteriorMixture):
    """Gaussian mixture; weights must sum to 1 within 1e-12.

    ``components`` is the public form. Construction also stacks it into
    read-only arrays that every evaluation shares: log-weights (K,), means
    (K, D), the centers of its forms, and, for each group of components of
    equal rank r, bases (k, D, r) and eigenvalues (k, r). A chunk of rows
    evaluates all K components at once on a (K, rows, D) difference array,
    with each output element the same reduction as a per-component
    evaluation, bit for bit. A chunk holds ``max(1, _BLOCK // (K D))``
    rows, so those temporaries keep the delta kernel's element budget.
    """

    components: tuple[GaussianComponent, ...]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
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
        object.__setattr__(self, "_centers", _stacked([c.spectrum.mean for c in comps]))
        object.__setattr__(self, "_groups", tuple(groups))
        object.__setattr__(self, "_chunk_rows", max(1, _BLOCK // (len(comps) * self.dim)))

    @property
    def dim(self) -> int:
        return self.components[0].spectrum.dim

    @property
    def n_components(self) -> int:
        return len(self.components)

    def _consts(self, sigma):
        # Memoized: each rank group's lam/(lam + sigma^2), then d log(2 pi) + log det.
        def build(sigma):
            d, logdet = self.dim, np.empty(self.n_components)
            for sel, _, eigs in self._groups:
                logdet[sel] = (d - eigs.shape[1]) * 2.0 * np.log(sigma) + np.sum(
                    np.log(eigs + sigma**2), axis=1)
            return (*(eigs / (eigs + sigma**2) for _, _, eigs in self._groups),
                    d * np.log(2.0 * np.pi) + logdet)
        return _memoized(self._memo, sigma, build)

    def _forms(self, xb, means, sigma):
        """Quadratic forms ``|x - mu_i|^2 - sum_k lam_k/(lam_k + sigma^2) c_k^2``
        (rows, K), the (K, rows, D) differences, and each rank group's
        projections ``c = U_i^T (x - mu_i)`` with their shrink factors."""
        diff = xb[None, :, :] - means[:, None, :]
        quad = np.einsum("kmd,kmd->km", diff, diff)
        coords = []
        for (sel, bases, eigs), shrink in zip(self._groups, self._consts(sigma)):
            c = None
            if eigs.shape[1]:
                c = np.einsum("kmd,kdr->kmr", diff[sel], bases)
                quad[sel] -= np.einsum("kmr,kr->km", c**2, shrink)
            coords.append((c, shrink))
        # C-contiguous, as a column stack gives: on a transposed view the
        # logits, and so the softmax's row sums, would take another order.
        return np.ascontiguousarray(quad.T), (diff, coords)

    def _logits(self, forms, sigma, scale):
        # log pi_i + log N(x; mu_i, sigma^2 I + Sigma_i), written over the forms
        np.divide(forms, scale, out=forms)
        np.add(self._consts(sigma)[-1], forms, out=forms)
        np.multiply(forms, 0.5, out=forms)
        return np.subtract(self._log_pi, forms, out=forms)

    def _combine(self, w, work, out=None):
        # Component denoisers mu_i + U_i diag(shrink) c, written over the
        # chunk's differences, which are no longer needed.
        den, coords = work
        for (sel, bases, _), (c, shrink) in zip(self._groups, coords):
            if c is None:
                den[sel] = self._centers[sel, None, :]
            else:
                lift = np.einsum("kmr,kdr->kmd", np.multiply(c, shrink[:, None, :], out=c), bases)
                den[sel] = np.add(self._centers[sel, None, :], lift, out=lift)
        return np.einsum("mk,kmd->md", w, den, out=out)


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
        object.__setattr__(self, "_centers", cloud.data)

    @property
    def dim(self) -> int:
        return self.cloud.dim

    @property
    def n_components(self) -> int:
        return self.cloud.n_samples

    def _forms(self, xb, points, sigma):
        return _sq_dists(xb, points), None

    def _logits(self, forms, sigma, scale):
        # -|x - y_i|^2 / (2 scale), written over the distances: IEEE
        # division is sign-symmetric, so d2 / -(2 scale) has the bits of
        # -d2 / (2 scale).
        return np.divide(forms, -(2.0 * scale), out=forms)

    def _combine(self, w, work, out=None):
        # With the weights in C-contiguous (N, rows) order, one pass over the
        # cloud serves every row of the chunk, and each output element is
        # still the same sequential sum over the training points. The softmax
        # stays on the (rows, N) layout, since its row sums must keep their
        # order. A one-column cloud keeps that layout here too: einsum folds
        # the unit axis and would sum a lone row in another order.
        y = self.cloud.data
        if y.shape[1] == 1:
            return np.einsum("mn,nd->md", w, y, out=out)
        return np.einsum("nm,nd->md", np.ascontiguousarray(w.T), y, out=out)


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
    if not isinstance(obj, dict):
        raise InvalidData(f"a model must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind", "mixture" if "components" in obj else None)
    if kind == "isotropic":
        return IsotropicModel(np.asarray(obj["mean"], dtype=np.float64))
    if kind == "gaussian":
        return GaussianModel(spectrum_from_json(obj))
    if kind == "mixture":
        comps = obj["components"]
        if not (isinstance(comps, list) and all(isinstance(c, dict) for c in comps)):
            raise InvalidData("mixture components must be a list of JSON objects")
        return MixtureModel(tuple(
            GaussianComponent(float(c["weight"]), spectrum_from_json(c)) for c in comps))
    if kind == "delta":
        path = obj["cloud_path"]
        if not isinstance(path, str):
            raise InvalidData(f"cloud_path must be a string, got {type(path).__name__}")
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        return DeltaMixtureModel(load_cloud(path))
    raise WrongVariant(f"unknown model kind {kind!r}")


def model_fingerprint(model: ScoreModel) -> str:
    """Stable sha256 over the model's defining arrays, for output sidecars."""
    h = hashlib.sha256(model.variant.encode())
    if isinstance(model, GaussianModel):
        for arr in (model.spectrum.mean, model.spectrum.eigenvalues, model.spectrum.basis):
            h.update(np.ascontiguousarray(arr).tobytes())
    elif isinstance(model, MixtureModel):
        for c in model.components:
            h.update(np.float64(c.weight).tobytes())
            for arr in (c.spectrum.mean, c.spectrum.eigenvalues, c.spectrum.basis):
                h.update(np.ascontiguousarray(arr).tobytes())
    elif isinstance(model, DeltaMixtureModel):
        h.update(model.cloud.data)  # the contiguous buffer, not a copy
    return h.hexdigest()


def save_model(model: ScoreModel, path, cloud_path: str | None = None) -> None:
    with _replacing(path) as f:
        json.dump(model_to_json(model, cloud_path), f)


def load_model(path) -> ScoreModel:
    """Read a model JSON file; a fault in its content raises an error naming ``path``."""
    with open(path) as f:
        try:
            return model_from_json(json.load(f), base_dir=os.path.dirname(os.path.abspath(path)))
        except ScoreFieldError as exc:
            raise type(exc)(f"{path}: {exc}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidData(f"{path}: malformed model, {type(exc).__name__}: {exc}") from exc
