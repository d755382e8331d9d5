"""Point clouds and compact (possibly low-rank) covariance spectra.

Every idealized score formula in this library consumes a ``CompactSpectrum``:
a mean vector plus the rank-r eigendecomposition ``Sigma = U diag(lam) U^T``
of a covariance matrix, with ``U`` a D x r semi-orthogonal basis and ``lam``
strictly positive, sorted descending. Degenerate data (a single point, a
zero covariance) yields an r = 0 spectrum, which stays valid downstream.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InvalidData, ShapeError

__all__ = [
    "PointCloud",
    "CompactSpectrum",
    "estimate_moments",
    "compact_spectrum",
    "spectrum_from_cloud",
    "manifold_split",
    "load_cloud_csv",
    "save_cloud_csv",
    "load_cloud_binary",
    "save_cloud_binary",
    "load_cloud",
    "save_cloud",
    "spectrum_to_json",
    "spectrum_from_json",
    "load_spectrum",
    "save_spectrum",
]

_BINARY_MAGIC = b"PCLD1"


def _frozen_array(a, dtype=np.float64):
    out = np.ascontiguousarray(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PointCloud:
    """N x D matrix of sample coordinates with optional integer labels.

    Parameters
    ----------
    data : array_like, shape (N, D)
        One sample per row. Must be finite, N >= 1 and D >= 1.
    labels : array_like of int, shape (N,), optional
        Per-sample class labels.
    """

    data: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ShapeError(f"cloud data must be 2-D (N, D), got shape {data.shape}")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise EmptyInput(f"cloud must have N >= 1 and D >= 1, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise InvalidData("cloud data contains non-finite entries")
        object.__setattr__(self, "data", _frozen_array(data))
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (data.shape[0],):
                raise ShapeError(
                    f"labels must have shape ({data.shape[0]},), got {labels.shape}"
                )
            object.__setattr__(self, "labels", _frozen_array(labels, dtype=np.int64))

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def subset(self, index) -> "PointCloud":
        """Cloud restricted to the given row indices (labels carried along)."""
        labels = None if self.labels is None else self.labels[index]
        return PointCloud(self.data[index], labels)


@dataclass(frozen=True)
class CompactSpectrum:
    """Mean plus rank-r eigendecomposition U diag(eigenvalues) U^T.

    Invariants checked at construction: U^T U = I within 1e-10, eigenvalues
    strictly positive and descending.
    """

    mean: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        basis = np.asarray(self.basis, dtype=np.float64)
        eigs = np.asarray(self.eigenvalues, dtype=np.float64).reshape(-1)
        if basis.ndim != 2:
            basis = basis.reshape(mean.size, -1)
        if basis.shape[0] != mean.size:
            raise ShapeError(
                f"basis rows ({basis.shape[0]}) must match mean length ({mean.size})"
            )
        if basis.shape[1] != eigs.size:
            raise ShapeError(
                f"basis columns ({basis.shape[1]}) must match eigenvalue count ({eigs.size})"
            )
        if eigs.size:
            if np.any(eigs <= 0):
                raise InvalidData("eigenvalues must be strictly positive")
            if np.any(np.diff(eigs) > 0):
                raise InvalidData("eigenvalues must be sorted descending")
            gram = basis.T @ basis
            if np.max(np.abs(gram - np.eye(eigs.size))) > 1e-10:
                raise InvalidData("basis is not semi-orthogonal within 1e-10")
        object.__setattr__(self, "mean", _frozen_array(mean))
        object.__setattr__(self, "basis", _frozen_array(basis))
        object.__setattr__(self, "eigenvalues", _frozen_array(eigs))

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def rank(self) -> int:
        return self.eigenvalues.size

    @property
    def total_variance(self) -> float:
        """tr Sigma, exact for the compact form (sum of retained eigenvalues)."""
        return float(self.eigenvalues.sum())

    def covariance(self) -> np.ndarray:
        """Materialize the dense D x D covariance U diag(lam) U^T."""
        return (self.basis * self.eigenvalues) @ self.basis.T


def estimate_moments(cloud: PointCloud) -> tuple[np.ndarray, np.ndarray]:
    """Population mean and covariance of a point cloud.

    Uses the two-pass formula: mean first, then the centered second moment
    ``(1/N) sum (y - mu)(y - mu)^T``, algebraically equal to
    ``(1/N) sum y y^T - mu mu^T`` but numerically stabler. The population
    (1/N) convention keeps tr Sigma identities exact.

    Returns
    -------
    mean : ndarray, shape (D,)
    covariance : ndarray, shape (D, D)
        Symmetrized; all-zero for a single-point cloud.
    """
    if not isinstance(cloud, PointCloud):
        cloud = PointCloud(np.asarray(cloud))
    y = cloud.data
    mean = y.mean(axis=0)
    centered = y - mean
    cov = centered.T @ centered / y.shape[0]
    cov = 0.5 * (cov + cov.T)
    return mean, cov


def _fix_column_signs(basis: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    if basis.size == 0:
        return basis
    idx = np.argmax(np.abs(basis), axis=0)
    signs = np.sign(basis[idx, np.arange(basis.shape[1])])
    signs[signs == 0] = 1.0
    return basis * signs


def compact_spectrum(
    mean: np.ndarray,
    covariance: np.ndarray,
    max_rank: int | None = None,
    eig_floor: float | None = None,
) -> CompactSpectrum:
    """Truncated eigendecomposition of a symmetric PSD covariance.

    Keeps eigenpairs with eigenvalue > ``eig_floor`` (default
    ``1e-10 * lambda_max``, stripping numerical-noise modes), sorted
    descending and truncated to ``max_rank``. Column signs are fixed so the
    largest-magnitude entry of each basis vector is positive.
    """
    mean = np.asarray(mean, dtype=np.float64).reshape(-1)
    cov = np.asarray(covariance, dtype=np.float64)
    if cov.shape != (mean.size, mean.size):
        raise ShapeError(f"covariance must be ({mean.size}, {mean.size}), got {cov.shape}")
    if not np.all(np.isfinite(cov)):
        raise InvalidData("covariance contains non-finite entries")
    scale = max(np.max(np.abs(cov)), 1.0)
    if np.max(np.abs(cov - cov.T)) > 1e-8 * scale:
        raise InvalidData("covariance is not symmetric within 1e-8")
    if max_rank is not None and max_rank < 0:
        raise InvalidData("max_rank must be >= 0")
    if eig_floor is not None and eig_floor < 0:
        raise InvalidData("eig_floor must be >= 0")

    eigvals, eigvecs = np.linalg.eigh(0.5 * (cov + cov.T))
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    return _truncate(mean, eigvecs, eigvals, max_rank, eig_floor)


def _truncate(mean, basis, eigvals, max_rank, eig_floor) -> CompactSpectrum:
    if eig_floor is None:
        lam_max = eigvals[0] if eigvals.size else 0.0
        eig_floor = 1e-10 * max(lam_max, 0.0)
    keep = eigvals > max(eig_floor, 0.0)
    basis = basis[:, keep]
    eigvals = eigvals[keep]
    if max_rank is not None:
        basis = basis[:, :max_rank]
        eigvals = eigvals[:max_rank]
    return CompactSpectrum(mean, _fix_column_signs(basis), eigvals)


def spectrum_from_cloud(
    cloud: PointCloud,
    max_rank: int | None = None,
    eig_floor: float | None = None,
) -> CompactSpectrum:
    """Compact spectrum of a cloud's population covariance.

    Routes through the N x N Gram matrix when N < D so the dense D x D
    covariance is never formed; both routes agree up to basis column signs,
    which are fixed deterministically. A single-point cloud yields r = 0.
    """
    if not isinstance(cloud, PointCloud):
        cloud = PointCloud(np.asarray(cloud))
    n, d = cloud.n_samples, cloud.dim
    if n >= d:
        mean, cov = estimate_moments(cloud)
        return compact_spectrum(mean, cov, max_rank, eig_floor)

    mean = cloud.data.mean(axis=0)
    centered = cloud.data - mean
    gram = centered @ centered.T / n
    gram = 0.5 * (gram + gram.T)
    eigvals, eigvecs = np.linalg.eigh(gram)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    # Centered data has rank <= N-1; drop nonpositive modes before rescaling.
    pos = eigvals > 0
    eigvals = eigvals[pos]
    eigvecs = eigvecs[:, pos]
    basis = centered.T @ eigvecs / np.sqrt(n * eigvals)
    return _truncate(mean, basis, eigvals, max_rank, eig_floor)


def manifold_split(
    spec: CompactSpectrum, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Split x - mean into on-manifold coefficients and off-manifold residual.

    Returns ``coeffs`` with ``coeffs[k] = u_k . (x - mean)`` and
    ``residual = (x - mean) - U coeffs``, so that
    ``mean + U coeffs + residual == x`` and the residual is orthogonal to
    every basis column.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size != spec.dim:
        raise ShapeError(f"x has length {x.size}, spectrum dimension is {spec.dim}")
    diff = x - spec.mean
    coeffs = spec.basis.T @ diff
    residual = diff - spec.basis @ coeffs
    return coeffs, residual


# ---------------------------------------------------------------------------
# Point-cloud file formats
# ---------------------------------------------------------------------------

def save_cloud_csv(cloud: PointCloud, path, with_labels: bool = False) -> None:
    """Write one sample per row; labels, if requested, as a final integer column."""
    if with_labels and cloud.labels is None:
        raise InvalidData("cloud has no labels to write")
    if with_labels:
        out = np.column_stack([cloud.data, cloud.labels.astype(np.float64)])
    else:
        out = cloud.data
    np.savetxt(path, out, delimiter=",", fmt="%.17g")


def load_cloud_csv(path, with_labels: bool = False) -> PointCloud:
    """Read a CSV cloud; ``with_labels`` selects a final integer label column."""
    raw = np.loadtxt(path, delimiter=",", ndmin=2)
    if with_labels:
        if raw.shape[1] < 2:
            raise InvalidData(f"{path}: expected a label column but found only one column")
        return PointCloud(raw[:, :-1], raw[:, -1].astype(np.int64))
    return PointCloud(raw)


def save_cloud_binary(cloud: PointCloud, path) -> None:
    """Binary format: magic 'PCLD1', little-endian u32 N, u32 D, u8 has_labels,
    N*D float64 row-major, then (if present) N int32 labels."""
    has_labels = cloud.labels is not None
    with open(path, "wb") as f:
        f.write(_BINARY_MAGIC)
        f.write(struct.pack("<IIB", cloud.n_samples, cloud.dim, int(has_labels)))
        f.write(np.ascontiguousarray(cloud.data, dtype="<f8").tobytes())
        if has_labels:
            f.write(np.ascontiguousarray(cloud.labels, dtype="<i4").tobytes())


def load_cloud_binary(path) -> PointCloud:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(_BINARY_MAGIC)] != _BINARY_MAGIC:
        raise InvalidData(f"{path}: bad magic bytes, not a PCLD1 file")
    offset = len(_BINARY_MAGIC) + struct.calcsize("<IIB")
    if len(blob) < offset:
        raise InvalidData(f"{path}: {len(blob)} bytes, shorter than the {offset}-byte PCLD1 header")
    n, d, has_labels = struct.unpack_from("<IIB", blob, len(_BINARY_MAGIC))
    expected = offset + n * d * 8 + (n * 4 if has_labels else 0)
    if len(blob) != expected:
        raise InvalidData(
            f"{path}: header gives N={n}, D={d}, labels={bool(has_labels)}, which needs "
            f"{expected} bytes, but the file has {len(blob)}"
        )
    data = np.frombuffer(blob, dtype="<f8", count=n * d, offset=offset).reshape(n, d)
    offset += n * d * 8
    labels = None
    if has_labels:
        labels = np.frombuffer(blob, dtype="<i4", count=n, offset=offset)
    return PointCloud(data, labels)


def save_cloud(cloud: PointCloud, path, with_labels: bool | None = None) -> None:
    """Dispatch on extension: .csv -> CSV, anything else -> binary."""
    if str(path).endswith(".csv"):
        if with_labels is None:
            with_labels = cloud.labels is not None
        save_cloud_csv(cloud, path, with_labels)
    else:
        save_cloud_binary(cloud, path)


def load_cloud(path, with_labels: bool = False) -> PointCloud:
    if str(path).endswith(".csv"):
        return load_cloud_csv(path, with_labels)
    return load_cloud_binary(path)


# ---------------------------------------------------------------------------
# Spectrum serialization
# ---------------------------------------------------------------------------

def spectrum_to_json(spec: CompactSpectrum) -> dict:
    """JSON object {mean, eigenvalues, basis} with basis as row-major rows."""
    return {
        "mean": spec.mean.tolist(),
        "eigenvalues": spec.eigenvalues.tolist(),
        "basis": spec.basis.tolist(),
    }


def spectrum_from_json(obj: dict) -> CompactSpectrum:
    mean = np.asarray(obj["mean"], dtype=np.float64)
    eigs = np.asarray(obj["eigenvalues"], dtype=np.float64)
    basis = np.asarray(obj["basis"], dtype=np.float64)
    if basis.size == 0:
        basis = np.zeros((mean.size, 0))
    return CompactSpectrum(mean, basis, eigs)


def save_spectrum(spec: CompactSpectrum, path) -> None:
    with open(path, "w") as f:
        json.dump(spectrum_to_json(spec), f)


def load_spectrum(path) -> CompactSpectrum:
    with open(path) as f:
        return spectrum_from_json(json.load(f))
