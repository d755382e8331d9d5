"""Point clouds and compact (possibly low-rank) covariance spectra.

Every idealized score formula in this library consumes a ``CompactSpectrum``:
a mean vector plus the rank-r eigendecomposition ``Sigma = U diag(lam) U^T``
of a covariance matrix, with ``U`` a D x r semi-orthogonal basis and ``lam``
strictly positive, sorted descending. Degenerate data (a single point, a
zero covariance) yields an r = 0 spectrum, which stays valid downstream.
"""

from __future__ import annotations

import contextlib
import os
import stat
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InvalidData, ShapeError

__all__ = [
    "PointCloud",
    "CompactSpectrum",
    "estimate_moments",
    "compact_spectrum",
    "spectrum_from_cloud",
    "load_cloud_csv",
    "save_cloud_csv",
    "load_cloud_binary",
    "save_cloud_binary",
    "load_cloud",
    "save_cloud",
    "spectrum_to_json",
    "spectrum_from_json",
]

_BINARY_MAGIC = b"PCLD1"

# Element budget of the row chunks that ``estimate_moments`` centers (8 MiB)
# and that ``PointCloud`` checks for finiteness (a 1 MiB mask).
_MOMENT_BLOCK = 1 << 20


def _frozen_array(a, dtype=np.float64):
    # C order and aligned, copying only input that is neither (say, a view
    # of raw bytes at an odd offset): numpy's kernels take a slower path on
    # misaligned data.
    out = np.require(a, dtype, requirements=("C", "A"))
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
        step = max(1, _MOMENT_BLOCK // data.shape[1])
        if not all(np.isfinite(data[i:i + step]).all() for i in range(0, data.shape[0], step)):
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

    Invariants checked at construction: D >= 1, every entry finite,
    U^T U = I within 1e-10, eigenvalues strictly positive and descending.
    """

    mean: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        basis = np.asarray(self.basis, dtype=np.float64)
        eigs = np.asarray(self.eigenvalues, dtype=np.float64).reshape(-1)
        if mean.size < 1:
            raise EmptyInput("spectrum mean must have D >= 1 entries, got 0")
        if not all(np.isfinite(a).all() for a in (mean, basis, eigs)):
            raise InvalidData("spectrum mean, basis and eigenvalues must be finite")
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
    (1/N) convention keeps tr Sigma identities exact. The second pass
    centers ``max(1, _MOMENT_BLOCK // D)`` rows at a time and sums their
    ``(y - mu)^T (y - mu)`` products, so beyond the cloud it holds one
    centered chunk, one D x D product buffer and the D x D result. A cloud
    within one chunk is one product, bitwise equal to
    ``(y - mu)^T (y - mu) / N``; over several chunks the sum reassociates,
    to within rounding.

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
    step = max(1, _MOMENT_BLOCK // y.shape[1])
    buf = rows = y[:step] - mean
    cov = rows.T @ rows
    prod = np.empty_like(cov) if y.shape[0] > step else None
    for start in range(step, y.shape[0], step):
        chunk = y[start:start + step]
        rows = np.subtract(chunk, mean, out=buf[: chunk.shape[0]])
        cov += np.matmul(rows.T, rows, out=prod)
    del buf, rows, prod  # release the chunk before any D x D temporary below
    cov /= y.shape[0]
    # numpy forms a matrix's product with its own transpose from one
    # triangle and mirrors it, so the sum is exactly symmetric and
    # 0.5 (cov + cov^T) would give cov's bits again.
    if not np.array_equal(cov, cov.T):
        cov = 0.5 * (cov + cov.T)
    return mean, cov


def _fix_column_signs(basis: np.ndarray) -> np.ndarray:
    """Flip each column, in place, so its largest-magnitude entry is positive."""
    if basis.size == 0:
        return basis
    # Each column's magnitudes as one C-contiguous row: argmax along any
    # other axis would first copy them into that layout.
    idx = np.argmax(np.abs(basis.T, order="C"), axis=1)
    signs = np.sign(basis[idx, np.arange(basis.shape[1])])
    signs[signs == 0] = 1.0
    basis *= signs
    return basis


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
    # One D x D buffer serves the scale, the symmetry gap and, if the gap
    # is not 0, the symmetrized copy.
    work = np.abs(cov)
    scale = max(np.max(work), 1.0)
    np.abs(np.subtract(cov, cov.T, out=work), out=work)
    gap = np.max(work)
    if gap > 1e-8 * scale:
        raise InvalidData("covariance is not symmetric within 1e-8")
    if eig_floor is not None and eig_floor < 0:
        raise InvalidData("eig_floor must be >= 0")

    if gap > 0:
        cov = np.multiply(0.5, np.add(cov, cov.T, out=work), out=work)
    del work
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    k = _kept(eigvals, max_rank, eig_floor)
    return CompactSpectrum(mean, _fix_column_signs(eigvecs[:, order[:k]]), eigvals[:k])


def _kept(eigvals, max_rank, eig_floor) -> int:
    """How many of the descending ``eigvals`` to keep: those above
    ``eig_floor`` (default ``1e-10 * lambda_max``), at most ``max_rank``.
    The kept set is a prefix, since the eigenvalues are sorted."""
    if max_rank is not None and max_rank < 0:
        raise InvalidData("max_rank must be >= 0")
    if eig_floor is None:
        lam_max = eigvals[0] if eigvals.size else 0.0
        eig_floor = 1e-10 * max(lam_max, 0.0)
    k = int(np.count_nonzero(eigvals > max(eig_floor, 0.0)))
    return k if max_rank is None else min(k, max_rank)


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
    # Centered data has rank <= N-1; drop nonpositive modes (a suffix of the
    # sorted eigenvalues) before rescaling.
    pos = int(np.count_nonzero(eigvals > 0))
    eigvals = eigvals[:pos]
    basis = centered.T @ eigvecs[:, order[:pos]]
    del centered
    basis /= np.sqrt(n * eigvals)
    k = _kept(eigvals, max_rank, eig_floor)
    return CompactSpectrum(mean, _fix_column_signs(basis[:, :k]), eigvals[:k])


# ---------------------------------------------------------------------------
# Point-cloud file formats
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _replacing(path, mode: str = "w"):
    """Open a file that takes the place of ``path`` only once the block
    succeeds: the block writes a dot-prefixed temporary file in the same
    directory, which ``os.replace`` then moves onto ``path`` in one step. If
    the block raises, the temporary file is removed and ``path`` keeps what
    it held. A symlinked ``path`` is resolved first, so its target is the
    file replaced. Every output file of the library goes through here."""
    head, tail = os.path.split(os.path.realpath(path))
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    try:
        # Mode 0o666 leaves the permissions to the umask, as open() does.
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        exc.filename = os.fspath(path)  # the caller's path, not the temporary one
        raise
    try:
        with open(fd, mode) as f:
            yield f
        os.replace(tmp, os.path.join(head, tail))
    except BaseException:
        os.unlink(tmp)
        raise


def _save_table(path, table, header: str = "") -> None:
    """The one numeric-CSV writer: comma-separated ``%.17g`` values, which
    read back as the same float64 bits, after an optional header line that
    has no comment prefix. A 1-D table is one column. The bytes are those of
    ``np.savetxt(path, table, delimiter=",", fmt="%.17g", comments="",
    header=header)``; each block of at most 2^16 values is formatted by one
    ``%`` operation instead of one per row."""
    table = np.asarray(table)
    if table.ndim == 1:
        table = table[:, None]
    if table.ndim != 2:
        raise ValueError(f"expected a 1-D or 2-D table, got {table.ndim}-D")
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    step = max(1, (1 << 16) // max(1, table.shape[1]))
    with _replacing(path) as f:
        if header:
            f.write(header + "\n")
        for lo in range(0, table.shape[0], step):
            block = table[lo : lo + step]
            f.write(line * block.shape[0] % tuple(block.ravel().tolist()))


def save_cloud_csv(cloud: PointCloud, path, with_labels: bool = False) -> None:
    """Write one sample per row; labels, if requested, as a final integer column."""
    if with_labels and cloud.labels is None:
        raise InvalidData("cloud has no labels to write")
    if with_labels:
        out = np.column_stack([cloud.data, cloud.labels.astype(np.float64)])
    else:
        out = cloud.data
    _save_table(path, out)


def _load_table(path) -> np.ndarray:
    """The one headerless numeric-CSV reader; bad or no content raises InvalidData naming ``path``."""
    try:
        with warnings.catch_warnings():  # an empty file warns, and fails below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:  # a cell that is no number, or bytes that are no text
        raise InvalidData(f"{path}: {exc}") from exc
    if table.size == 0:
        raise InvalidData(f"{path}: no data")
    return table


def load_cloud_csv(path, with_labels: bool = False) -> PointCloud:
    """Read a CSV cloud; ``with_labels`` selects a final integer label column."""
    raw = _load_table(path)
    if with_labels:
        if raw.shape[1] < 2:
            raise InvalidData(f"{path}: expected a label column but found only one column")
        return PointCloud(raw[:, :-1], raw[:, -1].astype(np.int64))
    return PointCloud(raw)


def save_cloud_binary(cloud: PointCloud, path) -> None:
    """Binary format: magic 'PCLD1', little-endian u32 N, u32 D, u8 has_labels,
    N*D float64 row-major, then (if present) N int32 labels."""
    has_labels = cloud.labels is not None
    with _replacing(path, "wb") as f:
        f.write(_BINARY_MAGIC)
        f.write(struct.pack("<IIB", cloud.n_samples, cloud.dim, int(has_labels)))
        # Each array's own buffer goes out; no bytes copy of the cloud.
        f.write(np.ascontiguousarray(cloud.data, dtype="<f8"))
        if has_labels:
            f.write(np.ascontiguousarray(cloud.labels, dtype="<i4"))


def _read_payload(f, path, shape, dtype) -> np.ndarray:
    out = np.empty(shape, dtype)
    got = f.readinto(out)
    if got != out.nbytes:
        raise InvalidData(f"{path}: read {got} of {out.nbytes} payload bytes, the file ended early")
    return out


def load_cloud_binary(path) -> PointCloud:
    """Read a PCLD1 file (see ``save_cloud_binary``). The payload starts at
    byte 14, so it is read into fresh aligned arrays, not viewed in place."""
    header = len(_BINARY_MAGIC) + struct.calcsize("<IIB")
    with open(path, "rb") as f:
        st = os.fstat(f.fileno())
        head = f.read(header)
        if head[: len(_BINARY_MAGIC)] != _BINARY_MAGIC:
            raise InvalidData(f"{path}: bad magic bytes, not a PCLD1 file")
        if len(head) < header:
            raise InvalidData(f"{path}: {len(head)} bytes, shorter than the {header}-byte PCLD1 header")
        n, d, has_labels = struct.unpack_from("<IIB", head, len(_BINARY_MAGIC))
        expected = header + n * d * 8 + (n * 4 if has_labels else 0)
        # A pipe has no length before it is read; for one, a short read and
        # bytes past the payload raise below.
        if stat.S_ISREG(st.st_mode) and st.st_size != expected:
            raise InvalidData(
                f"{path}: header gives N={n}, D={d}, labels={bool(has_labels)}, which needs "
                f"{expected} bytes, but the file has {st.st_size}"
            )
        data = _read_payload(f, path, (n, d), "<f8")
        labels = _read_payload(f, path, n, "<i4") if has_labels else None
        if f.read(1):
            raise InvalidData(f"{path}: bytes follow the {expected} that its header gives")
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

