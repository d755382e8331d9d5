"""Synthetic point-cloud generators for tests, demos, and the CLI."""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput
from .spectrum import PointCloud

__all__ = ["gaussian_cloud", "gmm_cloud", "two_cluster_cloud", "generate_cloud"]


def _orthonormal(rng: np.random.Generator, d: int, r: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((d, max(r, 1))))
    return q[:, :r]


def gaussian_cloud(n: int, d: int, seed: int = 0, rank: int | None = None) -> PointCloud:
    """Samples from one zero-mean Gaussian with a random low-rank covariance.

    The spectrum is the power law lam_k = 4 / k^2 over ``rank`` modes
    (rank defaults to min(d, 8)).
    """
    rng = np.random.default_rng(seed)
    if rank is None:
        rank = min(d, 8)
    eigenvalues = 4.0 / np.arange(1, rank + 1) ** 2
    basis = _orthonormal(rng, d, rank)
    z = rng.standard_normal((n, rank)) * np.sqrt(eigenvalues)
    # Adding the zero mean turns each -0.0 of the product into +0.0, which
    # the cloud's bytes depend on.
    return PointCloud(np.zeros(d) + z @ basis.T)


def gmm_cloud(
    n: int,
    d: int,
    k: int = 3,
    seed: int = 0,
    separation: float = 8.0,
    eigenvalues=None,
    centers=None,
) -> PointCloud:
    """Well-separated mixture: k modes, each a low-rank Gaussian with a
    random orientation; labels record the true mode.

    Each mode's spectrum defaults to lam_j = 1 / j^2 over min(d, 3) modes;
    passing ``eigenvalues`` sets it. Centers default to random directions at
    the given separation scale; passing ``centers`` (k x d) pins them.
    """
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    if eigenvalues is None:
        eigenvalues = 1.0 / np.arange(1, min(d, 3) + 1) ** 2
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    if centers is None:
        centers = separation * rng.standard_normal((k, d)) / np.sqrt(d)
    else:
        centers = np.asarray(centers, dtype=np.float64)
        if centers.shape != (k, d):
            raise InvalidInput(f"centers must have shape ({k}, {d}), got {centers.shape}")
    counts = np.full(k, n // k)
    counts[: n % k] += 1
    rows, labels = [], []
    for i in range(k):
        basis = _orthonormal(rng, d, eigenvalues.size)
        z = rng.standard_normal((counts[i], eigenvalues.size)) * np.sqrt(eigenvalues)
        rows.append(centers[i] + z @ basis.T)
        labels.append(np.full(counts[i], i))
    return PointCloud(np.vstack(rows), np.concatenate(labels))


def anchored_five_cluster_cloud(n: int = 500, d: int = 16, seed: int = 0) -> PointCloud:
    """Five full-dimensional power-law clusters (lam_j = 1 / j^3), one
    centered at the origin.

    The origin mode keeps small-sigma probes of N(0, sigma^2 I) inside real
    cluster structure; the remaining centers sit asymmetrically at pairwise
    distances >= ~4 so every k-means refinement step from 1 to 5 modes
    resolves one more true cluster.
    """
    centers = np.zeros((5, d))
    centers[1, 0] = 4.0
    centers[2, 1] = 4.0
    centers[3, 2] = 4.0
    centers[4, :3] = 2.6
    eigenvalues = 1.0 / np.arange(1, d + 1) ** 3.0
    return gmm_cloud(n, d, k=5, seed=seed, eigenvalues=eigenvalues, centers=centers)


def two_cluster_cloud(n: int, d: int, seed: int = 0, separation: float = 20.0, spread: float = 0.1) -> PointCloud:
    """Two tight isotropic blobs at +- separation/2 along the first axis."""
    rng = np.random.default_rng(seed)
    half = n // 2
    counts = (half + n % 2, half)
    rows, labels = [], []
    for i, sign in enumerate((1.0, -1.0)):
        center = np.zeros(d)
        center[0] = sign * separation / 2.0
        rows.append(center + spread * rng.standard_normal((counts[i], d)))
        labels.append(np.full(counts[i], i))
    return PointCloud(np.vstack(rows), np.concatenate(labels))


def generate_cloud(kind: str, n: int, d: int, seed: int = 0, **kwargs) -> PointCloud:
    """Dispatch for the CLI's gen-synthetic subcommand."""
    if n < 1 or d < 1:
        raise InvalidInput(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if kind == "gaussian":
        return gaussian_cloud(n, d, seed, **kwargs)
    if kind == "gmm":
        return gmm_cloud(n, d, seed=seed, **kwargs)
    if kind == "two-cluster":
        return two_cluster_cloud(n, d, seed, **kwargs)
    raise InvalidInput(f"unknown synthetic kind {kind!r}")
