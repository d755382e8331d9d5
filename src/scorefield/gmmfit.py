"""Low-rank Gaussian mixture construction via mini-batch k-means.

The fit is deliberately cheap: cluster with mini-batch k-means, then take
each cluster's empirical mean and (population) covariance, truncated to the
requested rank, with weights N_i / N. This is roughly one EM step, which is
all the score-comparison harness needs.

A k-means pass needs only each point's nearest center. ``_nearest`` takes
it from one einsum estimate where a proven error bound shows that the delta
score's kernel (``models._sq_dists``) would pick the same center, and asks
the kernel only for the points it cannot decide, so every assignment is the
kernel's, on the calling thread alone. The sweep fits each K once at full
rank and cuts every rank's mixture from that fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, InvalidK
from .models import GaussianComponent, MixtureModel, ScoreModel, _sq_dists
from .spectrum import CompactSpectrum, PointCloud, _kept, _replacing, spectrum_from_cloud

__all__ = [
    "KMeansResult",
    "minibatch_kmeans_full",
    "gmm_from_assignments",
    "fit_gmm",
    "rank_mode_sweep",
    "SweepTable",
]

DEFAULT_BATCH = 2048
DEFAULT_MAX_ITER = 100
CENTER_SHIFT_TOL = 1e-6


@dataclass(frozen=True)
class KMeansResult:
    assignments: np.ndarray
    centers: np.ndarray
    iterations: int
    inertia: float


def _nearest(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # Each point's nearest center, ties to the lowest index: the kernel's
    # argmin, which an estimate decides for most points. With t_k = |x - c_k|^2,
    # u = 2^-53, G = (D+2)u / (1 - (D+2)u) and B = (|x| + max|c|)^2, the standard
    # rounding bounds (any summation order, FMA or not) put the kernel's value
    # within G B of t_k, and g_k = |c_k|^2 - 2 x.c_k within G B of t_k - |x|^2;
    # subnormals add at most 4D 2^-1074 to each. A gap between the two smallest
    # g above 4 G B + 16D 2^-1074 thus proves the smallest one the kernel's
    # unique argmin. The test takes 8(D+4)u (|x|^2 + max|c|^2) + D tiny, which
    # has room for its own rounding and overflows, sending the point to the
    # kernel, before any distance can. Ties, near-ties and NaN go there too.
    # einsum stays on one thread, where a BLAS product would spin a second.
    d, sq = centers.shape[1], np.einsum("kd,kd->k", centers, centers)
    with np.errstate(over="ignore", invalid="ignore"):
        g = sq[:, None] - 2.0 * np.einsum("kd,nd->kn", centers, points)
        best, cols = np.argmin(g, axis=0), np.arange(points.shape[0])
        gap = -g[best, cols]
        g[best, cols] = np.inf
        gap += g.min(axis=0)
        bound = (np.einsum("nd,nd->n", points, points) + sq.max()) * (8.0 * (d + 4))
        unsure = ~(gap > bound * np.finfo(float).epsneg + d * np.finfo(float).tiny)
    if unsure.any():
        best[unsure] = np.argmin(_sq_dists(centers, points[unsure]), axis=0)
    return best


def _kmeans_pp_init(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: first center uniform, then proportional to the
    squared distance to the nearest chosen center."""
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]))
    idx = int(rng.integers(n))
    centers[0] = data[idx]
    closest = _sq_dists(centers[:1], data)[0]
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centers[j] = data[idx]
        np.minimum(closest, _sq_dists(centers[j : j + 1], data)[0], out=closest)
    return centers


def minibatch_kmeans_full(
    cloud: PointCloud,
    k: int,
    batch: int = DEFAULT_BATCH,
    seed: int = 0,
    max_iter: int = DEFAULT_MAX_ITER,
) -> KMeansResult:
    """Mini-batch k-means (Sculley 2010, "Web-scale k-means clustering").

    Sculley's per-point step ``c += (x - c) / count`` with per-center counts
    makes each center the running mean of every point it was ever assigned.
    A center with ``m`` new members in a mini-batch therefore moves in one
    step to ``(count c + sum x) / (count + m)``, which is the per-point loop
    in exact arithmetic; the members are summed in mini-batch order.

    Deterministic given the seed. After the mini-batch passes, every sample
    is assigned to its nearest center (ties to the lowest cluster index) and
    empty clusters are repaired by reseeding each on the farthest member of
    the currently largest cluster. ``max_iter`` = 0 keeps the k-means++ seeds.
    """
    if not isinstance(cloud, PointCloud):
        cloud = PointCloud(np.asarray(cloud))
    n = cloud.n_samples
    if not (1 <= k <= n):
        raise InvalidK(f"need 1 <= K <= N={n}, got K={k}")
    if batch < 1:
        raise InvalidInput(f"batch must be >= 1, got {batch}")
    if max_iter < 0:
        raise InvalidInput(f"max_iter must be >= 0, got {max_iter}")
    data = cloud.data
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(data, k, rng)
    counts = np.zeros(k)
    take = min(batch, n)
    # Every iteration reuses the same (take, D) buffers: a fresh one each
    # time can be handed back to the system and faulted in again, once
    # glibc's mmap and trim thresholds follow smaller blocks freed elsewhere.
    mb = np.empty((take, data.shape[1]))
    sorted_mb = np.empty_like(mb)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        sample = rng.choice(n, size=take, replace=False)
        np.take(data, sample, axis=0, out=mb, mode="clip")
        assign = _nearest(mb, centers)
        previous = centers.copy()
        order = np.argsort(assign, kind="stable")
        hit, starts, m = np.unique(assign[order], return_index=True, return_counts=True)
        np.take(mb, order, axis=0, out=sorted_mb, mode="clip")
        sums = np.add.reduceat(sorted_mb, starts, axis=0)
        total = counts[hit] + m
        centers[hit] = (counts[hit, None] * centers[hit] + sums) / total[:, None]
        counts[hit] = total
        shift = np.max(np.einsum("kd,kd->k", centers - previous, centers - previous))
        if shift < CENTER_SHIFT_TOL**2:
            break

    assignments = _nearest(data, centers)

    # Empty-cluster repair: move the farthest point of the largest cluster
    # into each empty one. Terminates since the donor always has >= 2 members.
    sizes = np.bincount(assignments, minlength=k)
    while np.any(sizes == 0):
        empty = int(np.argmin(sizes))
        donor = int(np.argmax(sizes))
        members = np.nonzero(assignments == donor)[0]
        far = members[int(np.argmax(_sq_dists(centers[donor : donor + 1], data[members])[0]))]
        assignments[far] = empty
        centers[empty] = data[far]
        sizes[empty] += 1
        sizes[donor] -= 1

    inertia = 0.0
    for c in range(k):
        members = assignments == c
        if np.any(members):
            diff = data[members] - centers[c]
            inertia += float(np.einsum("nd,nd->", diff, diff))
    return KMeansResult(assignments, centers, iterations, inertia)


def gmm_from_assignments(
    cloud: PointCloud, assignments: np.ndarray, rank: int | None = None
) -> MixtureModel:
    """Mixture with one Gaussian per cluster: empirical mean/covariance
    (population convention), spectrum truncated to ``rank``, weight N_i/N.

    Single-sample clusters yield zero-covariance (r = 0) components.
    ``rank=None`` keeps the full spectrum.
    """
    if not isinstance(cloud, PointCloud):
        cloud = PointCloud(np.asarray(cloud))
    assignments = np.asarray(assignments)
    n = cloud.n_samples
    comps = []
    for c in np.unique(assignments):
        index = np.nonzero(assignments == c)[0]
        sub = cloud.subset(index)
        spec = spectrum_from_cloud(sub, max_rank=rank)
        comps.append(GaussianComponent(index.size / n, spec))
    return MixtureModel(tuple(comps))


def _truncated(full: MixtureModel, rank: int) -> MixtureModel:
    """``full`` with every component cut to its first ``rank`` eigenpairs.

    A spectrum fit keeps a prefix of its descending eigenpairs and fixes
    each basis column's sign on its own, on the dense and the Gram route
    alike, so cutting the full-rank fit of some clusters gives their
    ``gmm_from_assignments(..., rank)`` fit, bit for bit.
    """
    comps = []
    for c in full.components:
        spec = c.spectrum
        # Every kept eigenvalue is above a zero floor, so this is
        # min(rank, spec.rank), and a negative rank fails as in a fit.
        k = _kept(spec.eigenvalues, rank, 0.0)
        comps.append(GaussianComponent(
            c.weight, CompactSpectrum(spec.mean, spec.basis[:, :k], spec.eigenvalues[:k])))
    return MixtureModel(tuple(comps))


def fit_gmm(
    cloud: PointCloud,
    k: int,
    rank: int | None = None,
    seed: int = 0,
    batch: int = DEFAULT_BATCH,
    max_iter: int = DEFAULT_MAX_ITER,
) -> MixtureModel:
    """One-pass low-rank GMM: mini-batch k-means, then per-cluster moments.

    K = 1 with full rank reproduces the single-Gaussian model of the whole
    cloud; rank = 0 with K = N reduces to the delta-mixture score.
    """
    km = minibatch_kmeans_full(cloud, k, batch, seed, max_iter)
    return gmm_from_assignments(cloud, km.assignments, rank)


@dataclass(frozen=True)
class SweepTable:
    """Long-format (K, rank, sigma) -> unexplained-variance statistics."""

    rows: tuple[dict, ...]

    COLUMNS = ("k", "rank", "sigma", "mean_uv", "q25", "q75", "ratio_of_sums", "n_excluded")

    def column(self, name: str) -> np.ndarray:
        return np.asarray([r[name] for r in self.rows])

    def filter(self, **kv) -> "SweepTable":
        rows = tuple(r for r in self.rows if all(r[k] == v for k, v in kv.items()))
        return SweepTable(rows)

    def to_csv(self, path) -> None:
        with _replacing(path) as f:
            f.write(",".join(self.COLUMNS) + "\n")
            for r in self.rows:
                f.write(
                    ",".join(
                        "full" if r[c] is None else f"{r[c]:.17g}" if isinstance(r[c], float) else str(r[c])
                        for c in self.COLUMNS
                    )
                    + "\n"
                )


def rank_mode_sweep(
    cloud: PointCloud,
    k_list,
    rank_list,
    sigma_list,
    reference: ScoreModel,
    n_probe: int = 256,
    seed: int = 0,
    batch: int = DEFAULT_BATCH,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SweepTable:
    """Fraction of unexplained variance of fitted GMMs against a reference.

    Clusters and fits each K once, at full rank; every rank's mixture cuts
    that fit down, which equals fitting it at that rank. Probes are drawn
    from N(0, sigma^2 I) with a per-sigma seed, so every (K, rank) cell at
    the same sigma sees identical probes. The probes and the reference
    score are computed once per sigma, before any fit; each cell scores
    only its mixture. Every row equals ``unexplained_variance(reference,
    model, sigma, n_probe, seed=<sigma's seed>)``. Emits one long-format row
    per (K, rank, sigma).
    """
    from .analysis import probe_points, ratio_stats

    k_list = list(k_list)
    rank_list = list(rank_list)
    sigma_list = list(sigma_list)
    if not k_list or not rank_list or not sigma_list:
        raise InvalidInput("k_list, rank_list and sigma_list must be nonempty")

    probe_seeds = np.random.SeedSequence(seed).spawn(len(sigma_list))
    probes = [probe_points(reference.dim, sigma, n_probe, seed=probe_seeds[j])
              for j, sigma in enumerate(sigma_list)]
    ref_scores = [reference.score(x, sigma) for x, sigma in zip(probes, sigma_list)]
    rows = []
    for k in k_list:
        km = minibatch_kmeans_full(cloud, k, batch, seed, max_iter)
        full = gmm_from_assignments(cloud, km.assignments, None)
        for rank in rank_list:
            model = full if rank is None else _truncated(full, rank)
            for sigma, x, s_ref in zip(sigma_list, probes, ref_scores):
                stats = ratio_stats(s_ref, model.score(x, sigma), sigma)
                rows.append(
                    {
                        "k": int(k),
                        "rank": None if rank is None else int(rank),
                        "sigma": float(sigma),
                        "mean_uv": stats.mean,
                        "q25": stats.q25,
                        "q75": stats.q75,
                        "ratio_of_sums": stats.ratio_of_sums,
                        "n_excluded": stats.n_excluded,
                    }
                )
    return SweepTable(tuple(rows))


def minimal_sufficient_rank(table: SweepTable, k: int, sigma: float, slack: float = 0.10):
    """Smallest rank whose residual stays within ``slack`` of the full-rank
    (largest-rank) residual at the given (K, sigma) cell."""
    sub = table.filter(k=k, sigma=float(sigma))
    if not sub.rows:
        raise InvalidInput(f"no sweep rows for k={k}, sigma={sigma}")
    ranked = sorted(sub.rows, key=lambda r: np.inf if r["rank"] is None else r["rank"])
    full = ranked[-1]["mean_uv"]
    for r in ranked:
        if r["mean_uv"] <= (1.0 + slack) * full:
            return r["rank"]
    return ranked[-1]["rank"]
