import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scorefield.gmmfit
import scorefield.models
from scorefield.analysis import unexplained_variance
from scorefield.errors import InvalidData, InvalidInput, InvalidK, InvalidNoise
from scorefield.gmmfit import (
    _kmeans_pp_init,
    _nearest,
    _truncated,
    fit_gmm,
    gmm_from_assignments,
    minibatch_kmeans_full,
    minimal_sufficient_rank,
    rank_mode_sweep,
)
from scorefield.models import DeltaMixtureModel, GaussianModel, _sq_dists
from scorefield.spectrum import PointCloud, estimate_moments, spectrum_from_cloud
from scorefield.synthetic import (
    anchored_five_cluster_cloud,
    gaussian_cloud,
    gmm_cloud,
    two_cluster_cloud,
)


class TestMinibatchKmeans:
    def test_k1_single_cluster(self):
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.standard_normal((30, 4)))
        res = minibatch_kmeans_full(cloud, 1, seed=0)
        np.testing.assert_array_equal(res.assignments, np.zeros(30, dtype=int))
        # a K=1 fitted component's mean is the cloud mean
        model = gmm_from_assignments(cloud, res.assignments)
        np.testing.assert_allclose(
            model.components[0].spectrum.mean, cloud.data.mean(axis=0), atol=1e-12
        )

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_two_well_separated_clusters(self, seed):
        cloud = two_cluster_cloud(60, 3, seed=5, separation=20.0, spread=0.1)
        assign = minibatch_kmeans_full(cloud, 2, seed=seed).assignments
        # oracle: brute-force nearest of the two true centers
        centers = np.zeros((2, 3))
        centers[0, 0], centers[1, 0] = 10.0, -10.0
        d = np.linalg.norm(cloud.data[:, None, :] - centers[None], axis=2)
        truth = np.argmin(d, axis=1)
        same = np.mean(assign == truth)
        assert same in (0.0, 1.0)  # equal up to label permutation

    def test_k_equals_n_singletons(self):
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.standard_normal((12, 2)))
        assign = minibatch_kmeans_full(cloud, 12, seed=0).assignments
        sizes = np.bincount(assign, minlength=12)
        assert np.all(sizes == 1)

    def test_determinism(self):
        cloud = PointCloud(np.random.default_rng(9).standard_normal((50, 3)))
        a = minibatch_kmeans_full(cloud, 4, seed=11)
        b = minibatch_kmeans_full(cloud, 4, seed=11)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        np.testing.assert_array_equal(a.centers, b.centers)
        assert a.inertia == b.inertia

    def test_invalid_k(self):
        cloud = PointCloud(np.zeros((5, 2)))
        with pytest.raises(InvalidK):
            minibatch_kmeans_full(cloud, 6).assignments
        with pytest.raises(InvalidK):
            minibatch_kmeans_full(cloud, 0).assignments

    def test_max_iter_zero_keeps_the_seeds_and_negative_is_rejected(self):
        cloud = two_cluster_cloud(40, 2, seed=4, separation=30.0, spread=0.05)
        res = minibatch_kmeans_full(cloud, 2, seed=6, max_iter=0)
        seeds = _kmeans_pp_init(cloud.data, 2, np.random.default_rng(6))
        assert res.iterations == 0
        np.testing.assert_array_equal(res.centers, seeds)
        with pytest.raises(InvalidInput, match="max_iter must be >= 0, got -3"):
            minibatch_kmeans_full(cloud, 2, max_iter=-3)

    def test_no_empty_clusters(self):
        cloud = two_cluster_cloud(40, 2, seed=2, separation=30.0, spread=0.05)
        # K=5 on two tight blobs forces empty-cluster repair
        assign = minibatch_kmeans_full(cloud, 5, seed=0).assignments
        assert np.all(np.bincount(assign, minlength=5) >= 1)


class CountingPool(ThreadPoolExecutor):
    def __init__(self, workers):
        super().__init__(max_workers=workers)
        self.submitted = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submitted += 1
        return super().submit(fn, *args, **kwargs)


class TestKmeansShares:
    """k-means submits nothing to the models' pool, whatever its size."""

    def split(self, monkeypatch, workers):
        pool = CountingPool(max(1, workers - 1))
        monkeypatch.setattr(scorefield.models, "_CPUS", workers)
        monkeypatch.setattr(scorefield.models, "_SHARE", 1)
        monkeypatch.setattr(scorefield.models, "_POOL", pool)
        return pool

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bits_do_not_depend_on_worker_count(self, monkeypatch, workers):
        cloud = gmm_cloud(301, 5, k=4, seed=12)
        whole = minibatch_kmeans_full(cloud, 6, batch=97, seed=3, max_iter=20)
        pool = self.split(monkeypatch, workers)
        try:
            split = minibatch_kmeans_full(cloud, 6, batch=97, seed=3, max_iter=20)
        finally:
            pool.shutdown()
        assert pool.submitted == 0
        np.testing.assert_array_equal(split.assignments, whole.assignments)
        assert split.centers.tobytes() == whole.centers.tobytes()
        assert split.iterations == whole.iterations
        assert split.inertia == whole.inertia

    def test_small_fits_start_no_thread(self):
        # The set-up fit of the ensemble benchmark: 4000 x 16, K = 4, mini-batches
        # of 2048 rows.
        code = (
            "import threading\n"
            "before = threading.active_count()\n"
            "from scorefield.gmmfit import minibatch_kmeans_full\n"
            "from scorefield.synthetic import gmm_cloud\n"
            "minibatch_kmeans_full(gmm_cloud(4000, 16, k=4, seed=1), 4, seed=1)\n"
            "print(before, threading.active_count())\n"
        )
        src = str(Path(scorefield.gmmfit.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        before, after = map(int, proc.stdout.split())
        assert before == after


def sequential_kmeans(cloud, k, batch, seed, max_iter, tol=1e-6):
    """Mini-batch k-means with Sculley's per-point center steps, one sample
    at a time, and full-tensor distances: the loop the batched step replaces."""
    def sq_dists(points, centers):
        diff = points[:, None, :] - centers[None, :, :]
        return np.einsum("nkd,nkd->nk", diff, diff)

    data = cloud.data
    n = data.shape[0]
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(data, k, rng)
    counts = np.zeros(k)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        mb = data[rng.choice(n, size=min(batch, n), replace=False)]
        assign = np.argmin(sq_dists(mb, centers), axis=1)
        previous = centers.copy()
        for j in range(mb.shape[0]):
            c = assign[j]
            counts[c] += 1.0
            centers[c] += (mb[j] - centers[c]) / counts[c]
        if np.max(np.einsum("kd,kd->k", centers - previous, centers - previous)) < tol**2:
            break
    assignments = np.argmin(sq_dists(data, centers), axis=1)
    sizes = np.bincount(assignments, minlength=k)
    while np.any(sizes == 0):
        empty, donor = int(np.argmin(sizes)), int(np.argmax(sizes))
        members = np.nonzero(assignments == donor)[0]
        d = np.einsum("nd,nd->n", data[members] - centers[donor], data[members] - centers[donor])
        far = members[int(np.argmax(d))]
        assignments[far] = empty
        centers[empty] = data[far]
        sizes[empty] += 1
        sizes[donor] -= 1
    return assignments, centers, iterations


def reference_pp_init(data, k, rng):
    """k-means++ seeding with fresh differences for every center."""
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[int(rng.integers(n))]
    closest = np.einsum("nd,nd->n", data - centers[0], data - centers[0])
    for j in range(1, k):
        total = closest.sum()
        idx = int(rng.integers(n)) if total <= 0 else int(rng.choice(n, p=closest / total))
        centers[j] = data[idx]
        np.minimum(closest, np.einsum("nd,nd->n", data - centers[j], data - centers[j]), out=closest)
    return centers


class TestBatchedKmeansStep:
    CLOUDS = {
        "gaussian": lambda: gaussian_cloud(600, 8, seed=1),
        "gmm": lambda: gmm_cloud(600, 8, k=4, seed=2),
        "five": lambda: anchored_five_cluster_cloud(500, 16, seed=3),
        "two-tight": lambda: two_cluster_cloud(40, 2, seed=2, separation=30.0, spread=0.05),
    }

    @pytest.mark.parametrize("name", sorted(CLOUDS))
    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_matches_sequential_per_point_steps(self, name, seed):
        cloud = self.CLOUDS[name]()
        for k in (1, 2, 4, 8, 16):
            for batch, max_iter in ((128, 30), (2048, 5)):
                res = minibatch_kmeans_full(cloud, k, batch, seed, max_iter)
                assign, centers, iterations = sequential_kmeans(cloud, k, batch, seed, max_iter)
                np.testing.assert_array_equal(res.assignments, assign)
                assert res.iterations == iterations
                np.testing.assert_allclose(res.centers, centers, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("name", sorted(CLOUDS))
    def test_pp_init_matches_reference_bitwise(self, name):
        data = self.CLOUDS[name]().data
        for k in (1, 4, 16):
            np.testing.assert_array_equal(
                _kmeans_pp_init(data, k, np.random.default_rng(k)),
                reference_pp_init(data, k, np.random.default_rng(k)),
            )

    @pytest.mark.parametrize("n, k, d", [(2048, 8, 64), (4000, 4, 16), (1237, 7, 33), (1, 3, 5)])
    def test_per_center_distances_match_full_tensor_bitwise(self, n, k, d):
        rng = np.random.default_rng(n + k + d)
        points = rng.standard_normal((n, d))
        centers = rng.standard_normal((k, d))
        diff = points[:, None, :] - centers[None, :, :]
        # k-means passes the centers as the kernel's rows.
        np.testing.assert_array_equal(
            _sq_dists(centers, points), np.einsum("nkd,nkd->nk", diff, diff).T
        )


class TestNearestScreen:
    """The einsum screen picks every assignment the distance kernel does."""

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["grid", "near-ties", "duplicates", "offset", "tiny", "huge"]),
           n=st.integers(1, 40), k=st.integers(1, 8), d=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1), power=st.integers(0, 9))
    def test_matches_the_kernel_argmin_exactly(self, kind, n, k, d, seed, power):
        rng = np.random.default_rng(seed)
        if kind == "grid":  # many exact ties
            points = rng.integers(-2, 3, (n, d)).astype(float)
            centers = rng.integers(-2, 3, (k, d)).astype(float)
        elif kind == "near-ties":  # centers within rounding of one sphere around the points
            centers = rng.standard_normal((k, d))
            centers /= np.linalg.norm(centers, axis=1, keepdims=True)
            centers *= 1.0 + 1e-15 * rng.standard_normal((k, 1))
            points = 1e-3 * rng.standard_normal((n, d))
            points += 10.0 ** power
            centers += 10.0 ** power
        elif kind == "huge":  # 1e150 to 1e154, where |x - c|^2 overflows
            scale = 10.0 ** min(150 + power, 154)
            points, centers = (rng.uniform(-scale, scale, (m, d)) for m in (n, k))
        else:
            points = rng.standard_normal((n, d))
            centers = np.concatenate([points[rng.integers(0, n, k)][: k // 2],
                                      rng.standard_normal((k - k // 2, d))])
            if kind == "duplicates":
                centers[rng.integers(0, k, k)] = centers[0]
            elif kind == "offset":
                points += 10.0 ** (3 + power)
                centers += 10.0 ** (3 + power)
            else:  # tiny: 1e-160 to 1e-200, where products go subnormal or to 0
                points *= 10.0 ** -(160 + power * power // 2)
                centers *= 10.0 ** -(160 + power * power // 2)
        with np.errstate(over="ignore"):
            expected = np.argmin(_sq_dists(centers, points), axis=0)
        np.testing.assert_array_equal(_nearest(points, centers), expected)

    def test_overflowing_distances_tie_as_in_the_kernel(self):
        # Both |x - c_k|^2 overflow, so the kernel ties them at inf and picks
        # center 0, though the finite estimate ranks center 1 nearer.
        points, centers = np.array([[-0.9e154]]), np.array([[0.7e154], [0.5e154]])
        with np.errstate(over="ignore"):
            assert np.argmin(_sq_dists(centers, points), axis=0).tolist() == [0]
        assert _nearest(points, centers).tolist() == [0]

    def test_benchmark_shape_never_reaches_the_kernel(self, monkeypatch):
        cloud = gaussian_cloud(2000, 64, seed=1)
        centers = minibatch_kmeans_full(cloud, 8, seed=1, max_iter=30).centers
        rows = []

        def counting(x, y):
            rows.append(y.shape[0])
            return _sq_dists(x, y)

        monkeypatch.setattr(scorefield.gmmfit, "_sq_dists", counting)
        expected = np.argmin(_sq_dists(centers, cloud.data), axis=0)
        np.testing.assert_array_equal(_nearest(cloud.data, centers), expected)
        assert sum(rows) == 0


class TestFitGmm:
    def test_k1_full_rank_equals_single_gaussian(self):
        rng = np.random.default_rng(21)
        cloud = PointCloud(rng.standard_normal((60, 5)) @ np.diag([2.0, 1.0, 0.5, 0.2, 0.1]))
        model = fit_gmm(cloud, 1, rank=None, seed=0)
        spec = spectrum_from_cloud(cloud)
        for _ in range(50):
            x = rng.standard_normal(5) * 2
            sigma = float(rng.uniform(0.1, 5))
            a = model.score(x, sigma)
            b = GaussianModel(spec).score(x, sigma)
            assert np.linalg.norm(a - b) < 1e-10 * max(np.linalg.norm(b), 1.0)

    def test_two_cluster_moments(self):
        cloud = two_cluster_cloud(400, 2, seed=8, separation=20.0, spread=0.1)
        model = fit_gmm(cloud, 2, rank=None, seed=0)
        weights = sorted(c.weight for c in model.components)
        np.testing.assert_allclose(weights, [0.5, 0.5], atol=0.01)
        means = sorted(float(c.spectrum.mean[0]) for c in model.components)
        assert abs(means[0] + 10.0) < 0.05
        assert abs(means[1] - 10.0) < 0.05
        # oracle: moments of the known ground-truth partition
        lab = cloud.labels
        for c in model.components:
            side = 0 if c.spectrum.mean[0] > 0 else 1
            mean_true, _ = estimate_moments(cloud.subset(lab == side))
            np.testing.assert_allclose(c.spectrum.mean, mean_true, atol=1e-9)

    def test_rank0_k_equals_n_is_delta(self):
        rng = np.random.default_rng(31)
        cloud = PointCloud(rng.standard_normal((15, 3)))
        model = fit_gmm(cloud, 15, rank=0, seed=0)
        assert all(c.spectrum.rank == 0 for c in model.components)
        for _ in range(50):
            x = rng.standard_normal(3) * 2
            sigma = float(rng.uniform(0.1, 5))
            a = model.score(x, sigma)
            b = DeltaMixtureModel(cloud).score(x, sigma)
            assert np.linalg.norm(a - b) < 1e-10 * max(np.linalg.norm(b), 1.0)

    def test_weights_sum_to_one(self):
        cloud = PointCloud(np.random.default_rng(1).standard_normal((23, 3)))
        model = fit_gmm(cloud, 7, rank=1, seed=0)
        assert abs(sum(c.weight for c in model.components) - 1.0) < 1e-12

    def test_singleton_cluster_zero_covariance(self):
        data = np.vstack([np.zeros((10, 2)) + np.random.default_rng(0).normal(0, 0.1, (10, 2)),
                          [[50.0, 50.0]]])
        cloud = PointCloud(data)
        model = fit_gmm(cloud, 2, rank=None, seed=0)
        outlier = min(model.components, key=lambda c: c.weight)
        assert outlier.spectrum.rank == 0
        np.testing.assert_allclose(outlier.spectrum.mean, [50.0, 50.0])


class TestRankModeSweep:
    def test_self_reference_zero(self):
        cloud = PointCloud(np.random.default_rng(3).standard_normal((40, 4)))
        model = fit_gmm(cloud, 2, rank=None, seed=0)
        table = rank_mode_sweep(cloud, [2], [None], [1.0, 3.0], model, n_probe=32, seed=0)
        assert all(r["mean_uv"] == 0.0 for r in table.rows)

    def test_far_field_single_gaussian(self):
        rng = np.random.default_rng(14)
        cloud = PointCloud(rng.standard_normal((100, 6)))
        ref = DeltaMixtureModel(cloud)
        tr = spectrum_from_cloud(cloud).total_variance
        sigma = 20.0 * np.sqrt(tr)
        table = rank_mode_sweep(cloud, [1], [None], [sigma], ref, n_probe=128, seed=0)
        assert table.rows[0]["mean_uv"] < 1e-3

    def test_monotone_refinement_in_k(self):
        cloud = anchored_five_cluster_cloud(500, 16, seed=4)
        ref = DeltaMixtureModel(cloud)
        table = rank_mode_sweep(cloud, [1, 2, 3, 4, 5], [None], [1.2], ref, n_probe=512, seed=0)
        uv = [table.filter(k=k).rows[0]["mean_uv"] for k in (1, 2, 3, 4, 5)]
        assert all(uv[i + 1] <= uv[i] for i in range(4))

    def test_minimal_rank_nonincreasing_in_sigma(self):
        cloud = anchored_five_cluster_cloud(500, 16, seed=6)
        ref = DeltaMixtureModel(cloud)
        sigmas = [0.3, 0.6, 1.2]
        table = rank_mode_sweep(
            cloud, [5], [1, 2, 4, 8, None], sigmas, ref, n_probe=512, seed=0
        )
        ranks = [minimal_sufficient_rank(table, 5, s) for s in sigmas]
        numeric = [np.inf if r is None else r for r in ranks]
        assert all(numeric[i + 1] <= numeric[i] for i in range(len(sigmas) - 1))

    def test_table_csv(self, tmp_path):
        cloud = PointCloud(np.random.default_rng(5).standard_normal((20, 3)))
        ref = DeltaMixtureModel(cloud)
        table = rank_mode_sweep(cloud, [1, 2], [0, None], [1.0], ref, n_probe=16, seed=0)
        path = tmp_path / "sweep.csv"
        table.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("k,rank,sigma")
        assert len(lines) == 1 + 4

    def test_reference_scored_once_per_sigma(self):
        # Clusters with N >= D, whose spectra take the dense route, then
        # clusters with fewer points than dimensions, which take the N x N
        # Gram route; the ranks include 0, D and more than D.
        cases = [(anchored_five_cluster_cloud(200, 6, seed=8), [0, 1, 6, 9, None]),
                 (anchored_five_cluster_cloud(30, 40, seed=8), [0, 3, 40, 41, None])]
        for cloud, rank_list in cases:
            calls = []

            class CountingDelta(DeltaMixtureModel):
                def score(self, x, sigma):
                    calls.append(float(sigma))
                    return super().score(x, sigma)

            ref = CountingDelta(cloud)
            k_list, sigmas = [1, 3], [0.3, 1.0, 4.0]
            table = rank_mode_sweep(cloud, k_list, rank_list, sigmas, ref, n_probe=24, seed=9)
            assert calls == sigmas

            probe_seeds = np.random.SeedSequence(9).spawn(len(sigmas))
            rows = iter(table.rows)
            for k in k_list:
                assign = minibatch_kmeans_full(cloud, k, seed=9).assignments
                for rank in rank_list:
                    model = gmm_from_assignments(cloud, assign, rank)
                    for j, sigma in enumerate(sigmas):
                        st = unexplained_variance(ref, model, sigma, 24, seed=probe_seeds[j])
                        row = next(rows)
                        assert (row["k"], row["rank"], row["sigma"]) == (k, rank, sigma)
                        assert row["mean_uv"] == st.mean
                        assert row["q25"] == st.q25
                        assert row["q75"] == st.q75
                        assert row["ratio_of_sums"] == st.ratio_of_sums
                        assert row["n_excluded"] == st.n_excluded
            assert next(rows, None) is None

    def test_one_spectrum_fit_per_cluster_and_k(self, monkeypatch):
        fits = []

        def counting_fit(cloud, max_rank=None):
            fits.append(max_rank)
            return spectrum_from_cloud(cloud, max_rank)

        monkeypatch.setattr(scorefield.gmmfit, "spectrum_from_cloud", counting_fit)
        cloud = gaussian_cloud(400, 8, seed=3)
        table = rank_mode_sweep(cloud, [1, 2, 4, 8], [0, 2, None], [0.5, 2.0],
                                DeltaMixtureModel(cloud), n_probe=16, seed=1, max_iter=5)
        assert len(table.rows) == 4 * 3 * 2
        assert fits == [None] * 15

    @pytest.mark.parametrize("shape", [(60, 5), (6, 9)])
    def test_truncated_full_fit_equals_rank_fit_bitwise(self, shape):
        # Two clusters of N/2 points: the dense route for (60, 5), the Gram
        # route (N < D) for (6, 9).
        n, d = shape
        cloud = PointCloud(np.random.default_rng(8).standard_normal(shape) * np.linspace(2.0, 0.1, d))
        assign = np.arange(n) % 2
        full = gmm_from_assignments(cloud, assign, None)
        for r in (0, 1, d, d + 1):
            cut = _truncated(full, r).components
            fit = gmm_from_assignments(cloud, assign, r).components
            assert [c.weight for c in cut] == [c.weight for c in fit]
            for a, b in zip(cut, fit):
                for name in ("mean", "basis", "eigenvalues"):
                    x, y = getattr(a.spectrum, name), getattr(b.spectrum, name)
                    assert x.shape == y.shape and x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("shape", [(40, 3), (12, 20)])
    def test_negative_rank_rejected(self, shape):
        # Both spectrum routes: N >= D and the Gram route (N < D).
        cloud = PointCloud(np.random.default_rng(5).standard_normal(shape))
        with pytest.raises(InvalidData, match="max_rank must be >= 0"):
            gmm_from_assignments(cloud, np.zeros(shape[0], dtype=int), -1)
        with pytest.raises(InvalidData, match="max_rank must be >= 0"):
            rank_mode_sweep(cloud, [1], [2, -1], [1.0], DeltaMixtureModel(cloud), n_probe=4)

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_nonpositive_sigma_rejected(self, sigma):
        cloud = PointCloud(np.random.default_rng(5).standard_normal((20, 3)))
        with pytest.raises(InvalidNoise):
            rank_mode_sweep(cloud, [1], [0], [1.0, sigma], DeltaMixtureModel(cloud), n_probe=4)

    def test_no_probes_rejected(self):
        cloud = PointCloud(np.random.default_rng(5).standard_normal((20, 3)))
        with pytest.raises(InvalidInput):
            rank_mode_sweep(cloud, [1], [0], [1.0], DeltaMixtureModel(cloud), n_probe=0)
