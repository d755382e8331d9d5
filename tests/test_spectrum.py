import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorefield.errors import EmptyInput, InvalidData, InvalidInput
from scorefield.solution import SolutionContext
from scorefield.spectrum import (
    _MOMENT_BLOCK,
    CompactSpectrum,
    PointCloud,
    compact_spectrum,
    estimate_moments,
    spectrum_from_cloud,
)


def manifold_split(spec, x):
    """On-manifold coefficients and off-manifold residual of x - mean."""
    ctx = SolutionContext.create(spec, x, 1.0)
    return ctx.coeffs, ctx.residual


def moments_oracle(data):
    """Independent two-pass reference: mean, then (1/N) sum (y-mu)(y-mu)^T."""
    mu = np.zeros(data.shape[1])
    for row in data:
        mu += row
    mu /= data.shape[0]
    cov = np.zeros((data.shape[1], data.shape[1]))
    for row in data:
        cov += np.outer(row - mu, row - mu)
    return mu, cov / data.shape[0]


class TestEstimateMoments:
    def test_symmetric_pair(self):
        mean, cov = estimate_moments(PointCloud([[1.0, 0.0], [-1.0, 0.0]]))
        np.testing.assert_allclose(mean, [0.0, 0.0])
        np.testing.assert_allclose(cov, np.diag([1.0, 0.0]))

    def test_single_point(self):
        y = np.array([2.0, -3.0, 0.5])
        mean, cov = estimate_moments(PointCloud(y[None, :]))
        np.testing.assert_array_equal(mean, y)
        np.testing.assert_array_equal(cov, np.zeros((3, 3)))

    def test_against_reference_and_standard_error(self):
        rng = np.random.default_rng(7)
        true = np.diag([4.0, 1.0])
        data = rng.standard_normal((100, 2)) * np.sqrt(np.diag(true))
        mean, cov = estimate_moments(PointCloud(data))
        mu_ref, cov_ref = moments_oracle(data)
        np.testing.assert_allclose(mean, mu_ref, atol=1e-12)
        np.testing.assert_allclose(cov, cov_ref, atol=1e-12)
        # elementwise 3 standard errors around the sampling truth
        n = 100
        for j in range(2):
            for k in range(2):
                se = np.sqrt((true[j, j] * true[k, k] + true[j, k] ** 2) / n)
                assert abs(cov[j, k] - true[j, k]) < 3 * se

    def test_symmetric_psd(self):
        rng = np.random.default_rng(3)
        _, cov = estimate_moments(PointCloud(rng.standard_normal((40, 6))))
        np.testing.assert_allclose(cov, cov.T, atol=1e-14)
        assert np.min(np.linalg.eigvalsh(cov)) > -1e-12

    def test_empty_cloud_rejected(self):
        with pytest.raises(EmptyInput):
            PointCloud(np.empty((0, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidData):
            PointCloud([[1.0, np.nan]])


def one_shot_moments(data):
    """The single-GEMM estimate: (y - mu)^T (y - mu) / N over the whole cloud."""
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / data.shape[0]
    return mean, 0.5 * (cov + cov.T)


@pytest.fixture(scope="module")
def multi_chunk_data():
    """A cloud of three full row chunks plus a partial one (D = 64)."""
    d = 64
    rows = _MOMENT_BLOCK // d
    rng = np.random.default_rng(11)
    scale = np.linspace(3.0, 0.1, d)
    return 5.0 + rng.standard_normal((3 * rows + 123, d)) * scale


class TestStreamedMoments:
    def test_one_chunk_bitwise_equal_to_one_shot(self):
        d = 64
        rng = np.random.default_rng(5)
        data = 2.0 + rng.standard_normal((_MOMENT_BLOCK // d, d))
        mean, cov = estimate_moments(PointCloud(data))
        mean_ref, cov_ref = one_shot_moments(data)
        assert mean.tobytes() == mean_ref.tobytes()
        assert cov.tobytes() == cov_ref.tobytes()

    def test_multi_chunk_matches_one_shot(self, multi_chunk_data):
        mean, cov = estimate_moments(PointCloud(multi_chunk_data))
        mean_ref, cov_ref = one_shot_moments(multi_chunk_data)
        assert mean.tobytes() == mean_ref.tobytes()
        assert np.max(np.abs(cov - cov_ref)) <= 1e-12 * np.max(np.abs(cov_ref))
        np.testing.assert_array_equal(cov, cov.T)

    def test_fit_holds_one_chunk_not_a_centered_copy(self, multi_chunk_data):
        cloud = PointCloud(multi_chunk_data)
        tracemalloc.start()
        try:
            spectrum_from_cloud(cloud)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One centered chunk is _MOMENT_BLOCK doubles (8 MiB), under a third
        # of this cloud; a centered copy of the cloud would be all of it.
        assert peak < cloud.data.nbytes / 2


def reference_moments(data):
    """``estimate_moments`` with a fresh product per chunk and an
    unconditional 0.5 (cov + cov^T)."""
    mean = data.mean(axis=0)
    step = max(1, _MOMENT_BLOCK // data.shape[1])
    rows = data[:step] - mean
    cov = rows.T @ rows
    for start in range(step, data.shape[0], step):
        rows = data[start:start + step] - mean
        cov += rows.T @ rows
    cov /= data.shape[0]
    return mean, 0.5 * (cov + cov.T)


def reference_truncate(basis, eigvals, max_rank):
    """Boolean-mask the modes above the floor, cap the rank, then flip
    each column so its largest-magnitude entry is positive, out of place."""
    keep = eigvals > 1e-10 * max(eigvals[0] if eigvals.size else 0.0, 0.0)
    basis, eigvals = basis[:, keep][:, :max_rank], eigvals[keep][:max_rank]
    if basis.size:
        idx = np.argmax(np.abs(basis), axis=0)
        signs = np.sign(basis[idx, np.arange(basis.shape[1])])
        signs[signs == 0] = 1.0
        basis = basis * signs
    return basis, eigvals


def reference_dense(cov, max_rank=None):
    eigvals, eigvecs = np.linalg.eigh(0.5 * (cov + cov.T))
    order = np.argsort(eigvals)[::-1]
    return reference_truncate(eigvecs[:, order], eigvals[order], max_rank)


def reference_gram(data, max_rank=None):
    n = data.shape[0]
    centered = data - data.mean(axis=0)
    gram = centered @ centered.T / n
    eigvals, eigvecs = np.linalg.eigh(0.5 * (gram + gram.T))
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    pos = eigvals > 0
    basis = centered.T @ eigvecs[:, pos] / np.sqrt(n * eigvals[pos])
    return reference_truncate(basis, eigvals[pos], max_rank)


def assert_same_bits(spec, basis, eigvals):
    assert spec.basis.shape == basis.shape
    assert spec.basis.tobytes() == np.ascontiguousarray(basis).tobytes()
    assert spec.eigenvalues.tobytes() == eigvals.tobytes()


RANKS = [None, 5, 0]


class TestLeanFit:
    """The fit keeps the bits of the formulas that held extra copies."""

    @pytest.mark.parametrize("max_rank", RANKS)
    def test_dense_route_bitwise(self, multi_chunk_data, max_rank):
        for data in (multi_chunk_data, multi_chunk_data[:500, :30]):
            mean, cov = estimate_moments(PointCloud(data))
            mean_ref, cov_ref = reference_moments(data)
            assert mean.tobytes() == mean_ref.tobytes()
            assert cov.tobytes() == cov_ref.tobytes()
            spec = spectrum_from_cloud(PointCloud(data), max_rank)
            assert_same_bits(spec, *reference_dense(cov_ref, max_rank))

    @pytest.mark.parametrize("max_rank", RANKS)
    def test_gram_route_bitwise(self, max_rank):
        rng = np.random.default_rng(21)
        data = rng.standard_normal((60, 200)) * np.linspace(3.0, 0.01, 200) + 1.0
        spec = spectrum_from_cloud(PointCloud(data), max_rank)
        assert_same_bits(spec, *reference_gram(data, max_rank))

    @pytest.mark.parametrize("max_rank", RANKS)
    def test_nearly_symmetric_covariance_bitwise(self, max_rank):
        rng = np.random.default_rng(22)
        a = rng.standard_normal((40, 12))
        cov = a.T @ a / 40
        cov[0, 5] += 1e-9 * np.max(np.abs(cov))  # inside the 1e-8 tolerance
        assert not np.array_equal(cov, cov.T)
        spec = compact_spectrum(np.zeros(12), cov, max_rank)
        assert_same_bits(spec, *reference_dense(cov, max_rank))

    def test_gram_route_peak_memory(self):
        cloud = PointCloud(np.random.default_rng(23).standard_normal((500, 4000)))
        tracemalloc.start()
        try:
            spectrum_from_cloud(cloud)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The centered copy and the D x N basis, never both beside a scaled,
        # kept-column or signed copy.
        assert peak <= 3 * cloud.data.nbytes


class TestCompactSpectrum:
    def test_diagonal(self):
        spec = compact_spectrum(np.zeros(2), np.diag([3.0, 0.0]), max_rank=2)
        assert spec.rank == 1
        np.testing.assert_allclose(spec.eigenvalues, [3.0])
        np.testing.assert_allclose(np.abs(spec.basis[:, 0]), [1.0, 0.0], atol=1e-14)
        assert spec.basis[0, 0] > 0  # sign fixed: largest-magnitude entry positive

    def test_zero_matrix(self):
        spec = compact_spectrum(np.zeros(3), np.zeros((3, 3)))
        assert spec.rank == 0
        assert spec.basis.shape == (3, 0)

    def test_random_rank3_reconstruction(self):
        rng = np.random.default_rng(11)
        b = rng.standard_normal((8, 3))
        cov = b @ b.T
        spec = compact_spectrum(np.zeros(8), cov)
        assert spec.rank == 3
        # oracle: dense eigendecomposition reconstruction
        w, v = np.linalg.eigh(cov)
        dense = (v * np.clip(w, 0, None)) @ v.T
        assert np.linalg.norm(spec.covariance() - dense, "fro") < 1e-9
        assert np.linalg.norm(spec.covariance() - cov, "fro") < 1e-9

    def test_truncation_error_equals_dropped_tail(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal((6, 6))
        cov = b @ b.T
        full = compact_spectrum(np.zeros(6), cov)
        trunc = compact_spectrum(np.zeros(6), cov, max_rank=3)
        tail = np.sqrt(np.sum(full.eigenvalues[3:] ** 2))
        err = np.linalg.norm(trunc.covariance() - cov, "fro")
        np.testing.assert_allclose(err, tail, rtol=1e-9)

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidData):
            compact_spectrum(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_empty_mean_rejected(self):
        with pytest.raises(EmptyInput, match="D >= 1"):
            CompactSpectrum(np.zeros(0), np.zeros((0, 0)), np.zeros(0))

    @pytest.mark.parametrize("mean, basis, eigs", [
        ([np.nan, 0.0], np.zeros((2, 0)), []),
        ([0.0, np.inf], np.zeros((2, 0)), []),
        ([0.0, 0.0], [[np.nan], [0.0]], [1.0]),
        ([0.0, 0.0], [[1.0], [0.0]], [np.inf]),
        ([0.0, 0.0], [[1.0], [0.0]], [np.nan]),
    ])
    def test_non_finite_entries_rejected(self, mean, basis, eigs):
        with pytest.raises(InvalidData, match="must be finite"):
            CompactSpectrum(np.asarray(mean), np.asarray(basis), np.asarray(eigs))

    def test_invariant_validation(self):
        with pytest.raises(InvalidData):
            CompactSpectrum(np.zeros(2), np.eye(2), [1.0, 2.0])  # ascending
        with pytest.raises(InvalidData):
            CompactSpectrum(np.zeros(2), np.ones((2, 2)), [1.0, 0.5])  # not orthonormal


class TestSpectrumFromCloud:
    def test_two_points(self):
        spec = spectrum_from_cloud(PointCloud([[1.0, 0.0], [-1.0, 0.0]]))
        assert spec.rank == 1
        np.testing.assert_allclose(spec.eigenvalues, [1.0])
        np.testing.assert_allclose(np.abs(spec.basis[:, 0]), [1.0, 0.0], atol=1e-14)

    def test_gram_route_high_dim(self):
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.standard_normal((5, 1000)))
        spec = spectrum_from_cloud(cloud)
        assert spec.rank <= 4
        # oracle: dense D x D eigendecomposition of the population covariance
        _, cov = estimate_moments(cloud)
        assert np.linalg.norm(spec.covariance() - cov, "fro") < 1e-8

    def test_single_point(self):
        spec = spectrum_from_cloud(PointCloud([[1.0, 2.0, 3.0]]))
        assert spec.rank == 0

    def test_gram_dense_eigenvalue_agreement(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((12, 30)) @ np.diag(np.linspace(2, 0.1, 30))
        cloud = PointCloud(data)
        gram_spec = spectrum_from_cloud(cloud)  # N < D: Gram route
        mean, cov = estimate_moments(cloud)
        dense_spec = compact_spectrum(mean, cov)
        n = min(gram_spec.rank, dense_spec.rank)
        np.testing.assert_allclose(
            gram_spec.eigenvalues[:n], dense_spec.eigenvalues[:n], rtol=1e-9
        )

    def test_idempotence_on_manifold(self):
        # cloud sampled exactly on mean + span(U) recovers the same subspace
        rng = np.random.default_rng(9)
        u, _ = np.linalg.qr(rng.standard_normal((10, 2)))
        mu = rng.standard_normal(10)
        cloud = PointCloud(mu + rng.standard_normal((50, 2)) @ u.T)
        spec = spectrum_from_cloud(cloud)
        assert spec.rank == 2
        overlap = np.linalg.svd(u.T @ spec.basis, compute_uv=False)
        angles = np.arccos(np.clip(overlap, -1, 1))
        assert np.max(angles) < 1e-8


class TestManifoldSplit:
    def _spec(self, seed=3, d=6, r=2):
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.standard_normal((d, r)))
        return CompactSpectrum(rng.standard_normal(d), u, np.sort(rng.uniform(0.5, 2, r))[::-1])

    def test_at_mean(self):
        spec = self._spec()
        coeffs, residual = manifold_split(spec, spec.mean)
        np.testing.assert_array_equal(coeffs, np.zeros(2))
        np.testing.assert_array_equal(residual, np.zeros(6))

    def test_on_manifold_point(self):
        spec = self._spec()
        coeffs, residual = manifold_split(spec, spec.mean + 2.0 * spec.basis[:, 0])
        np.testing.assert_allclose(coeffs, [2.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(residual, np.zeros(6), atol=1e-14)

    def test_reconstruction(self):
        spec = self._spec(seed=3)
        x = np.random.default_rng(3).standard_normal(6)
        coeffs, residual = manifold_split(spec, x)
        np.testing.assert_allclose(spec.mean + spec.basis @ coeffs + residual, x, atol=1e-12)
        np.testing.assert_allclose(spec.basis.T @ residual, np.zeros(2), atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            manifold_split(self._spec(), np.zeros(5))


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    d=st.integers(1, 12),
    r=st.integers(0, 4),
)
def test_reconstruction_property(seed, d, r):
    rng = np.random.default_rng(seed)
    r = min(r, d)
    u, _ = np.linalg.qr(rng.standard_normal((d, max(r, 1))))
    spec = CompactSpectrum(
        rng.standard_normal(d), u[:, :r], np.sort(rng.uniform(0.1, 3, r))[::-1]
    )
    x = rng.standard_normal(d)
    coeffs, residual = manifold_split(spec, x)
    np.testing.assert_allclose(spec.mean + spec.basis @ coeffs + residual, x, atol=1e-12)
