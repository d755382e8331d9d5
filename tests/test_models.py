import re
import tracemalloc
import warnings

import numpy as np
import pytest

from scorefield.errors import InvalidNoise, WrongVariant
from scorefield.gmmfit import fit_gmm
from scorefield.models import (
    _BLOCK,
    DeltaMixtureModel,
    GaussianComponent,
    GaussianModel,
    IsotropicModel,
    MixtureModel,
    delta_denoise,
    delta_score,
    gaussian_denoise,
    gaussian_score,
    gmm_score,
    iso_score,
    mixture_weights,
)
from scorefield.spectrum import CompactSpectrum, PointCloud, spectrum_from_cloud


def random_spectrum(seed, d, r, lam_range=(0.1, 4.0), mean_scale=1.0):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((d, max(r, 1))))
    lam = np.sort(rng.uniform(*lam_range, r))[::-1]
    return CompactSpectrum(mean_scale * rng.standard_normal(d), u[:, :r], lam)


def zero_cov_spectrum(mean):
    mean = np.asarray(mean, dtype=float)
    return CompactSpectrum(mean, np.zeros((mean.size, 0)), np.zeros(0))


class TestIsoScore:
    def test_zero_at_mean(self):
        mu = np.array([1.0, -2.0])
        np.testing.assert_array_equal(iso_score(mu, mu, 3.0), np.zeros(2))

    def test_hand_values(self):
        np.testing.assert_allclose(iso_score(np.zeros(2), [2.0, 0.0], 1.0), [-2.0, 0.0])
        np.testing.assert_allclose(iso_score(np.zeros(2), [2.0, 0.0], 2.0), [-0.5, 0.0])

    def test_sigma_validation(self):
        with pytest.raises(InvalidNoise):
            iso_score(np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(InvalidNoise):
            iso_score(np.zeros(2), np.zeros(2), -1.0)


class TestGaussianScore:
    def test_zero_at_mean(self):
        spec = random_spectrum(1, 5, 2)
        np.testing.assert_allclose(gaussian_score(spec, spec.mean, 0.7), np.zeros(5), atol=1e-14)

    def test_hand_value_via_dense_inverse(self):
        # mu = 0, Sigma = diag(3, 0), sigma = 1, x = (1, 1):
        # (sigma^2 I + Sigma)^-1 (mu - x) = diag(1/4, 1) (-1, -1) = (-1/4, -1)
        spec = CompactSpectrum(np.zeros(2), np.array([[1.0], [0.0]]), [3.0])
        np.testing.assert_allclose(gaussian_score(spec, [1.0, 1.0], 1.0), [-0.25, -1.0])

    def test_matches_dense_inverse(self):
        spec = random_spectrum(12, 7, 3)
        x = np.random.default_rng(5).standard_normal(7)
        sigma = 0.9
        dense = np.linalg.solve(sigma**2 * np.eye(7) + spec.covariance(), spec.mean - x)
        np.testing.assert_allclose(gaussian_score(spec, x, sigma), dense, rtol=1e-12, atol=1e-13)

    def test_rank0_reduces_to_iso(self):
        spec = zero_cov_spectrum([0.5, -1.0, 2.0])
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(3)
            sigma = rng.uniform(0.1, 10)
            np.testing.assert_array_equal(
                gaussian_score(spec, x, sigma), iso_score(spec.mean, x, sigma)
            )

    def test_small_sigma_accuracy_against_dense_solve(self):
        # The score is derived from the denoiser as (D - x) / sigma^2; that
        # cancellation and the conditioning of sigma^2 I + Sigma bound the
        # error by about eps * (1 + lam_max / sigma^2).
        spec = random_spectrum(61, 8, 3)
        x = spec.mean + np.random.default_rng(61).standard_normal((4, 8))
        lam_max = spec.eigenvalues.max()
        for sigma in (1e-4, 1e-3, 1e-2, 0.1, 1.0):
            cov = sigma**2 * np.eye(8) + spec.covariance()
            dense = np.linalg.solve(cov, (spec.mean - x).T).T
            err = np.linalg.norm(gaussian_score(spec, x, sigma) - dense) / np.linalg.norm(dense)
            assert err <= 1e-15 * (1.0 + lam_max / sigma**2)


class TestGaussianDenoise:
    def test_large_sigma_limit(self):
        spec = random_spectrum(2, 6, 3, lam_range=(0.2, 1.0))
        x = spec.mean + 3.0 * spec.basis[:, 0]
        out = gaussian_denoise(spec, x, 1e6)
        assert np.linalg.norm(out - spec.mean) < 1e-5

    def test_single_axis_shrinkage(self):
        spec = CompactSpectrum(np.array([1.0, 1.0]), np.array([[1.0], [0.0]]), [3.0])
        out = gaussian_denoise(spec, spec.mean + spec.basis[:, 0], 1.0)
        np.testing.assert_allclose(out, spec.mean + 0.75 * spec.basis[:, 0])

    def test_rank0_returns_mean(self):
        spec = zero_cov_spectrum([1.0, 2.0])
        np.testing.assert_array_equal(gaussian_denoise(spec, [5.0, -7.0], 0.3), spec.mean)


class TestMixtureWeights:
    def test_equidistant_symmetry(self):
        model = DeltaMixtureModel(PointCloud([[1.0, 0.0], [-1.0, 0.0]]))
        for sigma in (0.05, 1.0, 30.0):
            np.testing.assert_allclose(
                mixture_weights(model, [0.0, 5.0], sigma), [0.5, 0.5], atol=1e-15
            )

    def test_one_hot_at_small_sigma(self):
        model = DeltaMixtureModel(PointCloud([[1.0, 0.0], [-1.0, 0.0]]))
        w = mixture_weights(model, [1.0, 0.0], 0.1)
        # log-weight gap is 2 / (2 * 0.01) = 200, so w_2 = exp(-200) < 1e-20
        assert w[0] >= 1.0 - 1e-20
        assert w[1] < 1e-20

    def test_uniform_at_large_sigma(self):
        rng = np.random.default_rng(8)
        cloud = PointCloud(rng.standard_normal((7, 3)))
        model = DeltaMixtureModel(cloud)
        w = mixture_weights(model, rng.standard_normal(3), 1e4)
        np.testing.assert_allclose(w, np.full(7, 1.0 / 7), atol=1e-6)
        comps = tuple(
            GaussianComponent(1.0 / 3, random_spectrum(s, 3, 1)) for s in (1, 2, 3)
        )
        gmm = MixtureModel(comps)
        w = mixture_weights(gmm, rng.standard_normal(3), 1e4)
        np.testing.assert_allclose(w, np.full(3, 1.0 / 3), atol=1e-6)

    def test_log_space_safety(self):
        # separations up to 1e3 at sigma = 1e-6 stay finite via max subtraction
        cloud = PointCloud([[0.0, 0.0], [1e3, 0.0], [0.0, 1e3]])
        model = DeltaMixtureModel(cloud)
        w = mixture_weights(model, [1.0, 1.0], 1e-6)
        assert np.all(np.isfinite(w))
        np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)

    def test_wrong_variant(self):
        with pytest.raises(WrongVariant):
            mixture_weights(IsotropicModel(np.zeros(2)), np.zeros(2), 1.0)

    def test_weights_match_dense_densities(self):
        # oracle: multivariate normal log-densities via dense covariance
        comps = tuple(
            GaussianComponent(w, random_spectrum(s, 4, 2))
            for w, s in ((0.3, 21), (0.7, 22))
        )
        model = MixtureModel(comps)
        x = np.random.default_rng(1).standard_normal(4)
        sigma = 0.8
        logps = []
        for c in comps:
            cov = sigma**2 * np.eye(4) + c.spectrum.covariance()
            diff = x - c.spectrum.mean
            _, logdet = np.linalg.slogdet(cov)
            q = diff @ np.linalg.solve(cov, diff)
            logps.append(np.log(c.weight) - 0.5 * (4 * np.log(2 * np.pi) + logdet + q))
        logps = np.asarray(logps)
        expected = np.exp(logps - logps.max())
        expected /= expected.sum()
        np.testing.assert_allclose(mixture_weights(model, x, sigma), expected, rtol=1e-10)


class TestGmmScore:
    def test_single_mode_equals_gaussian(self):
        spec = random_spectrum(31, 5, 2)
        model = MixtureModel((GaussianComponent(1.0, spec),))
        x = np.random.default_rng(2).standard_normal(5)
        a = gmm_score(model, x, 1.3)
        b = gaussian_score(spec, x, 1.3)
        np.testing.assert_allclose(a, b, rtol=1e-14, atol=0)

    def test_two_isotropic_modes_hand_value(self):
        comps = (
            GaussianComponent(0.5, zero_cov_spectrum([1.0, 0.0])),
            GaussianComponent(0.5, zero_cov_spectrum([-1.0, 0.0])),
        )
        model = MixtureModel(comps)
        np.testing.assert_allclose(gmm_score(model, [0.0, 2.0], 1.0), [0.0, -2.0], atol=1e-14)

    def test_one_hot_regime_matches_component(self):
        comps = (
            GaussianComponent(0.5, random_spectrum(41, 4, 2, mean_scale=0.2)),
            GaussianComponent(
                0.5,
                CompactSpectrum(
                    np.array([50.0, 0.0, 0.0, 0.0]), np.zeros((4, 0)), np.zeros(0)
                ),
            ),
        )
        model = MixtureModel(comps)
        x = comps[0].spectrum.mean + 0.05
        sigma = 0.5
        w = mixture_weights(model, x, sigma)
        assert w[0] > 1 - 1e-12
        np.testing.assert_allclose(
            gmm_score(model, x, sigma),
            gaussian_score(comps[0].spectrum, x, sigma),
            atol=1e-10,
        )

    def test_all_logits_underflow_keeps_limit(self):
        # At x = 1e5, sigma = 1e-150 every Gaussian log-density of the row is
        # -inf; the nearer mean must take all the weight.
        model = MixtureModel((
            GaussianComponent(0.5, zero_cov_spectrum([0.0])),
            GaussianComponent(0.5, zero_cov_spectrum([1.0])),
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            np.testing.assert_array_equal(model.denoise([1e5], 1e-150), [1.0])
            x = np.array([[1e5], [-1e5], [0.3], [0.5]])
            out = model.denoise(x, 1e-150)
            np.testing.assert_array_equal(out, [[1.0], [0.0], [0.0], [0.5]])
            for i in range(x.shape[0]):
                np.testing.assert_array_equal(out[i], model.denoise(x[i], 1e-150))

    def test_rows_with_finite_logits_unchanged_beside_lost_rows(self):
        model = MixtureModel((
            GaussianComponent(0.3, random_spectrum(51, 3, 2)),
            GaussianComponent(0.7, random_spectrum(52, 3, 1)),
        ))
        # At sigma = 1e-150 the rows at 1e5 lose every logit to -inf; the
        # rows near the means keep finite logits, which must not move.
        x = np.random.default_rng(8).standard_normal((5, 3))
        far = np.full((2, 3), 1e5)
        alone = model._log_weights(x, 1e-150)
        mixed = model._log_weights(np.vstack([x, far]), 1e-150)
        assert np.all(np.isfinite(alone))
        np.testing.assert_array_equal(mixed[:5], alone)
        assert np.all(np.isfinite(mixed[5:].max(axis=1)))


def loop_log_weights(model, xb, sigma):
    """Mixture logits one component at a time: the evaluation that the
    stacked kernel replaced, kept as its bitwise reference."""
    d = model.dim
    const = d * np.log(2.0 * np.pi)
    columns = []
    for comp in model.components:
        spec = comp.spectrum
        diff = xb - spec.mean
        quad = np.einsum("md,md->m", diff, diff)
        logdet = d * 2.0 * np.log(sigma)
        if spec.rank:
            shrink = spec.eigenvalues / (spec.eigenvalues + sigma**2)
            c = np.einsum("md,dr->mr", diff, spec.basis)
            quad = quad - np.einsum("mr,r->m", c**2, shrink)
            logdet = (d - spec.rank) * 2.0 * np.log(sigma) + np.sum(
                np.log(spec.eigenvalues + sigma**2)
            )
        columns.append(np.log(comp.weight) - 0.5 * (const + logdet + quad / sigma**2))
    return np.column_stack(columns)


def loop_weights_and_denoise(model, xb, sigma):
    logits = loop_log_weights(model, xb, sigma)
    w = np.exp(logits - logits.max(axis=1, keepdims=True))
    w = w / w.sum(axis=1, keepdims=True)
    out = np.zeros_like(xb)
    for i, comp in enumerate(model.components):
        out += w[:, i : i + 1] * gaussian_denoise(comp.spectrum, xb, sigma)
    return w, out


def ranked_mixture(seed, d, ranks):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.5, len(ranks))
    weights /= weights.sum()
    weights[-1] = 1.0 - weights[:-1].sum()
    return MixtureModel(tuple(
        GaussianComponent(float(w), random_spectrum(seed + 1 + i, d, r, mean_scale=2.0))
        for i, (w, r) in enumerate(zip(weights, ranks))
    ))


class TestStackedMixture:
    # (dim, component ranks): the ensemble's fitted shape, the sweep's K = 8
    # cells (rank 0, 2 and full), one component, and unequal ranks whose
    # groups interleave in component order.
    CASES = [
        (16, [3] * 4),
        (64, [0] * 8),
        (64, [2] * 8),
        (64, [64] * 8),
        (6, [2]),
        (16, [3, 0, 5, 3, 16, 0, 1]),
    ]

    @pytest.mark.parametrize("dim, ranks", CASES)
    def test_matches_per_component_loop_bitwise(self, dim, ranks):
        model = ranked_mixture(len(ranks) + dim, dim, ranks)
        rng = np.random.default_rng(dim)
        x = 2.0 * rng.standard_normal((300, dim))
        for sigma in (0.05, 0.5, 2.0, 8.0, 80.0, 1e6):
            w, out = loop_weights_and_denoise(model, x, sigma)
            np.testing.assert_array_equal(model._log_weights(x, sigma), loop_log_weights(model, x, sigma))
            np.testing.assert_array_equal(model.posterior_weights(x, sigma), w)
            np.testing.assert_array_equal(model.denoise(x, sigma), out)

    @pytest.mark.parametrize("dim, ranks", CASES)
    def test_single_rows_match_batch_bitwise(self, dim, ranks):
        model = ranked_mixture(len(ranks) + dim, dim, ranks)
        x = 2.0 * np.random.default_rng(dim + 1).standard_normal((300, dim))
        for sigma in (0.05, 2.0):
            batch = model.denoise(x, sigma)
            for i in (0, 1, 150, 299):
                np.testing.assert_array_equal(model.denoise(x[i], sigma), batch[i])

    def test_stacked_arrays_are_read_only(self):
        model = ranked_mixture(3, 16, [3, 0, 3])
        arrays = [model._log_pi, model._means]
        for _, bases, eigs in model._groups:
            arrays += [bases, eigs]
        assert not any(a.flags.writeable for a in arrays)

    def test_denoise_peak_memory_follows_chunk_budget(self):
        # Stacked over all 64 components, one 256-row chunk of (K, rows, D)
        # differences alone would take 98 MiB.
        model = ranked_mixture(71, 784, [4] * 64)
        x = np.random.default_rng(72).standard_normal((256, 784))
        tracemalloc.start()
        try:
            model.denoise(x, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("rank", [0, None])
    def test_top_of_sigma_domain_stays_finite(self, rank):
        # At sigma = 1e154, |x - mu|^2 overflows for probes x ~ sigma z.
        rng = np.random.default_rng(81)
        model = fit_gmm(PointCloud(rng.standard_normal((50, 4))), 2, rank=rank, seed=0)
        x = 1e154 * rng.standard_normal((8, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = model.denoise(x, 1e154)
            score = model.score(x, 1e154)
            w = model.posterior_weights(x, 1e154)
        assert np.all(np.isfinite(out)) and np.all(np.isfinite(score))
        # At sigma far above the cloud the posterior is the prior.
        np.testing.assert_allclose(w, np.tile([c.weight for c in model.components], (8, 1)))

    def test_rows_with_finite_forms_unchanged_beside_overflowing_rows(self):
        model = ranked_mixture(91, 4, [2, 4])
        x = np.random.default_rng(92).standard_normal((5, 4))
        far = 1e154 * np.random.default_rng(93).standard_normal((3, 4))
        mixed = model._log_weights(np.vstack([x, far]), 1e154)
        np.testing.assert_array_equal(mixed[:5], model._log_weights(x, 1e154))
        assert np.all(np.isfinite(mixed))


class TestDeltaScore:
    def test_single_point(self):
        y = np.array([[2.0, 1.0]])
        cloud = PointCloud(y)
        for sigma in (0.3, 2.0):
            x = np.array([0.5, -0.5])
            np.testing.assert_allclose(
                delta_score(cloud, x, sigma), (y[0] - x) / sigma**2, rtol=1e-14
            )

    def test_symmetry_zero(self):
        cloud = PointCloud([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_allclose(delta_score(cloud, [0.0, 0.0], 1.0), np.zeros(2), atol=1e-15)

    def test_hand_value(self):
        cloud = PointCloud([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_allclose(delta_score(cloud, [0.0, 2.0], 1.0), [0.0, -2.0], rtol=1e-14)


class TestDeltaDenoise:
    def test_small_sigma_snaps_to_nearest(self):
        cloud = PointCloud([[0.0, 0.0], [1.0, 0.0]])
        out = delta_denoise(cloud, [0.2, 0.05], 1e-4)
        np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-10)

    def test_large_sigma_pulls_to_mean(self):
        rng = np.random.default_rng(6)
        cloud = PointCloud(rng.standard_normal((9, 4)))
        out = delta_denoise(cloud, rng.standard_normal(4), 1e5)
        np.testing.assert_allclose(out, cloud.data.mean(axis=0), atol=1e-6)

    def test_bisector_midpoint(self):
        cloud = PointCloud([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_allclose(delta_denoise(cloud, [0.0, 3.0], 0.7), [0.0, 0.0], atol=1e-15)

    def test_convex_hull_box(self):
        rng = np.random.default_rng(13)
        cloud = PointCloud(rng.uniform(-1, 1, (20, 3)))
        for sigma in (0.01, 0.5, 50.0):
            out = delta_denoise(cloud, rng.standard_normal(3) * 3, sigma)
            assert np.all(out >= cloud.data.min(axis=0) - 1e-12)
            assert np.all(out <= cloud.data.max(axis=0) + 1e-12)

    def test_all_logits_underflow_snaps_to_nearest(self):
        # At x = 1e5, sigma = 1e-150 every -|x - y_i|^2 / (2 sigma^2) is -inf.
        cloud = PointCloud([[0.0], [1.0]])
        x = np.array([[1e5], [-1e5], [0.3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = delta_denoise(cloud, x, 1e-150)
            np.testing.assert_array_equal(out, [[1.0], [0.0], [0.0]])
            for i in range(x.shape[0]):
                np.testing.assert_array_equal(out[i], delta_denoise(cloud, x[i], 1e-150))
            tied = DeltaMixtureModel(PointCloud([[-1.0, 0.0], [1.0, 0.0], [0.0, 3.0]]))
            np.testing.assert_array_equal(
                tied.posterior_weights([0.0, -1e5], 1e-150), [0.5, 0.5, 0.0]
            )


class TestDeltaStreaming:
    @pytest.mark.parametrize("rows, dim", [(1, 7), (300, 7), (2, 40000)])
    def test_log_weights_match_full_difference_tensor_bitwise(self, rows, dim):
        step = max(1, _BLOCK // (rows * dim))
        n = 3 * step + 1  # three full blocks of training points and a partial one
        rng = np.random.default_rng(rows + dim)
        cloud = PointCloud(rng.standard_normal((n, dim)))
        x = rng.standard_normal((rows, dim))
        sigma = 0.7
        diff = x[:, None, :] - cloud.data[None, :, :]
        full = -np.einsum("mnd,mnd->mn", diff, diff) / (2.0 * sigma**2)
        np.testing.assert_array_equal(DeltaMixtureModel(cloud)._log_weights(x, sigma), full)

    def test_denoise_peak_memory_is_bounded(self):
        # The whole (256, 4000, 64) difference tensor alone would take 500 MiB.
        rng = np.random.default_rng(61)
        model = DeltaMixtureModel(PointCloud(rng.standard_normal((4000, 64))))
        x = rng.standard_normal((256, 64))
        tracemalloc.start()
        try:
            model.denoise(x, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


def all_models(seed=17, d=5):
    rng = np.random.default_rng(seed)
    cloud = PointCloud(rng.standard_normal((8, d)))
    spec = spectrum_from_cloud(cloud)
    comps = tuple(
        GaussianComponent(w, random_spectrum(s, d, 2))
        for w, s in ((0.25, 101), (0.75, 102))
    )
    return [
        IsotropicModel(rng.standard_normal(d)),
        GaussianModel(spec),
        MixtureModel(comps),
        DeltaMixtureModel(cloud),
    ]


class TestInvariants:
    def test_denoiser_score_duality(self):
        # D(x, sigma) = x + sigma^2 s(x, sigma) for every variant
        rng = np.random.default_rng(23)
        for model in all_models():
            for _ in range(100):
                x = 3.0 * rng.standard_normal(model.dim)
                sigma = float(rng.uniform(0.05, 20.0))
                lhs = model.denoise(x, sigma)
                rhs = x + sigma**2 * model.score(x, sigma)
                scale = max(np.linalg.norm(lhs), 1e-12)
                assert np.linalg.norm(lhs - rhs) / scale < 1e-10

    def test_reduction_k1_equals_gaussian(self):
        spec = random_spectrum(51, 6, 3)
        mix = MixtureModel((GaussianComponent(1.0, spec),))
        gauss = GaussianModel(spec)
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.standard_normal(6) * 2
            sigma = float(rng.uniform(0.1, 10))
            np.testing.assert_array_equal(mix.score(x, sigma), gauss.score(x, sigma))

    def test_reduction_zero_cov_mixture_equals_delta(self):
        rng = np.random.default_rng(29)
        cloud = PointCloud(rng.standard_normal((6, 3)))
        delta = DeltaMixtureModel(cloud)
        comps = tuple(
            GaussianComponent(1.0 / 6, zero_cov_spectrum(y)) for y in cloud.data
        )
        mix = MixtureModel(comps)
        for _ in range(100):
            x = rng.standard_normal(3) * 2
            sigma = float(rng.uniform(0.1, 10))
            a, b = mix.score(x, sigma), delta.score(x, sigma)
            assert np.linalg.norm(a - b) <= 1e-10 * max(np.linalg.norm(b), 1.0)

    def test_reduction_rank0_equals_isotropic(self):
        mu = np.array([0.3, -0.6, 1.1])
        gauss = GaussianModel(zero_cov_spectrum(mu))
        iso = IsotropicModel(mu)
        rng = np.random.default_rng(31)
        for _ in range(100):
            x = rng.standard_normal(3)
            sigma = float(rng.uniform(0.1, 10))
            np.testing.assert_array_equal(gauss.score(x, sigma), iso.score(x, sigma))

    def test_far_field_convergence(self):
        rng = np.random.default_rng(37)
        cloud = PointCloud(rng.standard_normal((50, 8)))
        delta = DeltaMixtureModel(cloud)
        gauss = GaussianModel.from_cloud(cloud)
        tr = gauss.spectrum.total_variance
        z = rng.standard_normal((64, 8))
        prev = np.inf
        for c in (1, 2, 5, 10, 20, 50):
            sigma = c * np.sqrt(tr)
            x = sigma * z
            s_ref = delta.score(x, sigma)
            s_app = gauss.score(x, sigma)
            num = np.einsum("md,md->m", s_ref - s_app, s_ref - s_app)
            den = np.einsum("md,md->m", s_ref, s_ref)
            uv = float(np.mean(num / den))
            assert uv < prev
            if c == 10:
                assert uv < 1e-3
            prev = uv


class TestBatchEvaluation:
    def test_batch_rows_match_single_calls_bitwise(self):
        rng = np.random.default_rng(43)
        for model in all_models():
            x = rng.standard_normal((17, model.dim))
            for sigma in (0.2, 3.0):
                batch_s = model.score(x, sigma)
                batch_d = model.denoise(x, sigma)
                for i in range(x.shape[0]):
                    np.testing.assert_array_equal(batch_s[i], model.score(x[i], sigma))
                    np.testing.assert_array_equal(batch_d[i], model.denoise(x[i], sigma))

    def test_batch_weights_match_single(self):
        rng = np.random.default_rng(44)
        cloud = PointCloud(rng.standard_normal((10, 4)))
        comps = tuple(
            GaussianComponent(w, random_spectrum(s, 4, 2)) for w, s in ((0.4, 45), (0.6, 46))
        )
        x = rng.standard_normal((300, 4))  # spans multiple chunks
        for model in (DeltaMixtureModel(cloud), MixtureModel(comps)):
            w = mixture_weights(model, x, 0.7)
            for i in (0, 128, 255, 299):
                np.testing.assert_array_equal(w[i], mixture_weights(model, x[i], 0.7))


class TestValidation:
    def test_mixture_weight_sum_enforced(self):
        comps = (
            GaussianComponent(0.5, zero_cov_spectrum([0.0])),
            GaussianComponent(0.6, zero_cov_spectrum([1.0])),
        )
        with pytest.raises(Exception):
            MixtureModel(comps)

    @pytest.mark.parametrize("sigma", [1e155, 1e-160, 1e-200])
    def test_sigma_outside_domain_rejected_everywhere(self, sigma):
        # sigma^2 overflows above ~1.3e154 and is subnormal or zero below ~1.5e-154
        for model in all_models():
            for method in (model.score, model.denoise):
                with pytest.raises(InvalidNoise, match=re.escape(str(sigma))):
                    method(np.zeros(model.dim), sigma)

    def test_sigma_zero_rejected_everywhere(self):
        for model in all_models():
            with pytest.raises(InvalidNoise):
                model.score(np.zeros(model.dim), 0.0)
