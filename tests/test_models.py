import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import scorefield.models
from scorefield.errors import InvalidInput, InvalidNoise
from scorefield.gmmfit import fit_gmm
from scorefield.models import (
    _BLOCK,
    DeltaMixtureModel,
    GaussianComponent,
    GaussianModel,
    IsotropicModel,
    MixtureModel,
    model_fingerprint,
    model_from_json,
    model_to_json,
)
from scorefield.samplers import heun_sample
from scorefield.schedules import parse_grid_spec
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
        np.testing.assert_array_equal(IsotropicModel(mu).score(mu, 3.0), np.zeros(2))

    def test_hand_values(self):
        np.testing.assert_allclose(IsotropicModel(np.zeros(2)).score([2.0, 0.0], 1.0), [-2.0, 0.0])
        np.testing.assert_allclose(IsotropicModel(np.zeros(2)).score([2.0, 0.0], 2.0), [-0.5, 0.0])

    def test_sigma_validation(self):
        with pytest.raises(InvalidNoise):
            IsotropicModel(np.zeros(2)).score(np.zeros(2), 0.0)
        with pytest.raises(InvalidNoise):
            IsotropicModel(np.zeros(2)).score(np.zeros(2), -1.0)

    def test_external_forms_are_the_rank0_gaussians(self):
        # The isotropic model is the rank-0 Gaussian; its fingerprint and
        # JSON form stay those of the standalone isotropic model.
        mu = np.arange(4.0)
        iso = IsotropicModel(mu)
        assert model_fingerprint(iso) == (
            "cc08f4aec76333879fd56effefdc6406e4a961565de8c23b34eaa660b536855a")
        obj = model_to_json(iso)
        assert obj == {"kind": "isotropic", "mean": [0.0, 1.0, 2.0, 3.0]}
        back = model_from_json(obj)
        assert type(back) is IsotropicModel
        np.testing.assert_array_equal(back.mean, mu)
        gauss = GaussianModel(zero_cov_spectrum(mu))
        x = np.random.default_rng(41).standard_normal((5, 4))
        for sigma in (1e-3, 0.7, 40.0):
            for call in ("score", "denoise"):
                for q in (x, x[2]):
                    np.testing.assert_array_equal(getattr(iso, call)(q, sigma),
                                                  getattr(gauss, call)(q, sigma))


class TestGaussianScore:
    def test_zero_at_mean(self):
        spec = random_spectrum(1, 5, 2)
        np.testing.assert_allclose(GaussianModel(spec).score(spec.mean, 0.7), np.zeros(5), atol=1e-14)

    def test_hand_value_via_dense_inverse(self):
        # mu = 0, Sigma = diag(3, 0), sigma = 1, x = (1, 1):
        # (sigma^2 I + Sigma)^-1 (mu - x) = diag(1/4, 1) (-1, -1) = (-1/4, -1)
        spec = CompactSpectrum(np.zeros(2), np.array([[1.0], [0.0]]), [3.0])
        np.testing.assert_allclose(GaussianModel(spec).score([1.0, 1.0], 1.0), [-0.25, -1.0])

    def test_matches_dense_inverse(self):
        spec = random_spectrum(12, 7, 3)
        x = np.random.default_rng(5).standard_normal(7)
        sigma = 0.9
        dense = np.linalg.solve(sigma**2 * np.eye(7) + spec.covariance(), spec.mean - x)
        np.testing.assert_allclose(GaussianModel(spec).score(x, sigma), dense, rtol=1e-12, atol=1e-13)

    def test_rank0_reduces_to_iso(self):
        spec = zero_cov_spectrum([0.5, -1.0, 2.0])
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(3)
            sigma = rng.uniform(0.1, 10)
            np.testing.assert_array_equal(
                GaussianModel(spec).score(x, sigma), IsotropicModel(spec.mean).score(x, sigma)
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
            err = np.linalg.norm(GaussianModel(spec).score(x, sigma) - dense) / np.linalg.norm(dense)
            assert err <= 1e-15 * (1.0 + lam_max / sigma**2)


class TestGaussianDenoise:
    def test_large_sigma_limit(self):
        spec = random_spectrum(2, 6, 3, lam_range=(0.2, 1.0))
        x = spec.mean + 3.0 * spec.basis[:, 0]
        out = GaussianModel(spec).denoise(x, 1e6)
        assert np.linalg.norm(out - spec.mean) < 1e-5

    def test_single_axis_shrinkage(self):
        spec = CompactSpectrum(np.array([1.0, 1.0]), np.array([[1.0], [0.0]]), [3.0])
        out = GaussianModel(spec).denoise(spec.mean + spec.basis[:, 0], 1.0)
        np.testing.assert_allclose(out, spec.mean + 0.75 * spec.basis[:, 0])

    def test_rank0_returns_mean(self):
        spec = zero_cov_spectrum([1.0, 2.0])
        np.testing.assert_array_equal(GaussianModel(spec).denoise([5.0, -7.0], 0.3), spec.mean)


class TestMixtureWeights:
    def test_equidistant_symmetry(self):
        model = DeltaMixtureModel(PointCloud([[1.0, 0.0], [-1.0, 0.0]]))
        for sigma in (0.05, 1.0, 30.0):
            np.testing.assert_allclose(
                model.posterior_weights([0.0, 5.0], sigma), [0.5, 0.5], atol=1e-15
            )

    def test_one_hot_at_small_sigma(self):
        model = DeltaMixtureModel(PointCloud([[1.0, 0.0], [-1.0, 0.0]]))
        w = model.posterior_weights([1.0, 0.0], 0.1)
        # log-weight gap is 2 / (2 * 0.01) = 200, so w_2 = exp(-200) < 1e-20
        assert w[0] >= 1.0 - 1e-20
        assert w[1] < 1e-20

    def test_uniform_at_large_sigma(self):
        rng = np.random.default_rng(8)
        cloud = PointCloud(rng.standard_normal((7, 3)))
        model = DeltaMixtureModel(cloud)
        w = model.posterior_weights(rng.standard_normal(3), 1e4)
        np.testing.assert_allclose(w, np.full(7, 1.0 / 7), atol=1e-6)
        comps = tuple(
            GaussianComponent(1.0 / 3, random_spectrum(s, 3, 1)) for s in (1, 2, 3)
        )
        gmm = MixtureModel(comps)
        w = gmm.posterior_weights(rng.standard_normal(3), 1e4)
        np.testing.assert_allclose(w, np.full(3, 1.0 / 3), atol=1e-6)

    def test_log_space_safety(self):
        # separations up to 1e3 at sigma = 1e-6 stay finite via max subtraction
        cloud = PointCloud([[0.0, 0.0], [1e3, 0.0], [0.0, 1e3]])
        model = DeltaMixtureModel(cloud)
        w = model.posterior_weights([1.0, 1.0], 1e-6)
        assert np.all(np.isfinite(w))
        np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)

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
        np.testing.assert_allclose(model.posterior_weights(x, sigma), expected, rtol=1e-10)


class TestGmmScore:
    def test_single_mode_equals_gaussian(self):
        spec = random_spectrum(31, 5, 2)
        model = MixtureModel((GaussianComponent(1.0, spec),))
        x = np.random.default_rng(2).standard_normal(5)
        a = model.score(x, 1.3)
        b = GaussianModel(spec).score(x, 1.3)
        np.testing.assert_allclose(a, b, rtol=1e-14, atol=0)

    def test_two_isotropic_modes_hand_value(self):
        comps = (
            GaussianComponent(0.5, zero_cov_spectrum([1.0, 0.0])),
            GaussianComponent(0.5, zero_cov_spectrum([-1.0, 0.0])),
        )
        model = MixtureModel(comps)
        np.testing.assert_allclose(model.score([0.0, 2.0], 1.0), [0.0, -2.0], atol=1e-14)

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
        w = model.posterior_weights(x, sigma)
        assert w[0] > 1 - 1e-12
        np.testing.assert_allclose(
            model.score(x, sigma),
            GaussianModel(comps[0].spectrum).score(x, sigma),
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
        alone = model._evaluate(x, 1e-150)[0]
        mixed = model._evaluate(np.vstack([x, far]), 1e-150)[0]
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
        out += w[:, i : i + 1] * GaussianModel(comp.spectrum).denoise(xb, sigma)
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


def memo_model(case):
    """A fresh model, with an empty memo, for one of ``MEMO_CASES``."""
    if case == "gaussian":
        return GaussianModel(random_spectrum(5, 16, 6))
    if case == "isotropic":
        return IsotropicModel(np.random.default_rng(6).standard_normal(16))
    dim, ranks = case
    return ranked_mixture(len(ranks) + dim, dim, ranks)


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
            np.testing.assert_array_equal(model._evaluate(x, sigma)[0], loop_log_weights(model, x, sigma))
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
        # So are the sigma-only constants that a call memoizes.
        model = ranked_mixture(3, 16, [3, 0, 3])
        gauss = GaussianModel(random_spectrum(4, 16, 3))
        arrays = [model._log_pi, model._centers]
        for _, bases, eigs in model._groups:
            arrays += [bases, eigs]
        for m in (model, gauss):
            m.denoise(np.zeros(16), 0.5)
            assert len(m._memo) == 1
            arrays += [a for consts in m._memo.values() for a in consts]
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

    @pytest.mark.parametrize("rank", [0, None, "delta"])
    def test_top_of_sigma_domain_stays_finite(self, rank):
        # At sigma = 1e154, |x - mu|^2 overflows for probes x ~ sigma z. The
        # "delta" case is the cloud's own delta mixture, with prior 1/N.
        rng = np.random.default_rng(81)
        cloud = PointCloud(rng.standard_normal((50, 4)))
        if rank == "delta":
            model, prior = DeltaMixtureModel(cloud), np.full(50, 1 / 50)
        else:
            model = fit_gmm(cloud, 2, rank=rank, seed=0)
            prior = [c.weight for c in model.components]
        x = 1e154 * rng.standard_normal((8, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = model.denoise(x, 1e154)
            score = model.score(x, 1e154)
            w = model.posterior_weights(x, 1e154)
        assert np.all(np.isfinite(out)) and np.all(np.isfinite(score))
        # At sigma far above the cloud the posterior is the prior.
        np.testing.assert_allclose(w, np.tile(prior, (8, 1)))

    def test_rows_with_finite_forms_unchanged_beside_overflowing_rows(self):
        x = np.random.default_rng(92).standard_normal((5, 4))
        far = 1e154 * np.random.default_rng(93).standard_normal((3, 4))
        cloud = PointCloud(np.random.default_rng(94).standard_normal((40, 4)))
        for model in (ranked_mixture(91, 4, [2, 4]), DeltaMixtureModel(cloud)):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                mixed = model._evaluate(np.vstack([x, far]), 1e154)[0]
                alone = model._evaluate(x, 1e154)[0]
                den = model.denoise(np.vstack([x, far]), 1e154)
                den_alone = model.denoise(x, 1e154)
            np.testing.assert_array_equal(bits(mixed[:5]), bits(alone))
            np.testing.assert_array_equal(bits(den[:5]), bits(den_alone))
            assert np.all(np.isfinite(mixed)) and np.all(np.isfinite(den))


MEMO_CASES = [*TestStackedMixture.CASES, "gaussian", "isotropic"]


class TestDeltaScore:
    def test_single_point(self):
        y = np.array([[2.0, 1.0]])
        cloud = PointCloud(y)
        for sigma in (0.3, 2.0):
            x = np.array([0.5, -0.5])
            np.testing.assert_allclose(
                DeltaMixtureModel(cloud).score(x, sigma), (y[0] - x) / sigma**2, rtol=1e-14
            )

    def test_symmetry_zero(self):
        cloud = PointCloud([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_allclose(DeltaMixtureModel(cloud).score([0.0, 0.0], 1.0), np.zeros(2), atol=1e-15)

    def test_hand_value(self):
        cloud = PointCloud([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_allclose(DeltaMixtureModel(cloud).score([0.0, 2.0], 1.0), [0.0, -2.0], rtol=1e-14)


class TestDeltaDenoise:
    def test_small_sigma_snaps_to_nearest(self):
        cloud = PointCloud([[0.0, 0.0], [1.0, 0.0]])
        out = DeltaMixtureModel(cloud).denoise([0.2, 0.05], 1e-4)
        np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-10)

    def test_large_sigma_pulls_to_mean(self):
        rng = np.random.default_rng(6)
        cloud = PointCloud(rng.standard_normal((9, 4)))
        out = DeltaMixtureModel(cloud).denoise(rng.standard_normal(4), 1e5)
        np.testing.assert_allclose(out, cloud.data.mean(axis=0), atol=1e-6)

    def test_bisector_midpoint(self):
        cloud = PointCloud([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_allclose(DeltaMixtureModel(cloud).denoise([0.0, 3.0], 0.7), [0.0, 0.0], atol=1e-15)

    def test_convex_hull_box(self):
        rng = np.random.default_rng(13)
        cloud = PointCloud(rng.uniform(-1, 1, (20, 3)))
        for sigma in (0.01, 0.5, 50.0):
            out = DeltaMixtureModel(cloud).denoise(rng.standard_normal(3) * 3, sigma)
            assert np.all(out >= cloud.data.min(axis=0) - 1e-12)
            assert np.all(out <= cloud.data.max(axis=0) + 1e-12)

    def test_all_logits_underflow_snaps_to_nearest(self):
        # At x = 1e5, sigma = 1e-150 every -|x - y_i|^2 / (2 sigma^2) is -inf.
        cloud = PointCloud([[0.0], [1.0]])
        x = np.array([[1e5], [-1e5], [0.3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = DeltaMixtureModel(cloud).denoise(x, 1e-150)
            np.testing.assert_array_equal(out, [[1.0], [0.0], [0.0]])
            for i in range(x.shape[0]):
                np.testing.assert_array_equal(out[i], DeltaMixtureModel(cloud).denoise(x[i], 1e-150))
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
        np.testing.assert_array_equal(DeltaMixtureModel(cloud)._evaluate(x, sigma)[0], full)

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


class TestDeltaCombine:
    @pytest.mark.parametrize("dim", [1, 16, 200])
    @pytest.mark.parametrize("rows", [1, 7, 301])
    def test_matches_row_layout_einsum_bitwise(self, rows, dim):
        rng = np.random.default_rng(rows * dim)
        model = DeltaMixtureModel(PointCloud(rng.standard_normal((500, dim))))
        x = rng.standard_normal((rows, dim))
        w = model.posterior_weights(x, 0.8)
        # Every third row far from the cloud at tiny sigma: all its logits
        # underflow, and the guard makes its weights one-hot.
        far = np.arange(0, rows, 3)
        w[far] = model.posterior_weights(1e5 + x[far], 1e-150)
        assert np.all(w[far].max(axis=1) == 1.0)
        out = model._combine(w, None)
        ref = np.einsum("mn,nd->md", w, model.cloud.data)
        np.testing.assert_array_equal(out.view(np.uint64), ref.view(np.uint64))
        for i in {0, rows // 2, rows - 1}:
            np.testing.assert_array_equal(model._combine(w[i:i + 1], None)[0], out[i])


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

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), d=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           variant=st.sampled_from(["isotropic", "gaussian", "mixture", "delta"]))
    def test_denoise_is_x_plus_sigma2_score_within_ulps(self, data, d, seed, variant):
        # score = (D - x) / sigma^2 elementwise, so x + sigma^2 score gives D
        # back up to the rounding of four operations on each element.
        rng = np.random.default_rng(seed)
        rank = data.draw(st.integers(0, d))
        k = data.draw(st.integers(1, 4))
        model = {
            "isotropic": lambda: IsotropicModel(rng.standard_normal(d)),
            "gaussian": lambda: GaussianModel(random_spectrum(seed, d, rank)),
            "mixture": lambda: MixtureModel(tuple(
                GaussianComponent(1.0 / k, random_spectrum(seed + i, d, rank, mean_scale=3.0))
                for i in range(k))),
            "delta": lambda: DeltaMixtureModel(PointCloud(rng.standard_normal((k + 4, d)))),
        }[variant]()
        elements = st.floats(-10.0, 10.0, allow_subnormal=False)
        x = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 3)), d), elements=elements))
        sigma = data.draw(st.floats(1e-3, 1e3))
        den = model.denoise(x, sigma)
        back = x + sigma**2 * model.score(x, sigma)
        ulp = np.spacing(np.maximum(np.abs(x), np.abs(den)))
        assert np.all(np.abs(back - den) <= 8 * ulp)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_one_component_mixture_is_the_gaussian_bitwise(self, data, d, seed):
        low = data.draw(st.floats(1e-4, 1.0))
        spec = random_spectrum(seed, d, data.draw(st.integers(0, d)),
                               lam_range=(low, low * data.draw(st.floats(1.0, 1e4))),
                               mean_scale=data.draw(st.floats(0.0, 10.0)))
        mix, gauss = MixtureModel((GaussianComponent(1.0, spec),)), GaussianModel(spec)
        elements = st.floats(-20.0, 20.0, allow_subnormal=False)
        x = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 4)), d), elements=elements))
        sigma = data.draw(st.floats(1e-3, 1e3))
        np.testing.assert_array_equal(mix.denoise(x, sigma), gauss.denoise(x, sigma))
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

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8), d=st.integers(1, 4))
    def test_delta_is_the_equal_weight_rank0_mixture_at_its_points(self, data, n, d):
        # Far rows at tiny sigma take the lost-row limit, and rows ~ sigma z
        # at the top of the sigma domain, every one of whose squared forms
        # overflows, the overflow retake, in both models.
        unit = st.floats(-1.0, 1.0, allow_subnormal=False)
        y = data.draw(hnp.arrays(np.float64, (n, d), elements=unit))
        z = data.draw(hnp.arrays(np.float64, (3, d), elements=unit))
        delta = DeltaMixtureModel(PointCloud(y))
        mix = MixtureModel(tuple(GaussianComponent(1.0 / n, zero_cov_spectrum(p)) for p in y))
        mid = data.draw(st.floats(1.0, 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for x, sigma in ((1e5 + z, 1e-150), (z, mid), (1e154 * (3.0 + z), 1e154)):
                for call in ("posterior_weights", "denoise"):
                    np.testing.assert_allclose(getattr(delta, call)(x, sigma),
                                               getattr(mix, call)(x, sigma), rtol=0, atol=1e-15)

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

    # Each builds a fresh model, with an empty sigma memo.
    FRESH = {
        "isotropic": lambda: IsotropicModel(np.linspace(-1.0, 1.0, 5)),
        "gaussian": lambda: GaussianModel(random_spectrum(201, 5, 3)),
        "mixture": lambda: ranked_mixture(202, 5, [2, 0, 5]),  # with a rank-0 group
        "delta": lambda: DeltaMixtureModel(
            PointCloud(np.random.default_rng(203).standard_normal((12, 5)))),
    }

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(sorted(FRESH)),
           rows=st.integers(1, 20), log_sigma=st.floats(-3.0, 3.0))
    def test_rows_match_one_row_calls_with_the_memo_cold_and_warm(self, data, kind, rows, log_sigma):
        fresh = self.FRESH[kind]
        sigma = 10.0**log_sigma
        x = data.draw(hnp.arrays(np.float64, (rows, 5),
                                 elements=st.floats(-10.0, 10.0, allow_subnormal=False)))
        model = fresh()
        batch = model.denoise(x, sigma)  # the memo cold
        np.testing.assert_array_equal(bits(model.denoise(x, sigma)), bits(batch))
        for i in range(rows):
            np.testing.assert_array_equal(bits(model.denoise(x[i], sigma)), bits(batch[i]))
            np.testing.assert_array_equal(bits(fresh().denoise(x[i], sigma)), bits(batch[i]))
        if kind in ("mixture", "delta"):
            w = model.posterior_weights(x, sigma)
            assert np.all(np.abs(w.sum(axis=1) - 1.0) <= w.shape[1] * np.finfo(float).eps)

    def test_batch_weights_match_single(self):
        rng = np.random.default_rng(44)
        cloud = PointCloud(rng.standard_normal((10, 4)))
        comps = tuple(
            GaussianComponent(w, random_spectrum(s, 4, 2)) for w, s in ((0.4, 45), (0.6, 46))
        )
        x = rng.standard_normal((300, 4))  # spans multiple chunks
        for model in (DeltaMixtureModel(cloud), MixtureModel(comps)):
            w = model.posterior_weights(x, 0.7)
            for i in (0, 128, 255, 299):
                np.testing.assert_array_equal(w[i], model.posterior_weights(x[i], 0.7))


class CountingPool(ThreadPoolExecutor):
    def __init__(self, workers):
        super().__init__(max_workers=workers)
        self.submitted = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submitted += 1
        return super().submit(fn, *args, **kwargs)


def share_models():
    rng = np.random.default_rng(91)
    return [
        DeltaMixtureModel(PointCloud(rng.standard_normal((40, 6)))),
        ranked_mixture(92, 6, [2] * 3),
        ranked_mixture(96, 6, [3, 0, 6, 1]),
    ]


class TestNonFiniteQueries:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejected_naming_the_first_bad_row(self, bad):
        models = share_models() + [GaussianModel(random_spectrum(97, 6, 2)),
                                   IsotropicModel(np.zeros(6))]
        x = np.zeros((4, 6))
        x[2, 3] = x[3, 0] = bad
        for model in models:
            for call in (model.denoise, model.score):
                with pytest.raises(InvalidInput, match="row 2 is not finite"):
                    call(x, 0.5)
                with pytest.raises(InvalidInput, match="row 0 is not finite"):
                    call(x[2], 0.5)


class TestRowShares:
    """Calls split into row shares once the share gate is low enough."""

    def split(self, monkeypatch, workers):
        pool = CountingPool(max(1, workers - 1))
        monkeypatch.setattr(scorefield.models, "_CPUS", workers)
        monkeypatch.setattr(scorefield.models, "_SHARE", 1)
        monkeypatch.setattr(scorefield.models, "_POOL", pool)
        return pool

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("rows", [1, 7, 301])
    def test_bits_do_not_depend_on_worker_count(self, monkeypatch, workers, rows):
        rng = np.random.default_rng(rows)
        x = 2.0 * rng.standard_normal((rows, 6))
        models = share_models()
        whole = [(m.denoise(x, s), m.posterior_weights(x, s)) for m in models for s in (0.05, 1.0)]
        pool = self.split(monkeypatch, workers)
        try:
            split = [(m.denoise(x, s), m.posterior_weights(x, s)) for m in models for s in (0.05, 1.0)]
        finally:
            pool.shutdown()
        assert pool.submitted == len(whole) * 2 * (min(workers, rows) - 1)
        for (d0, w0), (d1, w1) in zip(whole, split):
            np.testing.assert_array_equal(d1, d0)
            np.testing.assert_array_equal(w1, w0)

    @pytest.mark.parametrize("gate_low", [False, True])
    def test_zero_rows(self, monkeypatch, gate_low):
        if gate_low:
            self.split(monkeypatch, 2)
        for model in share_models()[:2]:
            x = np.empty((0, model.dim))
            assert model.denoise(x, 0.5).shape == (0, model.dim)
            assert model.posterior_weights(x, 0.5).shape == (0, model.n_components)

    def test_pool_share_keeps_callers_errstate_and_raises_to_caller(self, monkeypatch):
        # The far row lands in the pool's share, where its weights underflow
        # in exp; the row at the origin underflows nowhere.
        model = share_models()[0]
        x = np.zeros((2, model.dim))
        x[1, 0] = 1e3
        self.split(monkeypatch, 2)
        with np.errstate(under="raise"), pytest.raises(FloatingPointError):
            model.denoise(x, 0.5)

    def test_small_calls_start_no_thread(self):
        code = (
            "import threading\n"
            "before = threading.active_count()\n"
            "import numpy as np\n"
            "import scorefield.models as m\n"
            "after_import = threading.active_count()\n"
            "cloud = np.random.default_rng(0).standard_normal((50, 4))\n"
            "m.DeltaMixtureModel(cloud).denoise(np.zeros(4), 0.5)\n"
            "print(before, after_import, threading.active_count())\n"
        )
        src = str(Path(scorefield.models.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        before, after_import, after_call = map(int, proc.stdout.split())
        assert before == after_import == after_call


class TestOneRowCalls:
    def test_skip_the_share_arithmetic(self, monkeypatch):
        # A one-row call has one share whatever the gate, so it never reads it.
        models = share_models()
        x = np.random.default_rng(5).standard_normal(6)
        whole = [(m.denoise(x, 0.5), m.posterior_weights(x, 0.5)) for m in models]
        monkeypatch.setattr(scorefield.models, "_SHARE", None)
        for m, (d0, w0) in zip(models, whole):
            np.testing.assert_array_equal(m.denoise(x, 0.5), d0)
            np.testing.assert_array_equal(m.posterior_weights(x[None], 0.5)[0], w0)


def reference_delta(y, x, sigma):
    """Delta log-weights, weights and denoiser from the whole (rows, N, D)
    difference tensor, -d2 / (2 sigma^2) with the nearest-point limit for
    lost rows, an out-of-place softmax and the (rows, N) combine."""
    diff = x[:, None, :] - y[None, :, :]
    d2 = np.einsum("mnd,mnd->mn", diff, diff)
    with np.errstate(over="ignore"):
        logits = -d2 / (2.0 * sigma**2)
        lost = logits.max(axis=1) == -np.inf
        if lost.any():
            near = d2[lost] - d2[lost].min(axis=1, keepdims=True)
            logits[lost] = -near / (2.0 * sigma**2)
    shifted = logits - logits.max(axis=1, keepdims=True)
    w = np.exp(shifted)
    w = w / w.sum(axis=1, keepdims=True)
    return logits, w, np.einsum("mn,nd->md", w, y)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestDeltaInPlace:
    """Distances, logits and weights overwrite one (rows, N) array."""

    @pytest.mark.parametrize("sigma", [1e-150, 0.05, 1.0, 1e154])
    @pytest.mark.parametrize("dim", [1, 2, 16, 64])
    @pytest.mark.parametrize("rows", [1, 7, 300])
    def test_matches_reference_formulas_bitwise(self, monkeypatch, rows, dim, sigma):
        step = max(1, _BLOCK // (rows * dim))
        n = 3 * step + 1  # three full blocks of training points and a partial one
        rng = np.random.default_rng(rows * dim)
        y = rng.standard_normal((n, dim))
        y[0] = y[step] = y[-1] = 10.0  # one extreme point, three times over
        x = rng.standard_normal((rows, dim))
        x[0::3] = 1e5  # nearest to the extreme point: a three-way tie
        x[2::3] -= 1e5  # far on the other side, with no tie
        model = DeltaMixtureModel(PointCloud(y))
        logits, w, den = reference_delta(model.cloud.data, x, sigma)
        if sigma == 1e-150:
            # Rows 0::3 and 2::3 lose every logit to -inf; rows 1::3 stay
            # finite beside them.
            assert np.all(np.isfinite(logits[1::3]))
            np.testing.assert_array_equal(w[0::3][:, [0, step, n - 1]], 1 / 3)
            assert np.all(np.count_nonzero(w[0::3], axis=1) == 3)
        np.testing.assert_array_equal(bits(model._evaluate(x, sigma)[0]), bits(logits))
        np.testing.assert_array_equal(bits(model.posterior_weights(x, sigma)), bits(w))
        np.testing.assert_array_equal(bits(model.denoise(x, sigma)), bits(den))
        pool = TestRowShares().split(monkeypatch, 2)  # the same calls in two row shares
        try:
            np.testing.assert_array_equal(bits(model.posterior_weights(x, sigma)), bits(w))
            np.testing.assert_array_equal(bits(model.denoise(x, sigma)), bits(den))
        finally:
            pool.shutdown()
        assert pool.submitted == (2 if rows > 1 else 0)

    def test_softmax_rows_works_in_place(self):
        logits = np.random.default_rng(3).standard_normal((4, 9)) * 50.0
        shifted = logits - logits.max(axis=1, keepdims=True)
        ref = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        out = scorefield.models._softmax_rows(logits, logits.max(axis=1, keepdims=True))
        assert out is logits
        np.testing.assert_array_equal(bits(out), bits(ref))

    def test_denoise_peak_memory_is_about_two_logit_arrays(self):
        # The (rows, N) logits, overwritten by the weights, and their (N, rows)
        # copy for the combine; one block buffer and the output besides.
        rng = np.random.default_rng(61)
        model = DeltaMixtureModel(PointCloud(rng.standard_normal((4000, 64))))
        x = rng.standard_normal((256, 64))
        tracemalloc.start()
        try:
            model.denoise(x, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * 256 * 4000 * 8


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


class TestSigmaMemo:
    """Gaussians and Gaussian mixtures memoize what depends on sigma alone."""

    SIGMAS = (1e-3, 0.05, 0.7, 2.0, 80.0, 1e154)

    @staticmethod
    def calls(model, x, sigma):
        # At 1e154 the rows sit at sigma z, where the mixtures' squared forms
        # overflow and are retaken on x/sigma.
        if sigma == 1e154:
            x = sigma * x
        out = [model.denoise(x, sigma), model.score(x, sigma), model.denoise(x[0], sigma)]
        if isinstance(model, MixtureModel):
            out.append(model.posterior_weights(x, sigma))
        return [bits(a) for a in out]

    def check_shuffled_twice(self, case, rows, seed):
        # One model object sees each sigma twice in shuffled order; each
        # evaluation must have the bits of a fresh model's.
        rng = np.random.default_rng(seed)
        model = memo_model(case)
        x = 2.0 * rng.standard_normal((rows, model.dim))
        for sigma in rng.permutation(self.SIGMAS * 2):
            for warm, cold in zip(self.calls(model, x, sigma), self.calls(memo_model(case), x, sigma)):
                np.testing.assert_array_equal(warm, cold)
        if case != "isotropic":
            assert sorted(model._memo) == sorted(self.SIGMAS)

    @pytest.mark.parametrize("case", MEMO_CASES)
    def test_warm_memo_keeps_every_bit(self, case):
        self.check_shuffled_twice(case, 5, seed=len(str(case)))

    @pytest.mark.parametrize("case", MEMO_CASES[-3:])
    def test_warm_memo_keeps_every_bit_in_row_shares(self, monkeypatch, case):
        pool = TestRowShares().split(monkeypatch, 2)
        try:
            self.check_shuffled_twice(case, 7, seed=11)
        finally:
            pool.shutdown()
        assert pool.submitted > 0 or not isinstance(memo_model(case), MixtureModel)

    @pytest.mark.parametrize("case", MEMO_CASES[-3:])
    def test_threads_share_one_memo(self, case):
        model = memo_model(case)
        x = 2.0 * np.random.default_rng(12).standard_normal((3, model.dim))
        sigmas = [float(s) for s in np.geomspace(1e-2, 1e2, 16)]
        expected = {s: self.calls(memo_model(case), x, s) for s in sigmas}

        def worker(k):
            for sigma in np.random.default_rng(k).permutation(sigmas * 3):
                for got, want in zip(self.calls(model, x, sigma), expected[sigma]):
                    np.testing.assert_array_equal(got, want)
            return k

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                done = [f.result(timeout=60) for f in [pool.submit(worker, k) for k in range(4)]]
        finally:
            sys.setswitchinterval(interval)
        assert done == [0, 1, 2, 3]
        if case != "isotropic":
            assert sorted(model._memo) == sigmas

    def test_memo_stays_within_the_block_budget(self):
        # 520 and 512 elements per sigma: 126 and 128 sigmas fit, 300 do not.
        for model in (ranked_mixture(72, 64, [64] * 8), GaussianModel(random_spectrum(73, 512, 512))):
            x = np.zeros(model.dim)
            sizes = []
            for sigma in np.geomspace(1e-2, 1e2, 300):
                model.denoise(x, sigma)
                sizes.append(sum(a.size for consts in model._memo.values() for a in consts))
            assert 0 < max(sizes) <= _BLOCK
            assert any(b < a for a, b in zip(sizes, sizes[1:]))  # emptied, not grown

    @pytest.mark.parametrize("case", [MEMO_CASES[-3], "gaussian"])
    def test_heun_fills_one_entry_per_level(self, case):
        # A Heun step evaluates its own level and, but on the last step, the
        # next one: 9 calls per trajectory at the first 5 of the 6 levels.
        model = memo_model(case)
        grid = parse_grid_spec("0.002:80:7:6")
        rng = np.random.default_rng(8)
        trajs = [heun_sample(model, grid, 80.0 * rng.standard_normal(model.dim)) for _ in range(3)]
        assert [t.nfe for t in trajs] == [9, 9, 9]
        assert sorted(model._memo) == sorted(float(s) for s in grid.levels[:-1])
