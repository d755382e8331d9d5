import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorefield.analysis import (
    analytical_curves,
    bimodal_error_curve,
    bimodal_error_mc,
    critical_times,
    ratio_stats,
    slice_field,
    trajectory_deviation,
    unexplained_variance,
)
from scorefield.errors import DegeneratePlane, GridMismatch, InvalidInput, NumericalBlowup
from scorefield.gmmfit import gmm_from_assignments, minibatch_kmeans_full
from scorefield.models import DeltaMixtureModel, GaussianModel, IsotropicModel, ScoreModel
from scorefield.samplers import Trajectory, heun_sample, rk4_sample
from scorefield.schedules import EdmSchedule, VpSchedule, karras_grid
from scorefield.solution import SolutionContext, solve_state
from scorefield.spectrum import CompactSpectrum, PointCloud, spectrum_from_cloud
from scorefield.synthetic import gaussian_cloud, gmm_cloud


class FieldStub(ScoreModel):
    """Fixed vector field for metric identities."""

    def __init__(self, fn, dim):
        self.fn = fn
        self.dim = dim

    def score(self, x, sigma):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.asarray([self.fn(row) for row in x])
        return out[0] if np.asarray(x).ndim == 1 else out

    def denoise(self, x, sigma):
        return x + sigma**2 * self.score(x, sigma)


def random_spectrum(seed, d, r, lam_range=(0.1, 4.0)):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((d, max(r, 1))))
    lam = np.sort(rng.uniform(*lam_range, r))[::-1]
    return CompactSpectrum(rng.standard_normal(d), u[:, :r], lam)


class TestUnexplainedVariance:
    def test_identical_models_zero(self):
        model = GaussianModel(random_spectrum(1, 4, 2))
        stats = unexplained_variance(model, model, 1.0, 64, seed=0)
        assert stats.mean == 0.0 and stats.q25 == 0.0 and stats.q75 == 0.0
        assert stats.ratio_of_sums == 0.0

    def test_zero_approximation_gives_one(self):
        ref = GaussianModel(random_spectrum(2, 3, 1))
        zero = FieldStub(lambda x: np.zeros(3), 3)
        stats = unexplained_variance(ref, zero, 0.5, 64, seed=1)
        np.testing.assert_allclose(stats.values, np.ones_like(stats.values))
        assert stats.mean == 1.0

    def test_orthogonal_equal_norm_gives_two(self):
        ref = FieldStub(lambda x: np.array([1.0, 0.0]), 2)
        orth = FieldStub(lambda x: np.array([0.0, 1.0]), 2)
        stats = unexplained_variance(ref, orth, 1.0, 32, seed=2)
        np.testing.assert_allclose(stats.values, 2.0 * np.ones_like(stats.values))

    def test_scale_invariance(self):
        base_ref = GaussianModel(random_spectrum(3, 4, 2))
        base_app = GaussianModel(random_spectrum(4, 4, 2))
        c = 37.5
        ref_scaled = FieldStub(lambda x: c * base_ref.score(x, 1.3), 4)
        app_scaled = FieldStub(lambda x: c * base_app.score(x, 1.3), 4)
        a = unexplained_variance(base_ref, base_app, 1.3, 50, seed=5)
        b = unexplained_variance(ref_scaled, app_scaled, 1.3, 50, seed=5)
        np.testing.assert_allclose(a.values, b.values, rtol=1e-12)

    def test_noised_cloud_probes(self):
        rng = np.random.default_rng(7)
        cloud = PointCloud(rng.standard_normal((10, 3)))
        ref = DeltaMixtureModel(cloud)
        approx = GaussianModel.from_cloud(cloud)
        stats = unexplained_variance(
            ref, approx, 0.5, 64, seed=3, probe_dist="noised-cloud", cloud=cloud
        )
        assert np.isfinite(stats.mean)

    @pytest.mark.parametrize("bad", ["ref", "app"])
    def test_non_finite_score_raises_naming_sigma(self, bad):
        scores = {"ref": np.ones((4, 3)), "app": np.zeros((4, 3))}
        scores[bad][2, 1] = np.nan
        with pytest.raises(NumericalBlowup, match=r"non-finite score at sigma=1e\+154"):
            ratio_stats(scores["ref"], scores["app"], 1e154)

    def test_far_field_law(self):
        # mean UV at c sqrt(tr Sigma) drops >= 10x from c=2 to c=20
        rng = np.random.default_rng(11)
        cloud = PointCloud(rng.standard_normal((80, 8)) * np.linspace(1.5, 0.2, 8))
        ref = DeltaMixtureModel(cloud)
        approx = GaussianModel.from_cloud(cloud)
        tr = approx.spectrum.total_variance
        uv2 = unexplained_variance(ref, approx, 2 * np.sqrt(tr), 128, seed=0).mean
        uv20 = unexplained_variance(ref, approx, 20 * np.sqrt(tr), 128, seed=0).mean
        assert uv20 < uv2 / 10.0


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(make=st.sampled_from([gmm_cloud, gaussian_cloud]), n=st.integers(60, 300),
       d=st.integers(2, 12), seed=st.integers(0, 2**16))
def test_far_field_law_every_variant(make, n, d, seed):
    # Far above the cloud's spread every variant's score is the Gaussian's:
    # UV < 1e-3 at 10 sqrt(tr Sigma), and it falls >= 10x from 2 to 20 sqrt(tr Sigma).
    cloud = make(n, d, seed=seed)
    gauss = GaussianModel.from_cloud(cloud)
    root_tr = np.sqrt(gauss.spectrum.total_variance)
    models = {"delta": DeltaMixtureModel(cloud), "isotropic": IsotropicModel(gauss.spectrum.mean)}
    for k in (1, 2, 3):  # fit_gmm's two steps, with one k-means per K
        assignments = minibatch_kmeans_full(cloud, k, seed=seed).assignments
        for rank in (0, 1, None):
            models[f"mixture k={k} rank={rank}"] = gmm_from_assignments(cloud, assignments, rank)
    for name, model in models.items():
        uv = {c: unexplained_variance(model, gauss, c * root_tr, 64, seed=seed).mean
              for c in (2.0, 10.0, 20.0)}
        assert uv[10.0] < 1e-3, (name, uv)
        assert uv[20.0] * 10.0 <= uv[2.0], (name, uv)


class TestTrajectoryDeviation:
    def test_identical_zero(self):
        traj = Trajectory([2.0, 1.0], [2.0, 1.0], [1.0, 1.0], np.ones((2, 3)))
        np.testing.assert_array_equal(trajectory_deviation(traj, traj), np.zeros(2))

    def test_closed_form_vs_heun(self):
        spec = random_spectrum(5, 8, 3)
        model = GaussianModel(spec)
        grid = karras_grid(0.01, 20.0, 7.0, 400)
        x_T = np.random.default_rng(0).standard_normal(8)
        heun = heun_sample(model, grid, x_T)
        ctx = SolutionContext.create(spec, x_T, 20.0)
        states = np.asarray([solve_state(ctx, float(s)) for s in grid.levels])
        exact = Trajectory(grid.levels, grid.levels, np.ones(len(grid)), states)
        curve = trajectory_deviation(exact, heun)
        assert np.max(curve) < 1e-8

    def test_gaussian_vs_delta_grows_at_small_sigma(self):
        rng = np.random.default_rng(3)
        cloud = PointCloud(2.0 * rng.standard_normal((30, 4)))
        spec = spectrum_from_cloud(cloud)
        delta = DeltaMixtureModel(cloud)
        grid = karras_grid(0.05, 40.0, 7.0, 40)
        x_T = 40.0 * rng.standard_normal(4)
        ctx = SolutionContext.create(spec, x_T, 40.0)
        states = np.asarray([solve_state(ctx, float(s)) for s in grid.levels])
        exact = Trajectory(grid.levels, grid.levels, np.ones(len(grid)), states)
        num = rk4_sample(delta, 40.0, 0.05, 400, x_T, record_levels=grid.levels)
        curve = trajectory_deviation(exact, num)
        q = len(curve) // 4
        assert np.all(curve[:q] <= curve[q:].max())
        assert curve[0] < 1e-6
        assert curve[-1] > curve[0]

    def test_grid_mismatch(self):
        a = Trajectory([2.0, 1.0], [2.0, 1.0], [1, 1], np.ones((2, 2)))
        b = Trajectory([2.0, 0.5], [2.0, 0.5], [1, 1], np.ones((2, 2)))
        with pytest.raises(GridMismatch):
            trajectory_deviation(a, b)


class TestAnalyticalCurves:
    def test_unit_lambda_gain_is_one(self):
        schedule = VpSchedule(0.1, 20.0)
        t = np.linspace(0.0, 1.0, 101)
        table = analytical_curves(schedule, [1.0], t)
        np.testing.assert_allclose(table.gain[0], np.ones_like(t), rtol=1e-12)

    def test_xi_vanishes_at_horizon(self):
        schedule = VpSchedule(0.1, 20.0)
        t = np.linspace(0.0, 1.0, 101)
        lambdas = np.array([0.04, 1.0, 25.0])
        table = analytical_curves(schedule, lambdas, t)
        aT = float(schedule.alpha(1.0))
        sT = float(schedule.sigma(1.0))
        expected = aT * np.sqrt(lambdas) / (aT**2 * lambdas + sT**2)
        np.testing.assert_allclose(table.xi_norm[:, -1], expected, rtol=1e-12)
        assert np.all(table.xi_norm[:, -1] < 0.05)

    def test_psi_monotone(self):
        schedule = VpSchedule(0.1, 20.0)
        t = np.linspace(0.0, 1.0, 400)
        table = analytical_curves(schedule, [0.04, 1.0, 25.0], t)
        for row in table.psi:
            diffs = np.diff(row)
            assert np.all(diffs <= 1e-12) or np.all(diffs >= -1e-12)

    def test_non_finite_value_names_its_t(self):
        # sigma_T^2 overflows, so psi at t = 2.5e199 reads inf / inf
        t = np.linspace(0.0, 1e200, 5)
        with pytest.raises(NumericalBlowup, match="^analytical curves are not finite at t = 2.5e"
                                                  r"\+199$"):
            analytical_curves(EdmSchedule(1e200), [1.0], t)

    def test_critical_times_ordered_and_located(self):
        schedule = VpSchedule(0.1, 20.0)
        t = np.linspace(0.0, 1.0, 2001)
        lambdas = [0.04, 1.0, 25.0]
        times = critical_times(schedule, lambdas, t)
        # largest lambda develops earliest in generation order (largest t)
        assert times[2] > times[1] > times[0]
        # each critical time sits where the noise scale matches the scaled
        # signal scale within a factor of two (the beta(t) time warp shifts
        # the exact argmax off the sigma = alpha sqrt(lam) balance point)
        for lam, tc in zip(lambdas, times):
            ratio = float(schedule.sigma(tc)) / float(schedule.alpha(tc))
            assert np.sqrt(lam) / 2.0 < ratio < 2.0 * np.sqrt(lam)


class TestSliceField:
    def test_full_space_plane(self):
        anchors = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        model = GaussianModel(random_spectrum(9, 2, 1))
        field = slice_field([model], anchors, 1.0, grid_n=5, extent=1.0)
        np.testing.assert_allclose(field.e_u, [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(field.e_v, [0.0, 1.0], atol=1e-14)
        # plane == whole space: projected score equals the full score
        for i, u in enumerate(field.u):
            for j, v in enumerate(field.v):
                full = model.score(field.point(u, v), 1.0)
                np.testing.assert_allclose([field.s_u[0][i, j], field.s_v[0][i, j]], full, atol=1e-12)

    def test_score_vanishes_at_projected_mean(self):
        rng = np.random.default_rng(4)
        anchors = rng.standard_normal((3, 5))
        mu = anchors.mean(axis=0)  # mean at the plane origin
        u, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        spec = CompactSpectrum(mu, u, [2.0, 1.0])
        field = slice_field([GaussianModel(spec)], anchors, 0.8, grid_n=41, extent=2.0)
        i = j = 20  # (u, v) = (0, 0) node
        assert field.norm[0][i, j] < 1e-12

    def test_delta_field_points_at_anchors(self):
        anchors = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
        model = DeltaMixtureModel(PointCloud(anchors))
        field = slice_field([model], anchors, 0.05, grid_n=41, extent=4.0)
        du = field.u[1] - field.u[0]
        for a_u, a_v in field.anchor_uv:
            i = int(np.argmin(np.abs(field.u - a_u)))
            j = int(np.argmin(np.abs(field.v - a_v)))
            # nodes one step left/right of the anchor point toward it
            if i - 1 >= 0 and abs(field.u[i - 1] - a_u) > 1e-9:
                assert field.s_u[0][i - 1, j] * (a_u - field.u[i - 1]) > 0
            if i + 1 < field.u.size and abs(field.u[i + 1] - a_u) > 1e-9:
                assert field.s_u[0][i + 1, j] * (a_u - field.u[i + 1]) > 0

    def test_anchor_reconstruction(self):
        rng = np.random.default_rng(8)
        anchors = rng.standard_normal((3, 7))
        model = GaussianModel(random_spectrum(10, 7, 2))
        field = slice_field([model], anchors, 1.0, grid_n=4, extent=1.0)
        for k in range(3):
            rebuilt = field.point(field.anchor_uv[k, 0], field.anchor_uv[k, 1])
            np.testing.assert_allclose(rebuilt, anchors[k], atol=1e-12)

    def test_collinear_rejected(self):
        anchors = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(DegeneratePlane):
            slice_field([GaussianModel(random_spectrum(11, 2, 1))], anchors, 1.0)


class TestBimodal:
    def test_unimodal_limit(self):
        curve = bimodal_error_curve(1e-8, 0.5, 4, [0.5, 1.0, 2.0])
        assert np.all(curve < 1e-12)

    def test_divergence_near_m_in_1d(self):
        curve = bimodal_error_curve(4.0, 0.05, 1, [4.0])
        assert curve[0] > 1.0

    def test_decreasing_in_dimension(self):
        sigma = [2.0]
        values = [bimodal_error_curve(4.0, 0.1, d, sigma)[0] for d in (1, 16, 256)]
        assert values[0] > values[1] > values[2]

    @pytest.mark.parametrize("m, q", [(np.nan, 0.1), (np.inf, 0.1), (0.0, 0.1), (4.0, np.nan),
                                      (4.0, np.inf), (4.0, -1.0)])
    def test_bad_scale_rejected(self, m, q):
        with pytest.raises(InvalidInput, match="need finite m > 0, q >= 0"):
            bimodal_error_curve(m, q, 4, [1.0])

    @pytest.mark.parametrize("m, q, d, sigma, n_quad", [
        (1e300, 0.1, 4, 1.0, 64),  # m^2 overflows
        (4.0, 1e300, 4, 1.0, 64),  # q^2 overflows
        (4.0, 0.1, 4, 1e200, 64),  # sigma^2 overflows
        (4.0, 0.1, 4, np.nan, 64),
        (4.0, 0.0, 4, 0.0, 64),  # no spread at all: 0/0
        (4.0, 0.05, 1, 0.1, 65),  # the odd rule's node x_1 = m is the D = 1 pole
    ])
    def test_non_finite_value_raises(self, m, q, d, sigma, n_quad):
        # under the suite's RuntimeWarning-as-error filter: no warning escapes
        with pytest.raises(NumericalBlowup, match="non-finite bimodal deviation at sigma="):
            bimodal_error_curve(m, q, d, [1.0, sigma], n_quad=n_quad)

    def test_quadrature_self_convergence(self):
        sigmas = [0.5, 1.0, 2.0, 4.0, 8.0]
        a = bimodal_error_curve(4.0, 0.1, 16, sigmas, n_quad=200)
        b = bimodal_error_curve(4.0, 0.1, 16, sigmas, n_quad=400)
        assert np.max(np.abs(a - b) / np.abs(b)) < 1e-6

    def test_monte_carlo_cross_check(self):
        # the reduction replaces the off-axis norm by its mean; agreement with
        # full Monte Carlo tightens as the ambient dimension grows
        for d, tol in ((16, 0.15), (64, 0.05), (256, 0.02)):
            gh = bimodal_error_curve(4.0, 0.2, d, [3.0])[0]
            mc = bimodal_error_mc(4.0, 0.2, d, 3.0, n_sample=200_000, seed=0)
            assert abs(gh - mc) / mc < tol
