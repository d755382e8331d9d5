import numpy as np
import pytest

from scorefield.errors import DegeneratePlane, InvalidInput
from scorefield.models import GaussianModel
from scorefield.samplers import Trajectory
from scorefield.schedules import EdmSchedule, VpSchedule
from scorefield.solution import (
    ROTATION_BOUND_COEFF,
    SolutionContext,
    endpoint,
    perturbation_gain,
    perturbation_shift,
    psi,
    rotation_correction,
    rotation_decompose,
    solve_denoiser,
    solve_state,
    solve_state_vp,
    xi,
)
from scorefield.spectrum import CompactSpectrum


def random_spectrum(seed, d, r, lam_range=(0.1, 4.0)):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((d, max(r, 1))))
    lam = np.sort(rng.uniform(*lam_range, r))[::-1]
    return CompactSpectrum(rng.standard_normal(d), u[:, :r], lam)


def heun_reference(spec, x_T, sigma_grid):
    """Independent Heun integration of dx/dsigma = -sigma s(x, sigma)."""
    x = np.array(x_T, dtype=float)
    for i in range(len(sigma_grid) - 1):
        s, sn = sigma_grid[i], sigma_grid[i + 1]
        d = -s * GaussianModel(spec).score(x, s)
        xe = x + (sn - s) * d
        d2 = -sn * GaussianModel(spec).score(xe, sn)
        x = x + (sn - s) * 0.5 * (d + d2)
    return x


class TestPsi:
    def test_identity_at_anchor(self):
        assert psi(5.0, 5.0, 2.3) == 1.0

    def test_hand_value(self):
        # sqrt((1 + 4) / (6400 + 4)) = sqrt(5 / 6404) = 0.0279421...
        v = psi(1.0, 80.0, 4.0)
        np.testing.assert_allclose(v, np.sqrt(5.0 / 6404.0), rtol=1e-15)
        np.testing.assert_allclose(v, 0.027943, atol=1e-6)

    def test_lambda_zero_reduction(self):
        np.testing.assert_allclose(psi(2.0, 8.0, 0.0), 0.25)

    def test_negative_rejected(self):
        with pytest.raises(InvalidInput):
            psi(-1.0, 2.0, 1.0)
        with pytest.raises(InvalidInput):
            psi(1.0, 2.0, -0.5)
        with pytest.raises(InvalidInput):
            psi(1.0, 0.0, 1.0)

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            sT = rng.uniform(0.1, 100)
            st_ = rng.uniform(0, sT)
            v = psi(st_, sT, rng.uniform(0, 10))
            assert 0 < v <= 1


class TestXi:
    def test_lambda_zero(self):
        assert xi(1.0, 2.0, 0.0) == 0.0

    def test_asymptotic_large_sigma_T(self):
        v = xi(0.0, 1e6, 1.0)
        assert abs(v - 1e-6) / 1e-6 < 1e-12

    def test_symmetry_point(self):
        lam = 2.7
        np.testing.assert_allclose(xi(np.sqrt(lam), np.sqrt(lam), lam), 0.5, rtol=1e-15)

    def test_monotone_nonincreasing_in_sigma_t(self):
        grid = np.linspace(0, 10, 200)
        vals = xi(grid, 10.0, 1.7)
        assert np.all(np.diff(vals) <= 0)

    def test_no_overflow_large_anchor_small_lambda(self):
        # fused form avoids the cancellation of psi * lam/(lam + sigma_t^2)
        v = xi(0.0, 80.0, 1e-4)
        expected = 1e-4 / (np.sqrt(1e-4) * np.sqrt(1e-4 + 6400.0))
        np.testing.assert_allclose(v, expected, rtol=1e-14)


class TestSolveState:
    def test_initial_condition(self):
        spec = random_spectrum(5, 8, 3)
        x_T = np.random.default_rng(1).standard_normal(8) * 10
        ctx = SolutionContext.create(spec, x_T, 10.0)
        np.testing.assert_allclose(solve_state(ctx, 10.0), x_T, atol=1e-12)

    def test_rank0_pure_shrinkage(self):
        spec = CompactSpectrum(np.array([1.0, -1.0]), np.zeros((2, 0)), np.zeros(0))
        x_T = np.array([3.0, 5.0])
        ctx = SolutionContext.create(spec, x_T, 4.0)
        np.testing.assert_allclose(
            solve_state(ctx, 2.0), spec.mean + 0.5 * (x_T - spec.mean), rtol=1e-15
        )

    def test_matches_heun_integration(self):
        # oracle: numerical PF-ODE integration with the Gaussian score
        # (geometric grid keeps the relative step small near sigma -> 0)
        spec = random_spectrum(5, 8, 3)
        rng = np.random.default_rng(5)
        sigma_T = 20.0
        x_T = rng.standard_normal(8)
        ctx = SolutionContext.create(spec, x_T, sigma_T)
        for target in (5.0, 1.0, 0.1):
            grid = np.geomspace(sigma_T, target, 401)
            ref = heun_reference(spec, x_T, grid)
            assert np.linalg.norm(solve_state(ctx, target) - ref) < 1e-5

    def test_out_of_range(self):
        spec = random_spectrum(5, 4, 1)
        ctx = SolutionContext.create(spec, np.zeros(4), 2.0)
        with pytest.raises(InvalidInput):
            solve_state(ctx, 3.0)
        with pytest.raises(InvalidInput):
            solve_state(ctx, -0.1)

    def test_semigroup_reanchoring(self):
        spec = random_spectrum(6, 10, 4)
        rng = np.random.default_rng(2)
        x_T = rng.standard_normal(10) * 5
        ctx = SolutionContext.create(spec, x_T, 40.0)
        x_mid = solve_state(ctx, 3.0)
        ctx_mid = SolutionContext.create(spec, x_mid, 3.0)
        for target in (2.0, 0.5, 0.0):
            direct = solve_state(ctx, target)
            hopped = solve_state(ctx_mid, target)
            assert np.linalg.norm(direct - hopped) < 1e-10

    def test_ode_residual(self):
        # d/dsigma of the closed form vs (1/sigma)(I - U Lam U^T)(x - mu)
        rng = np.random.default_rng(77)
        h = 1e-5
        for trial in range(100):
            spec = random_spectrum(trial, 6, 2)
            x_T = rng.standard_normal(6) * 3
            sigma_T = rng.uniform(2.0, 30.0)
            ctx = SolutionContext.create(spec, x_T, sigma_T)
            s = rng.uniform(0.2, sigma_T - 0.1)
            fd = (solve_state(ctx, s + h) - solve_state(ctx, s - h)) / (2 * h)
            x = solve_state(ctx, s)
            rhs = -s * GaussianModel(spec).score(x, s)
            assert np.linalg.norm(fd - rhs) / max(np.linalg.norm(rhs), 1e-12) < 1e-6


class TestSolveDenoiser:
    def test_starts_near_mean_for_large_anchor(self):
        spec = random_spectrum(3, 5, 2, lam_range=(0.5, 1.0))
        x_T = np.random.default_rng(0).standard_normal(5) * 1e4
        ctx = SolutionContext.create(spec, x_T, 1e4)
        assert np.linalg.norm(solve_denoiser(ctx, 1e4) - spec.mean) < 1e-6 * np.linalg.norm(x_T)

    def test_rank0_returns_mean(self):
        spec = CompactSpectrum(np.array([2.0, 3.0]), np.zeros((2, 0)), np.zeros(0))
        ctx = SolutionContext.create(spec, np.array([9.0, -9.0]), 5.0)
        for s in (5.0, 1.0, 0.0):
            np.testing.assert_array_equal(solve_denoiser(ctx, s), spec.mean)

    def test_consistency_with_pointwise_denoiser(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            spec = random_spectrum(trial + 200, 7, 3)
            sigma_T = rng.uniform(5, 50)
            ctx = SolutionContext.create(spec, rng.standard_normal(7) * 2, sigma_T)
            s = rng.uniform(0.05, sigma_T)
            via_traj = solve_denoiser(ctx, s)
            via_field = GaussianModel(spec).denoise(solve_state(ctx, s), s)
            assert np.linalg.norm(via_traj - via_field) < 1e-10

    def test_on_manifold(self):
        spec = random_spectrum(8, 12, 3)
        ctx = SolutionContext.create(spec, np.random.default_rng(3).standard_normal(12), 15.0)
        proj = np.eye(12) - spec.basis @ spec.basis.T
        for s in np.linspace(0.0, 15.0, 9):
            off = proj @ (solve_denoiser(ctx, s) - spec.mean)
            assert np.linalg.norm(off) < 1e-10


class TestEndpoint:
    def test_mean_start(self):
        spec = random_spectrum(4, 5, 2)
        ctx = SolutionContext.create(spec, spec.mean, 7.0)
        np.testing.assert_allclose(endpoint(ctx), spec.mean, atol=1e-13)

    def test_single_mode_formula(self):
        lam, c, sigma_T = 2.5, 1.7, 12.0
        u = np.array([0.6, 0.8])
        spec = CompactSpectrum(np.array([1.0, -2.0]), u[:, None], [lam])
        ctx = SolutionContext.create(spec, spec.mean + c * u, sigma_T)
        expected = spec.mean + np.sqrt(lam / (sigma_T**2 + lam)) * c * u
        np.testing.assert_allclose(endpoint(ctx), expected, rtol=1e-14)

    def test_off_manifold_start_lands_on_mean(self):
        spec = random_spectrum(4, 5, 2)
        rng = np.random.default_rng(9)
        v = rng.standard_normal(5)
        v -= spec.basis @ (spec.basis.T @ v)  # purely off-manifold
        ctx = SolutionContext.create(spec, spec.mean + v, 3.0)
        np.testing.assert_allclose(endpoint(ctx), spec.mean, atol=1e-12)

    def test_equals_solve_state_at_zero(self):
        spec = random_spectrum(14, 6, 3)
        ctx = SolutionContext.create(spec, np.random.default_rng(4).standard_normal(6), 9.0)
        np.testing.assert_array_equal(endpoint(ctx), solve_state(ctx, 0.0))


def rk4_scaled_reference(spec, schedule, x_T, t_start, t_end, n=4000):
    """Oracle for the scaled solution: substitute y = x / alpha_t and
    integrate dy/dtau = -tau s(y, tau) in tau = sigma_t / alpha_t."""
    def tau_of(t):
        return float(schedule.sigma(t) / schedule.alpha(t))

    y = np.array(x_T, dtype=float) / float(schedule.alpha(t_start))
    taus = np.linspace(tau_of(t_start), tau_of(t_end), n + 1)

    def f(yv, tau):
        tau = max(tau, 1e-12)
        return -tau * GaussianModel(spec).score(yv, tau)

    for i in range(n):
        a, b = taus[i], taus[i + 1]
        h = b - a
        k1 = f(y, a)
        k2 = f(y + 0.5 * h * k1, a + 0.5 * h)
        k3 = f(y + 0.5 * h * k2, a + 0.5 * h)
        k4 = f(y + h * k3, b)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return float(schedule.alpha(t_end)) * y


class TestScaledSolution:
    def test_alpha_one_reduces_to_edm(self):
        spec = random_spectrum(21, 6, 2)
        schedule = EdmSchedule(30.0)
        rng = np.random.default_rng(7)
        x_T = rng.standard_normal(6) * 30
        ctx = SolutionContext.create(spec, x_T, 30.0, alpha_T=1.0)
        for _ in range(20):
            t = float(rng.uniform(0.0, 30.0))
            np.testing.assert_allclose(
                solve_state_vp(ctx, schedule, t), solve_state(ctx, t), atol=1e-12
            )

    def test_vp_rank0_endpoint(self):
        spec = CompactSpectrum(np.array([0.5, -0.5]), np.zeros((2, 0)), np.zeros(0))
        schedule = VpSchedule(0.1, 20.0)
        aT = float(schedule.alpha(1.0))
        sT = float(schedule.sigma(1.0))
        ctx = SolutionContext.create(spec, np.array([1.0, 2.0]), sT, alpha_T=aT)
        np.testing.assert_allclose(solve_state_vp(ctx, schedule, 0.0), spec.mean, rtol=1e-12)

    def test_matches_rk4_of_scaled_ode(self):
        spec = random_spectrum(33, 5, 2)
        schedule = VpSchedule(0.1, 20.0)
        rng = np.random.default_rng(12)
        T = 1.0
        aT, sT = float(schedule.alpha(T)), float(schedule.sigma(T))
        x_T = rng.standard_normal(5)
        ctx = SolutionContext.create(spec, x_T, sT, alpha_T=aT)
        for t in (0.6, 0.3, 0.1):
            ref = rk4_scaled_reference(spec, schedule, x_T, T, t)
            assert np.linalg.norm(solve_state_vp(ctx, schedule, t) - ref) < 1e-5

    def test_xi_curve_sigmoidal(self):
        schedule = VpSchedule(0.1, 20.0)
        t = np.linspace(0.0, 1.0, 500)
        a = np.asarray(schedule.alpha(t))
        s = np.asarray(schedule.sigma(t))
        aT, sT = a[-1], s[-1]
        for lam in (0.04, 1.0, 25.0):
            curve = a * lam / (np.sqrt(a**2 * lam + s**2) * np.sqrt(aT**2 * lam + sT**2))
            curve /= np.sqrt(lam)
            assert np.all(np.diff(curve) <= 1e-12)  # nonincreasing as sigma grows


class TestPerturbation:
    def test_unit_lambda_vp_identity(self):
        for t in np.linspace(0.05, 0.95, 10):
            schedule = VpSchedule(0.1, 20.0)
            a, s = float(schedule.alpha(t)), float(schedule.sigma(t))
            np.testing.assert_allclose(perturbation_gain(1.0, a, s), 1.0, rtol=1e-12)

    def test_hand_value(self):
        np.testing.assert_allclose(
            perturbation_gain(4.0, 0.6, 0.8), np.sqrt(4.0 / 2.08), rtol=1e-15
        )
        np.testing.assert_allclose(perturbation_gain(4.0, 0.6, 0.8), 1.38675, atol=5e-6)

    def test_off_manifold_shift_is_zero(self):
        spec = random_spectrum(61, 7, 2)
        rng = np.random.default_rng(61)
        v = rng.standard_normal(7)
        v -= spec.basis @ (spec.basis.T @ v)
        shift = perturbation_shift(spec, v, 0.7, 0.5)
        np.testing.assert_allclose(shift, np.zeros(7), atol=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(InvalidInput):
            perturbation_gain(1.0, 0.0, 0.0)
        with pytest.raises(InvalidInput):
            perturbation_gain(-1.0, 0.5, 0.5)

    def test_shift_matches_reanchored_endpoints(self):
        # perturb the exact state at sigma', re-anchor, compare endpoints
        spec = random_spectrum(71, 8, 3)
        rng = np.random.default_rng(5)
        x_T = rng.standard_normal(8) * 10
        ctx = SolutionContext.create(spec, x_T, 10.0)
        sigma_p = 2.0
        x_p = solve_state(ctx, sigma_p)
        delta = 0.05 * rng.standard_normal(8)
        base = endpoint(SolutionContext.create(spec, x_p, sigma_p))
        shifted = endpoint(SolutionContext.create(spec, x_p + delta, sigma_p))
        np.testing.assert_allclose(
            shifted - base, perturbation_shift(spec, delta, 1.0, sigma_p), atol=1e-12
        )


class TestRotation:
    def test_correction_hand_value(self):
        np.testing.assert_allclose(
            rotation_correction(1.0 / np.sqrt(2.0), 1.0), 1.0 - np.sqrt(2.0), rtol=1e-14
        )

    def test_correction_nonpositive_and_below_one(self):
        alphas = np.linspace(0.0, 1.0, 101)
        for lam in (0.04, 1.0, 25.0):
            j = rotation_correction(alphas, lam)
            assert np.all(j <= 1e-15)
            assert np.all(np.abs(j) < 1.0)

    def test_correction_at_critical_scale(self):
        # at alpha = 1/sqrt(lam + 1): J^2 = 4 (1 - sqrt(2)/2)^2 lam/(lam + 1)
        for lam in (0.04, 1.0, 4.0, 25.0):
            j = rotation_correction(1.0 / np.sqrt(lam + 1.0), lam)
            np.testing.assert_allclose(
                j**2, ROTATION_BOUND_COEFF * lam / (lam + 1.0), rtol=1e-12
            )

    def _vp_trajectory(self, spec, seed=0):
        schedule = VpSchedule(0.1, 20.0)
        rng = np.random.default_rng(seed)
        d = spec.dim
        x_T = rng.standard_normal(d)
        aT, sT = float(schedule.alpha(1.0)), float(schedule.sigma(1.0))
        ctx = SolutionContext.create(spec, x_T, sT, alpha_T=aT)
        ts = np.linspace(1.0, 0.0, 201)
        states = np.asarray([solve_state_vp(ctx, schedule, t) for t in ts])
        sigma = np.asarray(schedule.sigma(ts))
        sigma[-1] = 0.0
        # strictly decreasing guard for the Trajectory invariant
        traj = Trajectory(ts, sigma, np.asarray(schedule.alpha(ts)), states)
        return ctx, traj, x_T

    def test_rank0_residual_zero(self):
        spec = CompactSpectrum(np.zeros(16), np.zeros((16, 0)), np.zeros(0))
        ctx, traj, x_T = self._vp_trajectory(spec, seed=3)
        x_0 = endpoint(ctx)
        # rank 0: x_0 = alpha-scaled mean = 0 vector; plane degenerate, so use
        # the exact two-term identity instead: x_t = a mu-part + b x_T
        # with mean zero the state is exactly (sigma_t / sigma_T) x_T
        b = traj.sigma / float(traj.sigma[0])
        residual = traj.states - b[:, None] * x_T
        assert np.max(np.linalg.norm(residual, axis=1)) < 1e-10

    def test_low_rank_residual_bound(self):
        spec = random_spectrum(91, 256, 4, lam_range=(0.2, 4.0))
        object.__setattr__(spec, "mean", np.zeros(256))
        ctx, traj, x_T = self._vp_trajectory(spec, seed=4)
        x_0 = endpoint(ctx)
        dec = rotation_decompose(traj, x_0, x_T, coeffs=ctx.coeffs)
        assert dec.residual_bound_sq is not None
        assert np.max(dec.residual_norm**2) <= dec.residual_bound_sq

    def test_predicted_coefficients(self):
        spec = random_spectrum(92, 128, 3, lam_range=(0.5, 2.0))
        object.__setattr__(spec, "mean", np.zeros(128))
        ctx, traj, x_T = self._vp_trajectory(spec, seed=5)
        dec = rotation_decompose(traj, endpoint(ctx), x_T, coeffs=ctx.coeffs)
        # the x_T coefficient tracks sqrt(1 - alpha_t^2) closely; the x_0
        # coefficient is exact at the trajectory endpoints
        assert np.max(np.abs(dec.b - dec.b_pred)) < 0.05
        np.testing.assert_allclose(dec.a[-1], 1.0, atol=1e-8)
        np.testing.assert_allclose(dec.b[-1], 0.0, atol=1e-8)
        assert abs(dec.a[0]) < 0.05
        np.testing.assert_allclose(dec.b[0], 1.0, atol=1e-6)

    def test_degenerate_plane(self):
        traj = Trajectory([1.0], [1.0], [0.5], np.ones((1, 4)))
        v = np.ones(4)
        with pytest.raises(DegeneratePlane):
            rotation_decompose(traj, v, 2.0 * v)
