import numpy as np
import pytest

from scorefield.errors import InvalidInput, InvalidSkip, NumericalBlowup
from scorefield.models import (
    GaussianComponent,
    GaussianModel,
    MixtureModel,
    ScoreModel,
)
from scorefield.samplers import (
    Trajectory,
    ddim_style_sample,
    heun_sample,
    rk4_sample,
    teleport_sample,
)
from scorefield.schedules import VpSchedule, karras_grid
from scorefield.solution import SolutionContext, endpoint, solve_state, solve_state_vp
from scorefield.spectrum import CompactSpectrum


def random_spectrum(seed, d, r, lam_range=(0.1, 4.0)):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((d, max(r, 1))))
    lam = np.sort(rng.uniform(*lam_range, r))[::-1]
    return CompactSpectrum(rng.standard_normal(d), u[:, :r], lam)


class CountingModel(ScoreModel):
    """Wraps a model and counts evaluations (score or denoise, one each)."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    @property
    def dim(self):
        return self.inner.dim

    def score(self, x, sigma):
        self.calls += 1
        return self.inner.score(x, sigma)

    def denoise(self, x, sigma):
        self.calls += 1
        return self.inner.denoise(x, sigma)


class BlowupModel(ScoreModel):
    dim = 2

    def denoise(self, x, sigma):
        return np.full(2, np.nan)

    def score(self, x, sigma):
        return np.full(2, np.nan)


def two_mode_gmm(seed=1, d=2, sep=4.0):
    rng = np.random.default_rng(seed)
    comps = []
    for sign in (1.0, -1.0):
        mu = np.zeros(d)
        mu[0] = sign * sep / 2
        u, _ = np.linalg.qr(rng.standard_normal((d, 1)))
        comps.append(GaussianComponent(0.5, CompactSpectrum(mu, u, [0.3])))
    return MixtureModel(tuple(comps))


class TestHeun:
    def test_gaussian_endpoint_matches_closed_form(self):
        spec = random_spectrum(3, 16, 4)
        model = GaussianModel(spec)
        rng = np.random.default_rng(0)
        x_T = rng.standard_normal(16)
        grid = karras_grid(1e-6, 80.0, 7.0, 400)
        traj = heun_sample(model, grid, x_T)
        ctx = SolutionContext.create(spec, x_T, 80.0)
        assert np.linalg.norm(traj.endpoint - endpoint(ctx)) < 1e-5

    def test_rank0_exact_per_step(self):
        mu = np.array([0.4, -0.2, 1.0])
        spec = CompactSpectrum(mu, np.zeros((3, 0)), np.zeros(0))
        model = GaussianModel(spec)
        x_T = np.array([5.0, 5.0, 5.0])
        grid = karras_grid(0.5, 8.0, 7.0, 12)
        traj = heun_sample(model, grid, x_T)
        expected = mu + (0.5 / 8.0) * (x_T - mu)
        np.testing.assert_allclose(traj.endpoint, expected, rtol=1e-12)
        # every intermediate level is exact too
        for i, s in enumerate(grid.levels):
            np.testing.assert_allclose(traj.states[i], mu + (s / 8.0) * (x_T - mu), rtol=1e-12)

    # ddim's count is checked in TestDdim.test_nfe
    @pytest.mark.parametrize("sampler", ["heun", "rk4", "teleport"])
    def test_nfe_accounting(self, sampler):
        spec = random_spectrum(2, 4, 2)
        model = CountingModel(GaussianModel(spec))
        n = 25
        grid = karras_grid(0.01, 10.0, 7.0, n)
        traj, expected = {
            "heun": lambda: (heun_sample(model, grid, np.ones(4)), 2 * (n - 1) - 1),
            "rk4": lambda: (rk4_sample(model, 10.0, 0.01, 30, np.ones(4)), 4 * 30),
            # skipping 5 levels saves 10 evaluations
            "teleport": lambda: (teleport_sample(model, spec, grid, float(grid.levels[5]),
                                                 np.ones(4)), 2 * (n - 1) - 1 - 10),
        }[sampler]()
        assert traj.nfe == expected
        assert traj.nfe == model.calls

    def test_determinism(self):
        model = GaussianModel(random_spectrum(5, 6, 2))
        grid = karras_grid(0.01, 10.0, 7.0, 30)
        x_T = np.random.default_rng(1).standard_normal(6)
        a = heun_sample(model, grid, x_T)
        b = heun_sample(model, grid, x_T)
        np.testing.assert_array_equal(a.states, b.states)

    def test_order_two_convergence(self):
        # halving the step size cuts the endpoint error ~4x on a smooth GMM,
        # measured against a fine RK4 solution
        model = two_mode_gmm()
        x_T = np.array([1.3, -0.7]) * 10.0
        fine = rk4_sample(model, 10.0, 0.05, 4000, x_T).endpoint
        errs = []
        for n in (20, 40, 80, 160):
            traj = heun_sample(model, karras_grid(0.05, 10.0, 7.0, n), x_T)
            errs.append(np.linalg.norm(traj.endpoint - fine))
        ratios = np.array(errs[:-1]) / np.array(errs[1:])
        assert np.all(ratios > 3.0)
        assert np.all(ratios < 5.5)

    @pytest.mark.parametrize("sampler", ["heun", "rk4", "ddim", "teleport"])
    def test_blowup_detection(self, sampler):
        grid = karras_grid(0.1, 5.0, 7.0, 6)
        sample = {
            "heun": lambda m: heun_sample(m, grid, np.ones(2)),
            "rk4": lambda m: rk4_sample(m, 5.0, 0.1, 10, np.ones(2)),
            "ddim": lambda m: ddim_style_sample(m, VpSchedule(0.1, 20.0), 5, np.ones(2)),
            "teleport": lambda m: teleport_sample(m, random_spectrum(3, 2, 1), grid, 5.0,
                                                  np.ones(2)),
        }[sampler]
        with pytest.raises(NumericalBlowup) as info:
            sample(BlowupModel())
        assert info.value.step == 0
        assert str(info.value).startswith(f"{sampler} produced a non-finite state")


class TestRk4:
    def test_gaussian_matches_closed_form(self):
        spec = random_spectrum(4, 8, 3)
        model = GaussianModel(spec)
        x_T = np.random.default_rng(2).standard_normal(8)
        traj = rk4_sample(model, 20.0, 0.01, 200, x_T)
        ctx = SolutionContext.create(spec, x_T, 20.0)
        assert np.linalg.norm(traj.endpoint - solve_state(ctx, 0.01)) < 1e-7

    def test_cross_integrator_consistency(self):
        model = two_mode_gmm(seed=1, d=2)
        x_T = np.array([7.0, -3.0])
        grid = karras_grid(0.05, 10.0, 7.0, 120)
        heun_end = heun_sample(model, grid, x_T).endpoint
        rk4_end = rk4_sample(model, 10.0, 0.05, 240, x_T).endpoint
        assert np.linalg.norm(heun_end - rk4_end) < 1e-4

    def test_zero_length_interval(self):
        model = GaussianModel(random_spectrum(6, 3, 1))
        x = np.array([1.0, 2.0, 3.0])
        traj = rk4_sample(model, 4.0, 4.0, 10, x)
        np.testing.assert_array_equal(traj.endpoint, x)
        assert traj.nfe == 0

    def test_order_four_convergence(self):
        spec = random_spectrum(8, 6, 2)
        model = GaussianModel(spec)
        x_T = np.random.default_rng(3).standard_normal(6) * 5
        ctx = SolutionContext.create(spec, x_T, 8.0)
        exact = solve_state(ctx, 0.5)
        errs = []
        for n in (20, 40, 80, 160):
            traj = rk4_sample(model, 8.0, 0.5, n, x_T)
            errs.append(np.linalg.norm(traj.endpoint - exact))
        ratios = np.array(errs[:-1]) / np.array(errs[1:])
        assert np.all(ratios > 12.0)

    def test_records_requested_levels(self):
        spec = random_spectrum(10, 4, 2)
        model = GaussianModel(spec)
        levels = karras_grid(0.1, 6.0, 7.0, 9).levels
        traj = rk4_sample(model, 6.0, 0.1, 300, np.ones(4), record_levels=levels)
        np.testing.assert_allclose(traj.sigma, levels)
        ctx = SolutionContext.create(spec, np.ones(4), 6.0)
        for i, s in enumerate(levels):
            assert np.linalg.norm(traj.states[i] - solve_state(ctx, float(s))) < 1e-6

    def test_integrates_to_zero_with_floor(self):
        # the floored slope keeps the singular sigma -> 0 approach stable;
        # the final approach is only first-order accurate there
        spec = random_spectrum(11, 4, 2)
        model = GaussianModel(spec)
        x_T = np.random.default_rng(4).standard_normal(4)
        traj = rk4_sample(model, 10.0, 0.0, 400, x_T)
        assert np.all(np.isfinite(traj.endpoint))
        ctx = SolutionContext.create(spec, x_T, 10.0)
        assert np.linalg.norm(traj.endpoint - endpoint(ctx)) < 1e-3

    def test_record_levels_are_normalized_once(self):
        # No record levels, an empty list, the interior levels and the full
        # levels all give the same segments, so the same bits.
        model = two_mode_gmm(seed=2)
        x = np.array([4.0, -2.5])
        levels = karras_grid(0.1, 6.0, 7.0, 7).levels

        def run(record_levels):
            return rk4_sample(model, 6.0, 0.1, 40, x, record_levels=record_levels)

        for a, b in ((run(None), run([])), (run(levels[1:-1]), run(levels))):
            np.testing.assert_array_equal(a.sigma, b.sigma)
            np.testing.assert_array_equal(a.states, b.states)
            assert a.nfe == b.nfe
        assert run(None).sigma.tolist() == [6.0, 0.1]

    @pytest.mark.parametrize("levels", [[7.0], [0.05], [np.nan]])
    def test_record_levels_outside_interval_rejected(self, levels):
        model = GaussianModel(random_spectrum(6, 3, 1))
        with pytest.raises(InvalidInput, match="record levels must lie within"):
            rk4_sample(model, 6.0, 0.1, 10, np.zeros(3), record_levels=levels)

    @pytest.mark.parametrize("sigma_start, sigma_end, x_start, message", [
        pytest.param(1.0, 2.0, np.zeros(3), "sigma_start >= sigma_end", id="interval"),
        pytest.param(2.0, 1.0, np.zeros(4), "x_start has length 4", id="x_start"),
    ])
    def test_bad_interval(self, sigma_start, sigma_end, x_start, message):
        model = GaussianModel(random_spectrum(6, 3, 1))
        with pytest.raises(InvalidInput, match=message):
            rk4_sample(model, sigma_start, sigma_end, 10, x_start)


class TestTeleport:
    def _gaussian_setup(self, seed=0, d=12, r=4, n=400):
        spec = random_spectrum(seed, d, r)
        model = GaussianModel(spec)
        grid = karras_grid(0.002, 80.0, 7.0, n)
        x_T = np.random.default_rng(seed).standard_normal(d)
        return spec, model, grid, x_T

    def test_exact_on_gaussian_targets(self):
        spec, model, grid, x_T = self._gaussian_setup(n=400)
        full = heun_sample(model, grid, x_T)
        for idx in (1, 100, 250, 398):
            traj = teleport_sample(model, spec, grid, float(grid.levels[idx]), x_T)
            assert np.linalg.norm(traj.endpoint - full.endpoint) < 1e-5
            assert traj.metadata["skipped_levels"] == idx
            assert traj.nfe == full.nfe - 2 * idx

    def test_degenerate_skip_identical(self):
        spec, model, grid, x_T = self._gaussian_setup(n=50)
        plain = heun_sample(model, grid, x_T)
        tele = teleport_sample(model, spec, grid, 80.0, x_T)
        assert tele.metadata["skipped_levels"] == 0
        np.testing.assert_allclose(tele.states, plain.states, rtol=1e-12, atol=1e-12)
        assert tele.nfe == plain.nfe

    def test_skip_depth_monotonic_on_gmm(self):
        rng = np.random.default_rng(9)
        comps = []
        for i in range(3):
            mu = rng.normal(0, 2.0, 4)
            u, _ = np.linalg.qr(rng.standard_normal((4, 2)))
            lam = np.sort(rng.uniform(0.1, 0.6, 2))[::-1]
            comps.append(GaussianComponent(1.0 / 3, CompactSpectrum(mu, u, lam)))
        model = MixtureModel(tuple(comps))
        # Gaussian approximation of the mixture via its exact moments
        mean = sum(c.weight * c.spectrum.mean for c in comps)
        cov = sum(
            c.weight * (c.spectrum.covariance() + np.outer(c.spectrum.mean, c.spectrum.mean))
            for c in comps
        ) - np.outer(mean, mean)
        from scorefield.spectrum import compact_spectrum

        spec = compact_spectrum(mean, cov)
        tr = spec.total_variance
        grid = karras_grid(0.002, 80.0, 7.0, 200)
        x_T = 80.0 * rng.standard_normal(4)
        full = heun_sample(model, grid, x_T)

        def deviation(sigma_skip):
            idx = int(np.argmin(np.abs(grid.levels - sigma_skip)))
            traj = teleport_sample(model, spec, grid, float(grid.levels[idx]), x_T)
            return np.linalg.norm(traj.endpoint - full.endpoint)

        deep = deviation(0.5 * np.sqrt(tr))
        shallow = deviation(10.0 * np.sqrt(tr))
        assert shallow < deep

    def test_regrid_mode(self):
        spec, model, grid, x_T = self._gaussian_setup(n=64)
        traj = teleport_sample(model, spec, grid, 5.0, x_T, skip_mode="regrid")
        assert traj.sigma[0] == 5.0
        assert traj.sigma[-1] == grid.levels[-1]
        assert len(traj.sigma) == len(grid)
        ctx = SolutionContext.create(spec, x_T, 80.0)
        assert np.linalg.norm(traj.states[0] - solve_state(ctx, 5.0)) < 1e-12

    @pytest.mark.parametrize("skip_mode", ["grid-aligned", "regrid"])
    def test_is_heun_started_at_the_jump_state(self, skip_mode):
        # Teleport is Heun's rule run from the closed-form state at sigma_skip:
        # bit for bit heun_sample on the remaining grid from solve_state.
        spec, _, grid, x_T = self._gaussian_setup(n=24)
        model = two_mode_gmm(seed=4, d=12)
        if skip_mode == "grid-aligned":
            sigma_skip = float(grid.levels[7])
            sub = grid.truncate_from(7)
        else:
            sigma_skip = 5.0
            sub = karras_grid(float(grid.levels[-1]), sigma_skip, grid.rho, len(grid))
        ctx = SolutionContext.create(spec, x_T, sigma_T=float(grid.levels[0]))
        ref = heun_sample(model, sub, solve_state(ctx, sigma_skip))
        tele = teleport_sample(model, spec, grid, sigma_skip, x_T, skip_mode=skip_mode)
        np.testing.assert_array_equal(tele.sigma, ref.sigma)
        np.testing.assert_array_equal(tele.states, ref.states)
        assert tele.nfe == ref.nfe == 2 * (len(sub) - 1) - 1
        assert tele.metadata == {"sampler": "teleport", "nfe": ref.nfe, "sigma_skip": sigma_skip,
                                 "skip_mode": skip_mode,
                                 "skipped_levels": 7 if skip_mode == "grid-aligned" else None}

    def test_invalid_skip(self):
        spec, model, grid, x_T = self._gaussian_setup(n=16)
        with pytest.raises(InvalidSkip):
            teleport_sample(model, spec, grid, 100.0, x_T)
        with pytest.raises(InvalidSkip):
            teleport_sample(model, spec, grid, 0.001, x_T)
        with pytest.raises(InvalidSkip):
            teleport_sample(model, spec, grid, 5.0, x_T)  # off-grid, aligned mode


class TestDdim:
    def test_per_step_factor_identity(self):
        # on a centered single-mode Gaussian, one update multiplies the
        # on-manifold coefficient by exactly
        # (alpha alpha' lam + sigma sigma') / (alpha^2 lam + sigma^2)
        lam = 1.7
        u = np.zeros((3, 1))
        u[1, 0] = 1.0
        spec = CompactSpectrum(np.zeros(3), u, [lam])
        model = GaussianModel(spec)
        schedule = VpSchedule(0.1, 20.0)
        n = 5
        x_T = 2.0 * u[:, 0]
        traj = ddim_style_sample(model, schedule, n, x_T)
        for i in range(n - 1):
            a, s = traj.alpha[i], traj.sigma[i]
            an, sn = traj.alpha[i + 1], traj.sigma[i + 1]
            factor = (a * an * lam + s * sn) / (a**2 * lam + s**2)
            np.testing.assert_allclose(traj.states[i + 1][1], factor * traj.states[i][1], rtol=1e-12)

    def test_first_order_convergence_to_vp_closed_form(self):
        spec = random_spectrum(12, 6, 2)
        model = GaussianModel(spec)
        schedule = VpSchedule(0.1, 20.0)
        rng = np.random.default_rng(6)
        x_T = rng.standard_normal(6)
        aT, sT = float(schedule.alpha(1.0)), float(schedule.sigma(1.0))
        ctx = SolutionContext.create(spec, x_T, sT, alpha_T=aT)
        exact = solve_state_vp(ctx, schedule, 0.0)
        errs = [
            np.linalg.norm(ddim_style_sample(model, schedule, n, x_T).endpoint - exact)
            for n in (100, 400, 1600)
        ]
        ratios = np.array(errs[:-1]) / np.array(errs[1:])
        assert np.all(ratios > 3.0) and np.all(ratios < 5.0)

    def test_single_step_collapses_to_x0_hat(self):
        spec = random_spectrum(13, 4, 2)
        model = GaussianModel(spec)
        schedule = VpSchedule(0.1, 20.0)
        x_T = np.random.default_rng(7).standard_normal(4)
        traj = ddim_style_sample(model, schedule, 1, x_T)
        a = float(schedule.alpha(1.0))
        s = float(schedule.sigma(1.0))
        x0_hat = (x_T + s**2 * model.score(x_T / a, s / a) / a) / a
        np.testing.assert_allclose(traj.endpoint, x0_hat, rtol=1e-12)
        # x0_hat is the denoiser of the scaled state, read directly
        np.testing.assert_array_equal(traj.endpoint, model.denoise(x_T / a, s / a))

    def test_rank0_conserved_quantity(self):
        spec = CompactSpectrum(np.array([0.7, -0.7, 0.0]), np.zeros((3, 0)), np.zeros(0))
        model = GaussianModel(spec)
        schedule = VpSchedule(0.1, 20.0)
        x_T = np.random.default_rng(8).standard_normal(3)
        traj = ddim_style_sample(model, schedule, 60, x_T)
        # (x_t - alpha_t x0_hat) / sigma_t is step-invariant for r = 0
        keep = traj.sigma > 0
        x, a, s = traj.states[keep], traj.alpha[keep], traj.sigma[keep]
        x0_hat = np.array([model.denoise(xi / ai, si / ai) for xi, ai, si in zip(x, a, s)])
        consts = (x - a[:, None] * x0_hat) / s[:, None]
        spread = np.max(np.abs(consts - consts[0]), axis=0)
        assert np.max(spread) < 1e-8

    def test_nfe(self):
        model = CountingModel(GaussianModel(random_spectrum(14, 3, 1)))
        traj = ddim_style_sample(model, VpSchedule(0.1, 20.0), 25, np.zeros(3))
        assert traj.nfe == 25 == model.calls


class TestTrajectoryType:
    def test_sigma_must_decrease(self):
        with pytest.raises(InvalidInput):
            Trajectory([0, 1], [1.0, 1.0], [1, 1], np.zeros((2, 2)))
