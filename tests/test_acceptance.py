"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance below is fixed, not tuned at runtime.
"""

import numpy as np

from scorefield.analysis import bimodal_error_curve, critical_times, unexplained_variance
from scorefield.gmmfit import minimal_sufficient_rank, rank_mode_sweep
from scorefield.models import (
    DeltaMixtureModel,
    GaussianComponent,
    GaussianModel,
    IsotropicModel,
    MixtureModel,
)
from scorefield.samplers import Trajectory, heun_sample, rk4_sample, teleport_sample
from scorefield.schedules import VpSchedule, karras_grid
from scorefield.solution import (
    ROTATION_BOUND_COEFF,
    SolutionContext,
    endpoint,
    perturbation_shift,
    rotation_decompose,
    solve_state,
    solve_state_vp,
)
from scorefield.spectrum import CompactSpectrum, PointCloud, compact_spectrum
from scorefield.synthetic import anchored_five_cluster_cloud


def check(num, desc, condition, detail=""):
    status = "PASS" if condition else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{status}] criterion {num:2d}: {desc}{suffix}")
    assert condition, f"criterion {num}: {desc}{suffix}"


def random_spectrum(rng, d, r, lam_range=(0.05, 4.0)):
    u, _ = np.linalg.qr(rng.standard_normal((d, max(r, 1))))
    lam = np.sort(rng.uniform(*lam_range, r))[::-1]
    return CompactSpectrum(rng.standard_normal(d), u[:, :r], lam)


def test_criterion_01_noise_grid_fidelity():
    grid = karras_grid(0.002, 80.0, 7.0, 18)
    ok = round(float(grid.levels[5]), 1) == 12.9 and round(float(grid.levels[7]), 1) == 5.3
    check(1, "noise grid reproduces published levels 12.9 and 5.3", ok,
          f"sigma_5={grid.levels[5]:.4f}, sigma_7={grid.levels[7]:.4f}")


def test_criterion_02_closed_form_vs_integrator():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(8, 65))
        r = int(rng.integers(1, 9))
        spec = random_spectrum(rng, d, r)
        model = GaussianModel(spec)
        x_T = rng.standard_normal(d)
        grid = karras_grid(1e-6, 80.0, 7.0, 400)
        traj = heun_sample(model, grid, x_T)
        ctx = SolutionContext.create(spec, x_T, 80.0)
        worst = max(worst, float(np.linalg.norm(traj.endpoint - endpoint(ctx))))
    check(2, "Heun(400) endpoint within 1e-5 of the closed form", worst < 1e-5,
          f"worst L2 error {worst:.2e}")

    spec = random_spectrum(rng, 32, 6)
    model = GaussianModel(spec)
    x_T = rng.standard_normal(32)
    ctx = SolutionContext.create(spec, x_T, 80.0)
    errs = []
    for n in (100, 200, 400, 800):
        grid = karras_grid(1e-6, 80.0, 7.0, n)
        traj = heun_sample(model, grid, x_T)
        errs.append(np.linalg.norm(traj.endpoint - solve_state(ctx, 1e-6)))
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    check(2, "Heun error ratio per step-halving in [3.5, 4.5]",
          bool(np.all((ratios > 3.5) & (ratios < 4.5))),
          "ratios " + ", ".join(f"{r:.2f}" for r in ratios))


def test_criterion_03_teleportation_exactness():
    rng = np.random.default_rng(303)
    spec = random_spectrum(rng, 16, 4)
    model = GaussianModel(spec)
    grid = karras_grid(0.002, 80.0, 7.0, 400)
    x_T = rng.standard_normal(16)
    full = heun_sample(model, grid, x_T)
    worst = 0.0
    for idx in range(1, len(grid) - 1):  # sigma_skip must stay above sigma_min
        traj = teleport_sample(model, spec, grid, float(grid.levels[idx]), x_T)
        worst = max(worst, float(np.linalg.norm(traj.endpoint - full.endpoint)))
    check(3, "teleportation exact on Gaussian targets for every grid-aligned skip",
          worst < 1e-5, f"worst L2 deviation {worst:.2e}")

    comps = []
    for _ in range(3):
        mu = rng.normal(0.0, 2.0, 4)
        u, _ = np.linalg.qr(rng.standard_normal((4, 2)))
        lam = np.sort(rng.uniform(0.1, 0.6, 2))[::-1]
        comps.append(GaussianComponent(1.0 / 3, CompactSpectrum(mu, u, lam)))
    gmm = MixtureModel(tuple(comps))
    mean = sum(c.weight * c.spectrum.mean for c in comps)
    cov = sum(
        c.weight * (c.spectrum.covariance() + np.outer(c.spectrum.mean, c.spectrum.mean))
        for c in comps
    ) - np.outer(mean, mean)
    approx = compact_spectrum(mean, cov)
    tr = approx.total_variance
    grid = karras_grid(0.002, 80.0, 7.0, 200)
    x_T = 80.0 * rng.standard_normal(4)
    full = heun_sample(gmm, grid, x_T)
    threshold = 10.0 * np.sqrt(tr)
    worst = 0.0
    for idx in np.nonzero(grid.levels >= threshold)[0]:
        if idx == 0:
            continue
        traj = teleport_sample(gmm, approx, grid, float(grid.levels[idx]), x_T)
        worst = max(worst, float(np.linalg.norm(traj.endpoint - full.endpoint)))
    check(3, "GMM teleportation deviation < 1e-3 for skips above 10 sqrt(tr)",
          worst < 1e-3, f"worst deviation {worst:.2e} at threshold {threshold:.1f}")


def test_criterion_04_far_field_law():
    rng = np.random.default_rng(404)
    cloud = PointCloud(rng.standard_normal((500, 32)) * np.linspace(1.2, 0.1, 32))
    delta = DeltaMixtureModel(cloud)
    gauss = GaussianModel.from_cloud(cloud)
    tr = gauss.spectrum.total_variance
    uv = {}
    for c in (2.0, 10.0, 20.0):
        sigma = c * np.sqrt(tr)
        uv[c] = unexplained_variance(delta, gauss, sigma, 256, seed=404).mean
    check(4, "delta vs Gaussian unexplained variance < 1e-3 at sigma = 10 sqrt(tr)",
          uv[10.0] < 1e-3, f"uv(10)={uv[10.0]:.2e}")
    check(4, "unexplained variance falls >= 10x from 2 sqrt(tr) to 20 sqrt(tr)",
          uv[20.0] * 10.0 <= uv[2.0], f"uv(2)={uv[2.0]:.2e}, uv(20)={uv[20.0]:.2e}")


def test_criterion_05_model_reductions():
    rng = np.random.default_rng(505)
    d = 6
    spec = random_spectrum(rng, d, 3)
    pairs = []
    mix1 = MixtureModel((GaussianComponent(1.0, spec),))
    pairs.append(("mixture(K=1) = gaussian", mix1, GaussianModel(spec)))
    cloud = PointCloud(rng.standard_normal((8, d)))
    zero_comps = tuple(
        GaussianComponent(1.0 / 8, CompactSpectrum(y, np.zeros((d, 0)), np.zeros(0)))
        for y in cloud.data
    )
    pairs.append(("zero-cov mixture = delta", MixtureModel(zero_comps), DeltaMixtureModel(cloud)))
    mu = rng.standard_normal(d)
    rank0 = CompactSpectrum(mu, np.zeros((d, 0)), np.zeros(0))
    pairs.append(("rank-0 gaussian = isotropic", GaussianModel(rank0), IsotropicModel(mu)))

    for name, a, b in pairs:
        worst = 0.0
        for _ in range(100):
            x = 2.0 * rng.standard_normal(d)
            sigma = float(rng.uniform(0.05, 20.0))
            sa, sb = a.score(x, sigma), b.score(x, sigma)
            scale = max(np.linalg.norm(sb), 1.0)
            worst = max(worst, float(np.linalg.norm(sa - sb) / scale))
        check(5, f"reduction identity: {name}", worst < 1e-10, f"worst {worst:.2e}")


def test_criterion_06_denoiser_duality():
    rng = np.random.default_rng(606)
    d = 5
    cloud = PointCloud(rng.standard_normal((9, d)))
    models = {
        "isotropic": IsotropicModel(rng.standard_normal(d)),
        "gaussian": GaussianModel(random_spectrum(rng, d, 2)),
        "mixture": MixtureModel((
            GaussianComponent(0.4, random_spectrum(rng, d, 2)),
            GaussianComponent(0.6, random_spectrum(rng, d, 1)),
        )),
        "delta": DeltaMixtureModel(cloud),
    }
    for name, model in models.items():
        worst = 0.0
        for _ in range(100):
            x = 3.0 * rng.standard_normal(d)
            sigma = float(rng.uniform(0.05, 20.0))
            lhs = model.denoise(x, sigma)
            rhs = x + sigma**2 * model.score(x, sigma)
            scale = max(np.linalg.norm(lhs), 1e-12)
            worst = max(worst, float(np.linalg.norm(lhs - rhs) / scale))
        check(6, f"denoiser duality D = x + sigma^2 s for {name}", worst < 1e-10,
              f"worst relative {worst:.2e}")


def test_criterion_07_perturbation_theorem():
    rng = np.random.default_rng(707)
    spec = random_spectrum(rng, 16, 3, lam_range=(0.3, 3.0))
    model = GaussianModel(spec)
    sigma_T, sigma_p, sigma_end = 20.0, 2.0, 1e-6
    x_T = rng.standard_normal(16) * 2
    ctx = SolutionContext.create(spec, x_T, sigma_T)
    x_p = solve_state(ctx, sigma_p)
    base = rk4_sample(model, sigma_p, sigma_end, 2000, x_p).endpoint

    worst_on = 0.0
    for k in range(spec.rank):
        delta = 0.05 * spec.basis[:, k]
        pert = rk4_sample(model, sigma_p, sigma_end, 2000, x_p + delta).endpoint
        predicted = perturbation_shift(spec, delta, 1.0, sigma_p)
        worst_on = max(worst_on, float(np.linalg.norm((pert - base) - predicted)))
    check(7, "on-manifold perturbation shift matches the gain formula within 1e-4",
          worst_on < 1e-4, f"worst {worst_on:.2e}")

    v = rng.standard_normal(16)
    v -= spec.basis @ (spec.basis.T @ v)
    delta = 0.05 * v / np.linalg.norm(v)
    pert = rk4_sample(model, sigma_p, sigma_end, 2000, x_p + delta).endpoint
    off_shift = float(np.linalg.norm(pert - base))
    check(7, "off-manifold perturbation shift below 1e-6", off_shift < 1e-6,
          f"shift {off_shift:.2e}")


def test_criterion_08_rotation_bound():
    rng = np.random.default_rng(808)
    schedule = VpSchedule(0.1, 20.0)
    ts = np.linspace(1.0, 0.0, 257)
    aT, sT = float(schedule.alpha(1.0)), float(schedule.sigma(1.0))

    u, _ = np.linalg.qr(rng.standard_normal((256, 4)))
    lam = np.sort(rng.uniform(0.2, 4.0, 4))[::-1]
    spec = CompactSpectrum(np.zeros(256), u, lam)
    x_T = rng.standard_normal(256)
    ctx = SolutionContext.create(spec, x_T, sT, alpha_T=aT)
    states = np.asarray([solve_state_vp(ctx, schedule, t) for t in ts])
    sigma = np.asarray(schedule.sigma(ts))
    traj = Trajectory(ts, sigma, np.asarray(schedule.alpha(ts)), states)
    dec = rotation_decompose(traj, endpoint(ctx), x_T, coeffs=ctx.coeffs)
    bound = ROTATION_BOUND_COEFF * float(np.sum(ctx.coeffs**2))
    worst = float(np.max(dec.residual_norm**2))
    check(8, "squared plane residual below 4(1 - sqrt2/2)^2 sum c_k^2 (r=4, D=256)",
          worst <= bound, f"max residual^2 {worst:.3e} vs bound {bound:.3e}")

    mean = np.full(256, 0.5)
    spec0 = CompactSpectrum(mean, np.zeros((256, 0)), np.zeros(0))
    ctx0 = SolutionContext.create(spec0, x_T, sT, alpha_T=aT)
    states0 = np.asarray([solve_state_vp(ctx0, schedule, t) for t in ts])
    traj0 = Trajectory(ts, sigma, np.asarray(schedule.alpha(ts)), states0)
    dec0 = rotation_decompose(traj0, endpoint(ctx0), x_T)
    worst0 = float(np.max(dec0.residual_norm))
    check(8, "rank-0 trajectory stays exactly in the (x_0, x_T) plane",
          worst0 < 1e-10, f"max residual {worst0:.2e}")


def test_criterion_09_bimodal_curve():
    e_1d = bimodal_error_curve(4.0, 0.05, 1, [4.0])[0]
    check(9, "bimodal deviation exceeds 1 near sigma = m for D=1, q << m",
          e_1d > 1.0, f"E(sigma=m)={e_1d:.3f}")

    vals = [bimodal_error_curve(4.0, 0.1, d, [2.0])[0] for d in (1, 16, 256)]
    check(9, "bimodal deviation decreases with ambient dimension",
          vals[0] > vals[1] > vals[2],
          "E = " + ", ".join(f"{v:.3e}" for v in vals))

    sigmas = [0.5, 1.0, 2.0, 4.0, 8.0]
    a = bimodal_error_curve(4.0, 0.1, 16, sigmas, n_quad=200)
    b = bimodal_error_curve(4.0, 0.1, 16, sigmas, n_quad=400)
    rel = float(np.max(np.abs(a - b) / np.abs(b)))
    check(9, "quadrature self-convergence below 1e-6 on node doubling",
          rel < 1e-6, f"max relative change {rel:.2e}")


def test_criterion_10_gmm_sweep_shape():
    cloud = anchored_five_cluster_cloud(500, 16, seed=9)
    ref = DeltaMixtureModel(cloud)

    table_k = rank_mode_sweep(cloud, [1, 2, 3, 4, 5], [None], [1.2], ref,
                              n_probe=512, seed=0)
    uv = [table_k.filter(k=k).rows[0]["mean_uv"] for k in (1, 2, 3, 4, 5)]
    check(10, "unexplained variance nonincreasing in K from 1 to 5",
          all(uv[i + 1] <= uv[i] for i in range(4)),
          "uv = " + ", ".join(f"{v:.4f}" for v in uv))

    sigmas = [0.3, 0.6, 1.2]
    table_r = rank_mode_sweep(cloud, [5], [1, 2, 4, 8, None], sigmas, ref,
                              n_probe=512, seed=0)
    ranks = [minimal_sufficient_rank(table_r, 5, s) for s in sigmas]
    numeric = [np.inf if r is None else r for r in ranks]
    check(10, "minimal sufficient rank (10% criterion) nonincreasing in sigma",
          all(numeric[i + 1] <= numeric[i] for i in range(len(sigmas) - 1)),
          f"ranks over sigma {sigmas}: {ranks}")


def test_criterion_11_critical_period_ordering():
    schedule = VpSchedule(0.1, 20.0)
    t = np.linspace(0.0, 1.0, 4001)
    times = critical_times(schedule, [0.04, 1.0, 25.0], t)
    # generation runs from t = T down to 0: larger critical t means earlier
    check(11, "critical periods strictly ordered, largest lambda earliest",
          times[2] > times[1] > times[0],
          "t_c = " + ", ".join(f"{v:.4f}" for v in times))
