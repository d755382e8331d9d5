"""Perturbation response and the 2D-rotation picture of trajectories.

Two more consequences of the closed form: (1) a nudge injected mid-sampling
shifts the final sample only through its on-manifold components, each
amplified by sqrt(lam/(sigma^2 + lam alpha^2)); (2) under a variance-
preserving schedule the state approximately rotates inside the plane spanned
by the endpoint and the initial noise, with a bounded on-manifold correction.
"""

import numpy as np

from scorefield import (
    GaussianModel,
    SolutionContext,
    VpSchedule,
    endpoint,
    perturbation_shift,
    rk4_sample,
    rotation_decompose,
    solve_state,
    solve_state_vp,
)
from scorefield.samplers import Trajectory
from scorefield.spectrum import CompactSpectrum

rng = np.random.default_rng(3)

# --- perturbation response, EDM parameterization -------------------------
d, r = 24, 3
u, _ = np.linalg.qr(rng.standard_normal((d, r)))
lam = np.array([4.0, 1.0, 0.25])
spec = CompactSpectrum(np.zeros(d), u, lam)
model = GaussianModel(spec)

sigma_T, sigma_p = 40.0, 2.0
x_T = rng.standard_normal(d)
ctx = SolutionContext.create(spec, x_T, sigma_T)
x_p = solve_state(ctx, sigma_p)
base = rk4_sample(model, sigma_p, 1e-6, 1500, x_p).endpoint

print(f"perturbing at sigma' = {sigma_p} (alpha = 1):")
for k in range(r):
    delta = 0.1 * spec.basis[:, k]
    pert = rk4_sample(model, sigma_p, 1e-6, 1500, x_p + delta).endpoint
    measured = np.linalg.norm(pert - base)
    predicted = np.linalg.norm(perturbation_shift(spec, delta, 1.0, sigma_p))
    print(f"  along u_{k} (lam={lam[k]:.2f}): measured shift {measured:.5f}, "
          f"predicted {predicted:.5f}")
off = rng.standard_normal(d)
off -= spec.basis @ (spec.basis.T @ off)
pert = rk4_sample(model, sigma_p, 1e-6, 1500, x_p + 0.1 * off / np.linalg.norm(off)).endpoint
print(f"  off-manifold nudge: measured shift {np.linalg.norm(pert - base):.2e} (denoised away)")

# --- rotation picture, VP parameterization --------------------------------
schedule = VpSchedule(0.1, 20.0)
d = 256
u, _ = np.linalg.qr(rng.standard_normal((d, 4)))
spec = CompactSpectrum(np.zeros(d), u, np.array([3.0, 1.5, 0.7, 0.3]))
x_T = rng.standard_normal(d)
aT, sT = float(schedule.alpha(1.0)), float(schedule.sigma(1.0))
ctx = SolutionContext.create(spec, x_T, sT, alpha_T=aT)

ts = np.linspace(1.0, 0.0, 101)
states = np.asarray([solve_state_vp(ctx, schedule, t) for t in ts])
traj = Trajectory(ts, np.asarray(schedule.sigma(ts)), np.asarray(schedule.alpha(ts)), states)
dec = rotation_decompose(traj, endpoint(ctx), x_T, coeffs=ctx.coeffs)

print("\ntrajectory decomposed on span(x_0, x_T): x_t = a x_0 + b x_T + residual")
print(f"{'t':>6} {'a':>8} {'b':>8} {'alpha_t':>9} {'sqrt(1-a^2)':>12} {'residual':>9}")
for tv in (1.0, 0.8, 0.6, 0.4, 0.2, 0.0):
    i = int(np.argmin(np.abs(ts - tv)))
    print(f"{tv:6.2f} {dec.a[i]:8.4f} {dec.b[i]:8.4f} {dec.a_pred[i]:9.4f} "
          f"{dec.b_pred[i]:12.4f} {dec.residual_norm[i]:9.4f}")
print(f"max residual^2 = {np.max(dec.residual_norm**2):.4f}, "
      f"a-priori bound = {dec.residual_bound_sq:.4f}")
