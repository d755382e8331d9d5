"""Per-eigenvalue dynamics under a variance-preserving schedule.

Along each principal axis the closed form factorizes into scalar gain
curves: psi_bar drives the state, xi_bar / sqrt(lambda) drives the denoiser
(endpoint estimate), its time derivative locates the "critical period" of
each feature, and the perturbation gain says how strongly a nudge at time t
registers in the final sample. High-variance features commit first.
"""

import numpy as np

from scorefield import VpSchedule, analytical_curves, critical_times
from scorefield.solution import perturbation_gain

schedule = VpSchedule(0.1, 20.0)
lambdas = [0.04, 1.0, 25.0]
t = np.linspace(0.0, 1.0, 2001)

table = analytical_curves(schedule, lambdas, t)

print("denoiser gain xi_bar/sqrt(lambda) (1 = committed, 0 = undecided):")
header = f"{'t':>6}" + "".join(f"  lam={lam:<6g}" for lam in lambdas)
print(header)
for tv in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
    i = int(np.argmin(np.abs(t - tv)))
    row = "".join(f"  {table.xi_norm[j][i]:10.4f}" for j in range(len(lambdas)))
    print(f"{tv:6.2f}{row}")

times = critical_times(schedule, lambdas, t)
print("\ncritical periods (argmax |d(xi_bar/sqrt(lam))/dt|):")
for lam, tc in zip(lambdas, times):
    a = float(schedule.alpha(tc))
    s = float(schedule.sigma(tc))
    print(f"  lambda={lam:<6g} t_c={tc:.4f}  sigma/alpha={s / a:.3f}  sqrt(lam)={np.sqrt(lam):.3f}")
print("generation runs from t = 1 to 0, so the largest variance commits first.")

print("\nperturbation gain sqrt(lam/(sigma^2 + lam alpha^2)) by injection time:")
print(f"{'t':>6}" + "".join(f"  lam={lam:<6g}" for lam in lambdas))
for tv in (0.1, 0.3, 0.5, 0.7, 0.9):
    a = float(schedule.alpha(tv))
    s = float(schedule.sigma(tv))
    row = "".join(f"  {float(perturbation_gain(lam, a, s)):10.4f}" for lam in lambdas)
    print(f"{tv:6.2f}{row}")
print("early nudges amplify high-variance axes; late nudges only move fine detail.")
