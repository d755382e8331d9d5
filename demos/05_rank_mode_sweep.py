"""How many mixture modes, and what covariance rank, does a score field need?

Fits low-rank Gaussian mixtures of varying size to a 5-cluster cloud and
scores them against the cloud's exact delta-mixture field. Two trends emerge:
more modes help monotonically up to the true cluster count, and the rank
needed to stay within 10% of the full-rank residual shrinks as the noise
scale grows (small eigenvalues become invisible at high noise).
"""

from scorefield.gmmfit import minimal_sufficient_rank, rank_mode_sweep
from scorefield.models import DeltaMixtureModel
from scorefield.synthetic import anchored_five_cluster_cloud

cloud = anchored_five_cluster_cloud(n=500, d=16, seed=9)
reference = DeltaMixtureModel(cloud)

print("unexplained variance vs the exact score, full rank, sigma = 1.2:")
table = rank_mode_sweep(cloud, [1, 2, 3, 4, 5], [None], [1.2], reference,
                        n_probe=512, seed=0)
for k in (1, 2, 3, 4, 5):
    row = table.filter(k=k).rows[0]
    print(f"  K={k}: mean UV = {row['mean_uv']:.4f}  (q25 {row['q25']:.4f}, q75 {row['q75']:.4f})")

sigmas = [0.3, 0.6, 1.2]
ranks = [1, 2, 4, 8, None]
table = rank_mode_sweep(cloud, [5], ranks, sigmas, reference, n_probe=512, seed=0)

print("\nmean UV by covariance rank (K = 5):")
print(f"{'rank':>6}" + "".join(f"  sigma={s:<6g}" for s in sigmas))
for r in ranks:
    row = [table.filter(k=5, rank=r, sigma=s).rows[0]["mean_uv"] for s in sigmas]
    label = "full" if r is None else str(r)
    print(f"{label:>6}" + "".join(f"  {v:12.4e}" for v in row))

print("\nminimal rank within 10% of the full-rank residual:")
for s in sigmas:
    r = minimal_sufficient_rank(table, 5, s)
    print(f"  sigma={s}: rank {'full' if r is None else r}")
