"""2D slices through high-dimensional score fields.

Three data points span a plane; evaluating each model's score on a grid in
that plane and projecting the vectors onto it gives a faithful picture of
how the fields differ near the data. At noise scales below the anchor
separations the delta field funnels into each anchor while the Gaussian
field keeps a single basin. Writes one CSV per model for external plotting.
"""

import os

import numpy as np

from scorefield import slice_field
from scorefield.models import DeltaMixtureModel, GaussianModel
from scorefield.spectrum import spectrum_from_cloud
from scorefield.synthetic import gmm_cloud

out_dir = os.environ.get("SLICE_OUT", "slice_output")
os.makedirs(out_dir, exist_ok=True)

cloud = gmm_cloud(n=300, d=12, k=3, seed=5, separation=6.0)
models = [GaussianModel(spectrum_from_cloud(cloud)), DeltaMixtureModel(cloud)]
names = ["gaussian", "delta"]

# anchors: one sample from each true mode
anchors = np.stack([cloud.data[cloud.labels == i][0] for i in range(3)])
sigma = 0.5

field = slice_field(models, anchors, sigma, grid_n=31)
print("plane origin (anchor centroid) norm:", np.round(np.linalg.norm(field.origin), 3))
print("anchor plane coordinates:")
for k, (u, v) in enumerate(field.anchor_uv):
    print(f"  anchor {k}: u={u:8.3f}  v={v:8.3f}")

for i, name in enumerate(names):
    path = os.path.join(out_dir, f"slice_{name}.csv")
    field.to_csv(path, model_index=i)
    norms = field.norm[i]
    print(f"{name:>9}: in-plane |s| median {np.median(norms):.3f}, "
          f"max {norms.max():.3f}  -> {path}")

# near each anchor the delta field points back at it
i_delta = names.index("delta")
u_axis, v_axis = field.u, field.v
for k, (au, av) in enumerate(field.anchor_uv):
    iu = int(np.argmin(np.abs(u_axis - au)))
    iv = int(np.argmin(np.abs(v_axis - av)))
    s = np.array([field.s_u[i_delta][iu, iv], field.s_v[i_delta][iu, iv]])
    to_anchor = np.array([au - u_axis[iu], av - v_axis[iv]])
    agree = np.dot(s, to_anchor)
    print(f"delta field at the node nearest anchor {k}: s.(anchor - x) = {agree:+.3f}")
