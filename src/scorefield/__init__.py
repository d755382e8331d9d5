"""Analytical score models for diffusion sampling.

Closed-form score and denoiser fields for idealized data distributions
(isotropic, Gaussian, Gaussian mixture, delta mixture), the exact
probability-flow-ODE solution of the Gaussian model in both the EDM and
variance-preserving parameterizations, deterministic samplers including the
analytical-teleportation hybrid, and a score-comparison harness.
"""

from .analysis import (
    analytical_curves,
    bimodal_error_curve,
    critical_times,
    slice_field,
    trajectory_deviation,
    unexplained_variance,
)
from .errors import (
    DegeneratePlane,
    EmptyInput,
    GridMismatch,
    InvalidData,
    InvalidInput,
    InvalidK,
    InvalidNoise,
    InvalidSchedule,
    InvalidSkip,
    NumericalBlowup,
    ScoreFieldError,
    ShapeError,
    WrongVariant,
)
from .gmmfit import fit_gmm, rank_mode_sweep
from .models import (
    DeltaMixtureModel,
    GaussianComponent,
    GaussianModel,
    IsotropicModel,
    MixtureModel,
    ScoreModel,
    load_model,
    save_model,
)
from .samplers import (
    Trajectory,
    ddim_style_sample,
    heun_sample,
    rk4_sample,
    teleport_sample,
)
from .schedules import (
    EdmSchedule,
    NoiseGrid,
    NoiseSchedule,
    TableSchedule,
    VpSchedule,
    karras_grid,
)
from .solution import (
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
from .spectrum import (
    CompactSpectrum,
    PointCloud,
    compact_spectrum,
    estimate_moments,
    load_cloud,
    save_cloud,
    spectrum_from_cloud,
)
from .synthetic import gaussian_cloud, generate_cloud, gmm_cloud, two_cluster_cloud

__version__ = "0.1.0"
