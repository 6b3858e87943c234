"""Continuous simplicial networks on 2-complexes.

Hodge-Laplacian construction, closed-form exponential spectral filters,
trainable simplicial layers with learnable receptive fields, and evaluators
for the stability and over-smoothing energy bounds.
"""

__version__ = "0.1.0"

from .complexes import (
    ComplexError,
    HodgeOperators,
    PerturbedComplex,
    SimplicialComplex,
    boundary_matrix,
    build_complex,
    hodge_operators,
    hodge_operators_from_incidence,
    load_complex,
    perturb_incidence,
    random_points,
    save_complex,
)
from .delaunay import TriangulationError, delaunay_complex
from .spectral import (
    HodgeSpectrum,
    LevelSpectra,
    cosimo_filter,
    eig_sym,
    exp_filter,
    integrate_diffusion,
    matrix_exp_oracle,
    truncate,
)
from .nn import (
    Model,
    TrainConfig,
    train,
)
from .analysis import (
    BoundReport,
    dirichlet_energy,
    energy_trace,
    model_constants,
    oversmoothing_rhs_continuous,
    oversmoothing_rhs_discrete,
    permutation_equivariance_check,
    spectral_entropy_select,
    stability_bound,
)
from .experiments import (
    OversmoothConfig,
    StabilityConfig,
    TrajectoryConfig,
    generate_trajectories,
    run_oversmoothing,
    run_stability,
    run_trajectory,
)
