"""Distances between discrete measures and point-mass approximation.

Exact and entropically regularized optimal transport, Sinkhorn divergences,
kernel discrepancies with their witness functions, and dithering of measures
into equal-weight point clouds.
"""

from .discrepancy import (
    DiscrepancyResult,
    discrepancy,
    fourier_coefficients,
    halftoning_energy,
    spectral_discrepancy,
    witness_eval,
)
from .dither import DitherConfig, DitherState, dither, gradient, objective
from .divergence import (
    DivergenceResult,
    SweepRecord,
    epsilon_sweep,
    s_infinity,
    sinkhorn_divergence,
    witness_from_limits,
    write_sweep_csv,
)
from .exact_ot import ExactOTResult, TransportPlan, dual_feasibility_check, exact_ot, wasserstein1_1d
from .kernels import (
    AbsDistance,
    CpdShifted,
    Gaussian,
    InverseMultiquadric,
    NegatedKernel,
    NegativeDistance,
    PowerDistance,
    ShiftedNegativeDistance,
    SmoothedNegativeDistance,
    SpectralKernel,
    WendlandPower,
    cost_from_spec,
    empirical_pd_check,
    kernel_from_spec,
)
from .measures import (
    BoundingBox,
    DiscreteMeasure,
    dirac,
    kl_divergence,
    load_measure,
    product_measure,
    sample_grid_density,
    save_measure,
    tv_norm,
    uniform,
    validate,
)
from .sinkhorn import (
    PotentialPair,
    SinkhornConfig,
    SinkhornSolution,
    ot_infinity,
    potential_lipschitz_check,
    softmin,
    solve,
)

__version__ = "0.1.0"
