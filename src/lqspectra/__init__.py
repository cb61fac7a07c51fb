"""lqspectra: L^q-spectra of measures on the unit cube and what they control.

The package computes, at desk scale, the chain

    measure -> dyadic cube masses -> level spectra and fixed points
            -> adaptive partitions and partition entropy
            -> piecewise-polynomial width bounds
            -> 1D Krein-Feller eigenvalue decay,

with closed forms for self-similar measures as cross-checks throughout.

Counts (levels, budgets, depths) are Python or numpy integers, not bools or floats; reals
are finite; level lists strictly increase; a ValueError names a parameter that breaks this.
"""

from .measures import (
    Atomic,
    DyadicCube,
    DyadicDensity,
    DyadicIFS,
    DyadicMap,
    GeneralIFS1D,
    Homothety1D,
    InvalidMeasureError,
    Lebesgue,
    MeasureSpec,
    Mixture,
    binomial_ifs,
    cantor_measure,
    children,
    cube_mass,
    dirac,
    exp_decay_atoms,
    load_spec,
    parse_spec,
    save_spec,
    sierpinski_tetrahedron,
    spec_to_dict,
    support_cubes,
    support_masses,
    support_with_masses,
    unit_cube,
    validate,
)
from .spectrum import (
    FixedPoint,
    OrderBound,
    OrderParams,
    SpectrumCurve,
    beta_n,
    order_bound,
    s_b_estimate,
    s_nb,
    selfsimilar_beta,
    selfsimilar_s_rho,
    spectrum_curve,
)
from .partition import (
    EntropyFit,
    MaxDepthExceeded,
    Partition,
    adaptive_partition,
    budget_partition,
    counting_N,
    entropy_estimate,
    gamma_adaptive_profile,
    gamma_dyadic_oracle,
    gamma_dyadic_vector,
    j_weight,
    minimal_dyadic_cardinality,
    partition_violations,
    refinement_profile,
)
from .polyapprox import (
    ErrorSample,
    FunctionHandle,
    PiecewisePoly,
    WidthBounds,
    error_Lq,
    error_from_sample,
    error_sample,
    kappa,
    moment_residuals,
    multi_indices,
    piecewise_project,
    polynomial_values,
    project_poly,
    projection_l2_error,
    sample_measure,
    width_upper_sequence,
)
from .kreinfeller import (
    AtomicApprox,
    EigenSystem,
    OrderFit,
    SplitCountReport,
    counting_function,
    discretize,
    order_fit,
    solve_eigen,
    split_counting_check,
    stiffness_tridiagonal,
    width_from_eigen,
)

__version__ = "0.1.0"
