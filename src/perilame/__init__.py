"""Boundary-integral solver for Robin traction problems of periodic plane elastostatics."""

from .cell import (
    BoundaryCurve,
    CircleShape,
    EllipseShape,
    PeriodicityCell,
    TrigShape,
    arclength,
    build_cell,
    discretize_curve,
    hole_area,
    nearest_image,
)
from .kernels import (
    LameEnv,
    fs_laplace,
    kelvin,
    kelvin_grad,
    traction,
    traction_kernel,
    traction_map,
)
from .lattice import (
    LatticeSumPlan,
    lattice_product,
    periodic_green,
    periodic_green_grad,
    plan_lattice_sum,
    regular_part,
    regular_part_grad,
)
from .nonlinear import (
    TractionModel,
    affine_model,
    saturating_model,
    solve_nonlinear_robin,
)
from .operators import (
    BoundaryMatrixField,
    BoundaryVectorField,
    DenseBoundaryOperator,
    assemble_single_layer,
    assemble_wstar,
    boundary_integral,
    eval_single_layer,
    eval_traction_offboundary,
)
from .robin import (
    DiscreteSystem,
    RobinData,
    SolutionRep,
    assemble_robin_system,
    constant_matrix_field,
    constant_vector_field,
    eval_solution,
    representation_roundtrip,
    solve_neumann_aux,
    solve_robin,
    validate_robin_data,
)
from .verify import (
    OracleReport,
    oracle_filtered_fourier,
    oracle_scalar_harmonic,
    pde_residual,
    run_property_suite,
    scalar_periodic_green,
)

__version__ = "0.1.0"
