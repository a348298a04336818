"""Solvers and convergence studies for the two-scale coupled Darcy problem
under geometric perturbations of the interface."""

from .geometry import (
    AdmissibilityReport,
    ForcingSpec,
    Perturbation,
    lower_bound_constant,
    make_perturbation,
    perturbation_from_table,
    strip_measures,
    validate_admissible,
    xi_perturbation,
)
from .solver1d import (
    BoundRecord,
    PiecewiseField1D,
    estimate_rhs_1d,
    hperp_exact_original,
    hperp_exact_perturbed,
    project_H,
    project_Hperp,
    solve_exact_1d,
    vnorm_diff_1d,
)
from .fem2d import (
    Field2D,
    Mesh2D,
    SolverConvergenceError,
    assemble_solve,
    build_fitted_mesh,
    energy_split,
    vnorm_diff_2d,
)
from .flatten import (
    ainv_norm_bound,
    coercivity_constant,
    lambda_map,
    pullback_norm_bound,
    solve_flattened,
    solve_flattened_1d,
    t_apply,
    transfer,
)
from .study import (
    ConvergenceRecord,
    check_estimates,
    emit_report,
    run_sequence,
)
from .config import RunConfig, load_config

__all__ = [
    "AdmissibilityReport",
    "BoundRecord",
    "ConvergenceRecord",
    "Field2D",
    "ForcingSpec",
    "Mesh2D",
    "Perturbation",
    "PiecewiseField1D",
    "RunConfig",
    "SolverConvergenceError",
    "ainv_norm_bound",
    "assemble_solve",
    "build_fitted_mesh",
    "check_estimates",
    "coercivity_constant",
    "emit_report",
    "energy_split",
    "estimate_rhs_1d",
    "hperp_exact_original",
    "hperp_exact_perturbed",
    "lambda_map",
    "load_config",
    "lower_bound_constant",
    "make_perturbation",
    "perturbation_from_table",
    "project_H",
    "project_Hperp",
    "pullback_norm_bound",
    "run_sequence",
    "solve_exact_1d",
    "solve_flattened",
    "solve_flattened_1d",
    "strip_measures",
    "t_apply",
    "transfer",
    "validate_admissible",
    "vnorm_diff_1d",
    "vnorm_diff_2d",
    "xi_perturbation",
]

__version__ = "0.1.0"
