"""Solvers and convergence studies for the two-scale coupled Darcy problem
under geometric perturbations of the interface.

The package exports what its commands and studies compute: the exact 1D
solve and its bound, the fitted and flattened 2D solves, the geometry of
the perturbation, and the study harness.  Helpers that only the tests read
(the 1D projections and gap solutions, the 1D flattened solve) live in
tests/oracles.py."""

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
    solve_exact_1d,
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
    solve_flattened,
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
    "load_config",
    "lower_bound_constant",
    "make_perturbation",
    "perturbation_from_table",
    "run_sequence",
    "solve_exact_1d",
    "solve_flattened",
    "strip_measures",
    "t_apply",
    "transfer",
    "validate_admissible",
    "vnorm_diff_2d",
    "xi_perturbation",
]

__version__ = "0.2.0"
