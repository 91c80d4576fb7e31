"""Half-eigenvalues, Fucik curves, and bifurcation branches of the
(p,2)-Laplacian Dirichlet problem on an interval.

The discrete model is a uniform P1 finite element grid with lumped L2
pairing; see grid for the mesh calculus, spectrum and halfeig for the linear
and half-linear eigenproblems, quasilinear and monotone for the nonlinear
operator and its solvers, and continuation for branch tracing.
"""

from .continuation import (Branch, BranchPoint, BranchSeed, LSDecomposition,
                           LocalizationReport, Termination, cone_test,
                           decompose, localization_check, ls_residual,
                           newton_at_lambda, recompose, scaling_slope,
                           trace_branch)
from .grid import (Field, Grid, NormReport, apply_laplacian, dual_norm,
                   h10_norm, inner_l2, l2_norm, norms, read_field_csv,
                   write_field_csv)
from .halfeig import (FucikCurves, FucikPoint, SplitEigenPair,
                      fucik_curve_points, gamma_window, half_eigen_residual,
                      shoot_split_lambda, split_eigenvalues)
from .monotone import (SolveReport, SolverError, VectorInequalityReport,
                       ball_coercivity_bound, ball_coercivity_samples,
                       check_vector_inequalities, default_ball_radius,
                       monotonicity_sweep, solve_monotone, solve_monotone_ball)
from .quasilinear import (Jacobian, ProblemParams, TransformedField, energy,
                          from_infinity_variable, jacobian_original,
                          jacobian_transformed, residual_original,
                          residual_transformed, residual_weak,
                          to_infinity_variable, transform_coefficient)
from .spectrum import (EigenPair, closed_form_eigenvalue,
                       continuum_eigenvalue, eigenpair)

__version__ = "0.1.0"

__all__ = [
    "Branch", "BranchPoint", "BranchSeed", "EigenPair", "Field",
    "FucikCurves", "FucikPoint", "Grid", "Jacobian", "LSDecomposition",
    "LocalizationReport", "NormReport", "ProblemParams", "SolveReport",
    "SolverError", "SplitEigenPair", "Termination", "TransformedField",
    "VectorInequalityReport", "apply_laplacian", "ball_coercivity_bound",
    "ball_coercivity_samples", "check_vector_inequalities",
    "closed_form_eigenvalue", "cone_test", "continuum_eigenvalue", "decompose",
    "default_ball_radius", "dual_norm", "eigenpair", "energy",
    "from_infinity_variable", "fucik_curve_points", "gamma_window", "h10_norm",
    "half_eigen_residual", "inner_l2", "jacobian_original",
    "jacobian_transformed", "l2_norm", "localization_check", "ls_residual",
    "monotonicity_sweep", "newton_at_lambda", "norms",
    "read_field_csv", "recompose", "residual_original", "residual_transformed",
    "residual_weak", "scaling_slope", "shoot_split_lambda", "solve_monotone",
    "solve_monotone_ball", "split_eigenvalues", "to_infinity_variable",
    "trace_branch", "transform_coefficient", "write_field_csv",
]
