"""Optimal control of weakly singular Volterra integral equations.

Forward state marching, costate solves, Hamiltonian-based first and
second-order necessary-condition tests, and finite-difference oracles
that validate each identity independently.
"""

from .adjoint import InstantSnap, adjoint_residual, solve_adjoint
from .errors import (AdjointStepError, KernelAssemblyError, NumericsError, SeriesError,
                     StateBlowupError)
from .expr import ExpressionError, NonSmoothWarning, ScalarExpr, differentiate, parse_expression
from .oracle import (ConvergenceReport, ExpansionReport, VariationalReport,
                     convergence_study, fd_expansion_check, linear_analytic_solution,
                     project_control, variational_fd_check)
from .optimality import (HamiltonianFields, MKernel, SecondOrderReport, SingularVerdict,
                         assemble_m_kernel, detect_singular, hamiltonian_fields,
                         second_order_test)
from .problem import (BUILTIN_SIGNATURES, DerivativeBundle, InstantCost, ProblemSpec,
                      ProblemValidationError, builtin_problem, load_problem_file,
                      problem_to_dict)
from .quadrature import Grid, make_grid, midpoint_weights, singular_weights, trapezoid
from .resolvent import RegularizedKernel, build_q_kernel
from .state import (CostBreakdown, Trajectory, evaluate_cost, solve_state,
                    solve_y1, solve_y2)

__version__ = "0.1.0"

__all__ = [
    "AdjointStepError", "BUILTIN_SIGNATURES", "ConvergenceReport",
    "CostBreakdown", "DerivativeBundle", "ExpansionReport", "ExpressionError", "Grid",
    "HamiltonianFields", "InstantCost", "InstantSnap", "KernelAssemblyError", "MKernel",
    "NonSmoothWarning", "NumericsError", "ProblemSpec", "ProblemValidationError",
    "RegularizedKernel", "ScalarExpr", "SecondOrderReport", "SeriesError", "SingularVerdict",
    "StateBlowupError", "Trajectory", "VariationalReport", "adjoint_residual",
    "assemble_m_kernel", "build_q_kernel", "builtin_problem", "convergence_study",
    "detect_singular", "differentiate", "evaluate_cost", "fd_expansion_check",
    "hamiltonian_fields", "linear_analytic_solution", "load_problem_file", "make_grid",
    "midpoint_weights", "parse_expression", "problem_to_dict", "project_control",
    "second_order_test", "singular_weights", "solve_adjoint", "solve_state", "solve_y1",
    "solve_y2", "trapezoid", "variational_fd_check",
]
