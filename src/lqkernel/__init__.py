"""Finite-horizon time-varying LQ optimal control and its reproducing kernel.

The package solves LQ problems two independent ways (Riccati feedback and
the kernel representer route), evaluates the matrix-valued kernel of the
controlled-trajectory space, and certifies numerically that the kernel
diagonal is the inverse of the Riccati solution.
"""

from .errors import (BvpDegenerateError, DegenerateProblemError, DomainError,
                     HorizonMismatchError, InfeasibleInterpolationError,
                     IntegrationBlowupError, LQKernelError, NumericalError,
                     PositivityLostError, ProblemFileError, ScheduleDomainError,
                     SingularMatrixError)
from .kernel import KernelOperator, lq_inner_product, reproducing_residual
from .linalg import spd_inverse, sym_eig_pinv
from .model import (ControlledTrajectory, LQProblem, MatrixSchedule,
                    ValidationReport, dynamics_defect, validate_problem)
from .ode import DEFAULT_STEPS, DenseSolution, build_grid
from .oracle import discrete_value, richardson_value
from .problems import (double_integrator_problem, random_problem,
                       random_trajectory, rollout, unit_scalar_problem)
from .riccati import solve_adjoint
from .solver import (LQSolveResult, evaluate_cost, solve_feedback,
                     solve_kernel, solve_multipoint)

__all__ = [
    "BvpDegenerateError", "DegenerateProblemError", "DomainError",
    "HorizonMismatchError", "InfeasibleInterpolationError",
    "IntegrationBlowupError", "LQKernelError", "NumericalError",
    "PositivityLostError", "ProblemFileError", "ScheduleDomainError",
    "SingularMatrixError",
    "KernelOperator", "lq_inner_product", "reproducing_residual",
    "spd_inverse", "sym_eig_pinv",
    "ControlledTrajectory", "LQProblem", "MatrixSchedule", "ValidationReport",
    "dynamics_defect", "validate_problem",
    "DEFAULT_STEPS", "DenseSolution", "build_grid",
    "discrete_value", "richardson_value",
    "double_integrator_problem", "random_problem", "random_trajectory",
    "rollout", "unit_scalar_problem",
    "solve_adjoint",
    "LQSolveResult", "evaluate_cost", "solve_feedback", "solve_kernel",
    "solve_multipoint",
]
__version__ = "0.1.0"
