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
from .kernel import (KernelOperator, gram_matrix, kernel_column,
                     kernel_diagonal, kernel_full, lq_inner_product,
                     reproducing_residual)
from .linalg import SpdFactor, pinv_svd, spd_factor, spd_inverse, sym_eig_pinv, weighted_pinv_b
from .model import (ControlledTrajectory, LQProblem, MatrixSchedule,
                    ValidationReport, dynamics_defect, eval_schedule,
                    validate_problem)
from .ode import (DEFAULT_STEPS, DenseSolution, TransitionMatrix, build_grid,
                  combine_solutions, dense_eval, transition_matrix)
from .oracle import DiscreteLQ, discrete_trajectory, discrete_value, richardson_value
from .problems import (double_integrator_problem, random_problem,
                       random_trajectory, rollout, unit_scalar_problem)
from .riccati import (RiccatiSolution, feedback_gain, riccati_pair,
                      riccati_value, solve_adjoint, solve_dual_riccati,
                      solve_riccati)
from .solver import (LQSolveResult, evaluate_cost, recover_control,
                     solve_feedback, solve_kernel, solve_multipoint)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
