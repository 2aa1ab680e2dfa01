"""High-level LQ solves: kernel route, feedback route, and rendezvous points.

The kernel route encodes the whole optimal trajectory in one covector:
p0 = K(t0, t0)^(-) x0 and xbar(s) = K(s, t0) p0, with value p0' x0.  The
feedback route rolls the closed loop forward from x0.  The multipoint solve
pins the trajectory at several times and solves the block Gram system for
one covector per pinned time.  Every route reads its control off the
costate (`KernelOperator.control`), the multipoint solve section by section.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProblemError, InfeasibleInterpolationError
from .kernel import (DEFAULT_QUAD_INTERVALS, KernelOperator, kernel_trajectory,
                     lq_inner_product)
from .linalg import RANK_TOL, sym_eig_pinv
from .model import ControlledTrajectory, LQProblem
from .ode import DEFAULT_STEPS, _time_tol


@dataclass(frozen=True)
class LQSolveResult:
    """Outcome of one solve: covectors with their times, trajectory, value."""

    covectors: tuple[tuple[float, np.ndarray], ...]
    trajectory: ControlledTrajectory
    value: float
    method: str


def evaluate_cost(problem: LQProblem, traj: ControlledTrajectory,
                  quad_intervals: int = DEFAULT_QUAD_INTERVALS) -> float:
    """The LQ objective of a controlled trajectory (its squared kernel norm)."""
    return lq_inner_product(problem, traj, traj, quad_intervals)


def _operator_for(problem: LQProblem, steps: int, operator) -> KernelOperator:
    """`operator`, refused unless built on `problem` itself, or a new one."""
    if operator is None:
        return KernelOperator(problem, steps)
    if operator.problem is not problem:
        raise ValueError("operator was built for a different problem")
    return operator


def solve_kernel(problem: LQProblem, x0, steps: int = DEFAULT_STEPS,
                 operator: KernelOperator | None = None) -> LQSolveResult:
    """Optimal trajectory via the kernel representer: xbar = K(., t0) p0.
    `steps` is ignored when `operator` (built on `problem`) is given."""
    x0 = np.asarray(x0, dtype=float)
    op = _operator_for(problem, steps, operator)
    K00 = op.diagonal(problem.t0)
    p0 = sym_eig_pinv(K00) @ x0
    x = op.closed_loop_solution().right_multiply(K00).right_multiply(p0)
    start_err = np.linalg.norm(x.eval(problem.t0) - x0)
    if start_err > 1e-8 * (1.0 + np.linalg.norm(x0)):
        raise DegenerateProblemError(
            f"kernel diagonal numerically singular: reproduced initial state "
            f"off by {start_err:.3e}")
    u = op.control(problem.t0, x)
    value = float(p0 @ x0)
    return LQSolveResult(((problem.t0, p0),), ControlledTrajectory(x, u),
                         value, "kernel")


def solve_feedback(problem: LQProblem, x0, steps: int = DEFAULT_STEPS,
                   operator: KernelOperator | None = None) -> LQSolveResult:
    """Optimal trajectory by rolling out the closed loop x' = (A - S J) x.
    `steps` is ignored when `operator` (built on `problem`) is given."""
    x0 = np.asarray(x0, dtype=float)
    op = _operator_for(problem, steps, operator)
    J0 = op.J.eval(problem.t0)
    x = op.closed_loop_solution().right_multiply(x0)
    u = op.control(problem.t0, x)
    value = float(x0 @ J0 @ x0)
    return LQSolveResult(((problem.t0, J0 @ x0),), ControlledTrajectory(x, u),
                         value, "feedback")


def check_constraint_times(problem: LQProblem, times: np.ndarray) -> None:
    """Raise ValueError unless `times` is non-empty, strictly increasing and
    inside the horizon (up to roundoff at t0 and T)."""
    if times.size == 0:
        raise ValueError("need at least one constraint")
    if np.any(np.diff(times) <= 0):
        raise ValueError("constraint times must be sorted and distinct")
    tol = _time_tol(problem.t0, problem.T)
    if not (times[0] >= problem.t0 - tol and times[-1] <= problem.T + tol):
        raise ValueError("constraint times must lie in the horizon")


def solve_multipoint(problem: LQProblem, constraints, steps: int = DEFAULT_STEPS) -> LQSolveResult:
    """Minimal-norm trajectory through rendezvous points x(t_i) = c_i.

    Solves the block Gram system by least squares (`np.linalg.lstsq`, which
    is backward stable, with singular values below `RANK_TOL` of the largest
    dropped), so nearly coincident times degrade gracefully; constraints
    off the Gram range by more than 1e-6 relative raise.
    """
    times = np.asarray([t for t, _ in constraints], dtype=float)
    targets = [np.asarray(c, dtype=float) for _, c in constraints]
    check_constraint_times(problem, times)
    op = KernelOperator(problem, steps, extra_nodes=times)
    gram, _ = op.gram(times)
    n = problem.state_dim
    c = np.concatenate(targets)
    pvec = np.linalg.lstsq(gram, c, rcond=RANK_TOL)[0]
    resid = np.linalg.norm(gram @ pvec - c)
    if resid > 1e-6 * (1.0 + np.linalg.norm(c)):
        raise InfeasibleInterpolationError(
            f"constraints inconsistent with the Gram range (residual {resid:.3e})")
    covecs = tuple((float(t), pvec[i * n:(i + 1) * n]) for i, t in enumerate(times))
    # every section lies on op.grid, which holds all the pinned times
    traj = kernel_trajectory(op, covecs)
    for t, target in zip(times, targets):
        err = np.linalg.norm(traj.x.eval(float(t)) - target)
        if err > 1e-6 * (1.0 + np.linalg.norm(target)):
            raise InfeasibleInterpolationError(
                f"interpolation condition at t={t} violated by {err:.3e}")
    value = float(pvec @ c)
    return LQSolveResult(covecs, traj, value, "multipoint")
