"""High-level LQ solves: kernel route, feedback route, and rendezvous points.

The kernel route encodes the whole optimal trajectory in one covector:
p0 = K(t0, t0)^(-) x0 and xbar(s) = K(s, t0) p0, with value p0' x0.  The
feedback route rolls the closed loop forward with the Riccati gain.  The
multipoint solve pins the trajectory at several times and solves the block
Gram system for one covector per pinned time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProblemError, InfeasibleInterpolationError
from .kernel import (DEFAULT_QUAD_INTERVALS, KernelOperator, lq_inner_product,
                     minimal_control)
from .linalg import pinv_svd, sym_eig_pinv
from .model import ControlledTrajectory, LQProblem
from .ode import DEFAULT_STEPS, DenseSolution
from .riccati import gain_many


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


def solve_kernel(problem: LQProblem, x0, steps: int = DEFAULT_STEPS,
                 operator: KernelOperator | None = None) -> LQSolveResult:
    """Optimal trajectory via the kernel representer: xbar = K(., t0) p0."""
    x0 = np.asarray(x0, dtype=float)
    op = operator if operator is not None else KernelOperator(problem, steps)
    K00 = op.diagonal(problem.t0)
    p0 = sym_eig_pinv(K00, clip_tol=1e-10) @ x0
    x = op.column_solution().right_multiply(p0)
    start_err = np.linalg.norm(x.eval(problem.t0) - x0)
    if start_err > 1e-8 * (1.0 + np.linalg.norm(x0)):
        raise DegenerateProblemError(
            f"kernel diagonal numerically singular: reproduced initial state "
            f"off by {start_err:.3e}")
    u = minimal_control(problem, x)
    value = float(p0 @ x0)
    return LQSolveResult(((problem.t0, p0),), ControlledTrajectory(x, u),
                         value, "kernel")


def solve_feedback(problem: LQProblem, x0, steps: int = DEFAULT_STEPS,
                   operator: KernelOperator | None = None) -> LQSolveResult:
    """Optimal trajectory by rolling out x' = (A + B G) x with the Riccati gain."""
    x0 = np.asarray(x0, dtype=float)
    op = operator if operator is not None else KernelOperator(problem, steps)
    J = op.riccati.J
    x = op.closed_loop_solution().right_multiply(x0)
    lo, hi = x.times[:-1], x.times[1:]
    u_start = np.einsum("kij,kj->ki", gain_many(problem, J, lo, 1), x.v_start)
    u_end = np.einsum("kij,kj->ki", gain_many(problem, J, hi, -1), x.v_end)
    h = (hi - lo)[:, None]
    slope = (u_end - u_start) / h
    u = DenseSolution(x.times, u_start, u_end, slope, slope)
    value = float(x0 @ J.eval(problem.t0) @ x0)
    return LQSolveResult(((problem.t0, J.eval(problem.t0) @ x0),),
                         ControlledTrajectory(x, u), value, "feedback")


def check_constraint_times(problem: LQProblem, times: np.ndarray) -> None:
    """Raise ValueError unless `times` is non-empty, strictly increasing and
    inside the horizon (up to roundoff at t0 and T)."""
    if times.size == 0:
        raise ValueError("need at least one constraint")
    if np.any(np.diff(times) <= 0):
        raise ValueError("constraint times must be sorted and distinct")
    span = max(1.0, problem.T - problem.t0)
    if not (times[0] >= problem.t0 - 1e-12 * span and times[-1] <= problem.T + 1e-12 * span):
        raise ValueError("constraint times must lie in the horizon")


def solve_multipoint(problem: LQProblem, constraints, steps: int = DEFAULT_STEPS) -> LQSolveResult:
    """Minimal-norm trajectory through rendezvous points x(t_i) = c_i.

    Solves the block Gram system via SVD pseudoinverse, so nearly coincident
    times degrade gracefully; genuinely inconsistent constraints raise.
    """
    times = np.asarray([t for t, _ in constraints], dtype=float)
    targets = [np.asarray(c, dtype=float) for _, c in constraints]
    check_constraint_times(problem, times)
    op = KernelOperator(problem, steps, extra_nodes=times)
    gram, _ = op.gram(times)
    n = problem.state_dim
    c = np.concatenate(targets)
    pvec = pinv_svd(gram) @ c
    resid = np.linalg.norm(gram @ pvec - c)
    if resid > 1e-6 * (1.0 + np.linalg.norm(c)):
        raise InfeasibleInterpolationError(
            f"constraints inconsistent with the Gram range (residual {resid:.3e})")
    covecs = tuple((float(t), pvec[i * n:(i + 1) * n]) for i, t in enumerate(times))
    # every section lies on op.grid, which holds all the pinned times
    parts = [op.section(t).right_multiply(p) for t, p in covecs]
    x = DenseSolution(op.grid, *(sum(getattr(s, f) for s in parts)
                                 for f in ("v_start", "v_end", "d_start", "d_end")))
    for t, target in zip(times, targets):
        err = np.linalg.norm(x.eval(float(t)) - target)
        if err > 1e-6 * (1.0 + np.linalg.norm(target)):
            raise InfeasibleInterpolationError(
                f"interpolation condition at t={t} violated by {err:.3e}")
    u = minimal_control(problem, x)
    value = float(pvec @ c)
    return LQSolveResult(covecs, ControlledTrajectory(x, u), value, "multipoint")
