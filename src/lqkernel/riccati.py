"""Differential Riccati equation, its dual, feedback gains, and the adjoint.

The value Hessian J(., T) solves, backward from J(T) = J_T,

    -dJ/dt = A'J + JA - J B R^{-1} B' J + Q,

and its inverse M(., T) solves the dual equation, backward from J_T^{-1},

    dM/dt = A M + M A' - B R^{-1} B' + M Q M.

Both are integrated directly with a negative step on the same grid (no time
reversal substitution) and re-symmetrized after every step; the worst
asymmetry absorbed by that projection is reported as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PositivityLostError
from .linalg import spd_inverse
from .model import LQProblem
from .ode import (DEFAULT_STEPS, DenseSolution, build_grid, rk4_affine,
                  rk4_drive, schedule_stage_table)


def _control_weight_table(problem: LQProblem, grid: np.ndarray):
    """Stage tables of A(t) and S(t) = B(t) R(t)^{-1} B(t)' over `grid`."""
    A_tab = schedule_stage_table(problem.A, grid)
    B_tab = schedule_stage_table(problem.B, grid)
    R_tab = schedule_stage_table(problem.R, grid)
    S_tab = tuple(
        Bs @ np.linalg.inv(Rs) @ np.swapaxes(Bs, 1, 2)
        for Bs, Rs in zip(B_tab, R_tab)
    )
    return A_tab, S_tab


class _SymmetrizeTracker:
    """Per-step symmetrization J <- (J + J')/2, recording the worst drift."""

    def __init__(self):
        self.max_asymmetry = 0.0

    def __call__(self, t, Y):
        defect = float(np.max(np.abs(Y - Y.T)))
        if defect > self.max_asymmetry:
            self.max_asymmetry = defect
        return 0.5 * (Y + Y.T)


def _check_positive(sol: DenseSolution, what: str) -> None:
    eigs = np.linalg.eigvalsh(0.5 * (sol.values + np.swapaxes(sol.values, 1, 2)))
    bad = np.nonzero(eigs[:, 0] <= 0.0)[0]
    if bad.size:
        # backward integration meets the largest offending time first
        t_bad = float(sol.times[bad[-1]])
        raise PositivityLostError(
            f"{what} lost positive definiteness at t={t_bad} "
            f"(min eigenvalue {eigs[bad[-1], 0]:.3e})", time=t_bad)


def solve_riccati(problem: LQProblem, steps: int = DEFAULT_STEPS,
                  _track=None) -> DenseSolution:
    """Solve the Riccati equation backward from J(T) = J_T on [t0, T]."""
    grid = build_grid(problem.t0, problem.T, steps, problem.breakpoints())
    A_tab, S_tab = _control_weight_table(problem, grid)
    Q_tab = schedule_stage_table(problem.Q, grid)
    AT_tab = tuple(np.swapaxes(a, 1, 2) for a in A_tab)

    def stagefn(k, slot, t, J):
        A, AT = A_tab[slot][k], AT_tab[slot][k]
        return J @ (S_tab[slot][k] @ J) - AT @ J - J @ A - Q_tab[slot][k]

    tracker = _track if _track is not None else _SymmetrizeTracker()
    sol = rk4_drive(stagefn, grid, np.asarray(problem.J_T, dtype=float),
                    backward=True, post_step=tracker)
    _check_positive(sol, "J")
    return sol


def solve_dual_riccati(problem: LQProblem, steps: int = DEFAULT_STEPS,
                       _track=None) -> DenseSolution:
    """Solve the dual Riccati equation backward from M(T) = J_T^{-1}."""
    grid = build_grid(problem.t0, problem.T, steps, problem.breakpoints())
    A_tab, S_tab = _control_weight_table(problem, grid)
    Q_tab = schedule_stage_table(problem.Q, grid)
    AT_tab = tuple(np.swapaxes(a, 1, 2) for a in A_tab)

    def stagefn(k, slot, t, M):
        A, AT = A_tab[slot][k], AT_tab[slot][k]
        return A @ M + M @ AT - S_tab[slot][k] + M @ (Q_tab[slot][k] @ M)

    tracker = _track if _track is not None else _SymmetrizeTracker()
    sol = rk4_drive(stagefn, grid, spd_inverse(problem.J_T),
                    backward=True, post_step=tracker)
    _check_positive(sol, "M")
    return sol


@dataclass(frozen=True)
class RiccatiSolution:
    """J(., T) and M(., T) on a shared grid, with symmetrization diagnostics."""

    J: DenseSolution
    M: DenseSolution
    steps: int
    max_asymmetry_J: float
    max_asymmetry_M: float

    def duality_defects(self) -> np.ndarray:
        """Frobenius norm of J(t)M(t) - I at every grid node."""
        eye = np.eye(self.J.value_shape[0])
        prod = self.J.values @ self.M.values
        return np.linalg.norm(prod - eye, axis=(1, 2))


def riccati_pair(problem: LQProblem, steps: int = DEFAULT_STEPS) -> RiccatiSolution:
    """Solve both Riccati equations on the same grid."""
    trJ, trM = _SymmetrizeTracker(), _SymmetrizeTracker()
    J = solve_riccati(problem, steps, _track=trJ)
    M = solve_dual_riccati(problem, steps, _track=trM)
    return RiccatiSolution(J, M, steps, trJ.max_asymmetry, trM.max_asymmetry)


def feedback_gain(problem: LQProblem, J_at_t: np.ndarray, t: float) -> np.ndarray:
    """Closed-loop gain G(t) = -R(t)^{-1} B(t)' J at one time."""
    R = problem.R.eval(t)
    B = problem.B.eval(t)
    return -spd_inverse(R) @ B.T @ np.asarray(J_at_t, dtype=float)


def gain_many(problem: LQProblem, J_sol: DenseSolution, ts, sides=1) -> np.ndarray:
    """Batched feedback gains G(t) = -R^{-1} B' J(t) along `ts`."""
    ts = np.asarray(ts, dtype=float)
    R = problem.R.eval_many(ts, sides)
    B = problem.B.eval_many(ts, sides)
    J = J_sol.eval_many(ts, sides)
    return -np.linalg.inv(R) @ np.swapaxes(B, 1, 2) @ J


def closed_loop_propagator(problem: LQProblem, J_sol: DenseSolution,
                           grid: np.ndarray) -> DenseSolution:
    """Propagator of the optimal closed loop x' = (A + B G) x, anchored at t0."""
    lo_t, hi_t = grid[:-1], grid[1:]
    mid_t = 0.5 * (lo_t + hi_t)
    A_tab = schedule_stage_table(problem.A, grid)
    B_tab = schedule_stage_table(problem.B, grid)
    tabs = []
    for ts, sides, A_s, B_s in (
        (lo_t, 1, A_tab[0], B_tab[0]),
        (mid_t, 1, A_tab[1], B_tab[1]),
        (hi_t, -1, A_tab[2], B_tab[2]),
    ):
        tabs.append(A_s + B_s @ gain_many(problem, J_sol, ts, sides))
    return rk4_affine(grid, tabs, np.eye(problem.state_dim))


def riccati_value(J_sol: DenseSolution, t0: float, x0: np.ndarray) -> float:
    """Optimal cost-to-go x0' J(t0) x0."""
    x0 = np.asarray(x0, dtype=float)
    return float(x0 @ J_sol.eval(t0) @ x0)


def solve_adjoint(problem: LQProblem, xbar: DenseSolution,
                  steps: int = DEFAULT_STEPS) -> DenseSolution:
    """Integrate the adjoint p' = -A' p + Q xbar backward from -J_T xbar(T)."""
    grid = build_grid(problem.t0, problem.T, steps, problem.breakpoints())
    H_tab = tuple(-np.swapaxes(a, 1, 2) for a in schedule_stage_table(problem.A, grid))
    Q_tab = schedule_stage_table(problem.Q, grid)
    lo_t, hi_t = grid[:-1], grid[1:]
    mid_t = 0.5 * (lo_t + hi_t)
    x_tab = (xbar.eval_many(lo_t, 1), xbar.eval_many(mid_t, 1), xbar.eval_many(hi_t, -1))
    F_tab = tuple(np.einsum("kij,kj->ki", Q, x) for Q, x in zip(Q_tab, x_tab))
    p_T = -np.asarray(problem.J_T) @ xbar.eval(problem.T)
    return rk4_affine(grid, H_tab, p_T, F_tab, backward=True)
