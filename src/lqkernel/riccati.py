"""Differential Riccati equation, its dual, feedback gains, and the adjoint.

The value Hessian J(., T) solves, backward from J(T) = J_T,

    -dJ/dt = A'J + JA - J B R^{-1} B' J + Q,

and its inverse M(., T) solves the dual equation, backward from J_T^{-1},

    dM/dt = A M + M A' - B R^{-1} B' + M Q M.

J is read off the linear Hamiltonian flow (Davison & Maki, IEEE TAC 1973):
with S = B R^{-1} B', the pair [X; Y]' = [[A, -S], [-Q, -A']] [X; Y] runs
backward through `rk4_affine_values` and J = Y X^{-1} at every node.  The
flow restarts from [I; J_k] after every block of intervals over which it
can grow by at most e^4, before the fastest modes swamp the columns of
[X; Y].  M is integrated directly with a negative step on the same grid (no
time reversal substitution), so J M = I compares two routes that share no
discretization.  Both are re-symmetrized at every node; the worst asymmetry
absorbed by that projection is reported as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationBlowupError, PositivityLostError
from .linalg import spd_inverse
from .model import LQProblem
from .ode import (DEFAULT_STEPS, DenseSolution, build_grid, rk4_affine,
                  rk4_affine_values, rk4_drive, schedule_stage_table)

# Bound on the log-growth of the Hamiltonian flow between restarts.  Within
# a block the columns of [X; Y] drift toward its fastest-growing modes, and X
# loses accuracy as fast as those modes outgrow the slow ones; a block spans
# as many intervals as keep sum h |H|_inf under this bound.  On A = [[a, 1],
# [0, 0]] over [0, 10] at 4000 steps, fixed blocks of 64 intervals put J off
# the direct Riccati flow by 1e-8 relative at a = 100 and turned a = 200 into
# a false loss of positivity; with this bound J stays within 8e-13 up to
# a = 400.
_REANCHOR_LOG_GROWTH = 4.0


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


def _riccati_tables(problem: LQProblem, steps: int):
    """The Riccati grid and its stage tables of A, A', S and Q."""
    grid = build_grid(problem.t0, problem.T, steps, problem.breakpoints())
    A_tab, S_tab = _control_weight_table(problem, grid)
    Q_tab = schedule_stage_table(problem.Q, grid)
    AT_tab = tuple(np.swapaxes(a, 1, 2) for a in A_tab)
    return grid, A_tab, AT_tab, S_tab, Q_tab


def _hamiltonian_table(A_tab, S_tab, Q_tab):
    """Stage tables of [[A, -S], [-Q, -A']], filled block by block: np.block
    also holds negated copies and row blocks, raising a section's peak memory."""
    n = A_tab[0].shape[1]
    H_tab = tuple(np.empty((A.shape[0], 2 * n, 2 * n)) for A in A_tab)
    for H, A, S, Q in zip(H_tab, A_tab, S_tab, Q_tab):
        H[:, :n, :n] = A
        np.negative(S, out=H[:, :n, n:])
        np.negative(Q, out=H[:, n:, :n])
        np.negative(np.swapaxes(A, 1, 2), out=H[:, n:, n:])
    return H_tab


class _SymmetrizeTracker:
    """Symmetrization Y <- (Y + Y')/2 of a matrix or a stack, recording the worst drift."""

    def __init__(self):
        self.max_asymmetry = 0.0

    def symmetrize(self, Y):
        YT = np.swapaxes(Y, -1, -2)
        defect = float(np.max(np.abs(Y - YT)))
        if defect > self.max_asymmetry:
            self.max_asymmetry = defect
        return 0.5 * (Y + YT)

    def __call__(self, t, Y):
        """The `post_step` hook of `rk4_drive`."""
        return self.symmetrize(Y)


def _check_positive(sol: DenseSolution, what: str) -> None:
    eigs = np.linalg.eigvalsh(0.5 * (sol.values + np.swapaxes(sol.values, 1, 2)))
    bad = np.nonzero(eigs[:, 0] <= 0.0)[0]
    if bad.size:
        # backward integration meets the largest offending time first
        t_bad = float(sol.times[bad[-1]])
        raise PositivityLostError(
            f"{what} lost positive definiteness at t={t_bad} "
            f"(min eigenvalue {eigs[bad[-1], 0]:.3e})", time=t_bad)


def _blowup(t) -> IntegrationBlowupError:
    return IntegrationBlowupError(f"integration blew up at t={t}", time=float(t))


def _hessian_from_flow(times: np.ndarray, Z: np.ndarray, n: int) -> np.ndarray:
    """J = Y X^{-1} at each node of a backward flow Z = [X; Y]; raises at
    the latest node where X is singular or J is non-finite."""
    XT, YT = np.swapaxes(Z[:, :n], 1, 2), np.swapaxes(Z[:, n:], 1, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            J = np.swapaxes(np.linalg.solve(XT, YT), 1, 2)
        except np.linalg.LinAlgError:
            for k in range(times.size - 1, -1, -1):
                try:
                    np.linalg.solve(XT[k], YT[k])
                except np.linalg.LinAlgError:
                    raise _blowup(times[k]) from None
            raise
    bad = np.flatnonzero(~np.isfinite(J).reshape(J.shape[0], -1).all(axis=1))
    if bad.size:
        raise _blowup(times[bad[-1]])
    return J


def solve_riccati(problem: LQProblem, steps: int = DEFAULT_STEPS,
                  _track=None) -> DenseSolution:
    """Solve the Riccati equation backward from J(T) = J_T on [t0, T].

    J = Y X^{-1} on the Hamiltonian flow, restarted from [I; J_k] after
    every block of intervals that `_REANCHOR_LOG_GROWTH` allows; node
    derivatives are the Riccati right-hand side at the nodes.  Raises
    IntegrationBlowupError at the first node met where X is singular or J
    non-finite, PositivityLostError where J is not positive definite.
    """
    grid, A_tab, AT_tab, S_tab, Q_tab = _riccati_tables(problem, steps)
    H_tab = _hamiltonian_table(A_tab, S_tab, Q_tab)
    tracker = _track if _track is not None else _SymmetrizeTracker()
    n = problem.state_dim
    eye = np.eye(n)
    J = np.empty((grid.size, n, n))
    J[-1] = problem.J_T
    n_int = grid.size - 1
    rate = float(np.max(np.diff(grid) * np.abs(H_tab[1]).sum(axis=2).max(axis=1)))
    block = n_int if rate * n_int <= _REANCHOR_LOG_GROWTH else max(
        1, int(_REANCHOR_LOG_GROWTH / rate))
    for k0 in reversed(range(0, n_int, block)):
        k1 = min(k0 + block, n_int)
        Z = rk4_affine_values(grid[k0:k1 + 1], tuple(H[k0:k1] for H in H_tab),
                              np.vstack([eye, J[k1]]), backward=True)
        J[k0:k1] = tracker.symmetrize(_hessian_from_flow(grid[k0:k1], Z[:-1], n))

    def rhs(slot, Jv):
        return (Jv @ S_tab[slot] @ Jv - AT_tab[slot] @ Jv - Jv @ A_tab[slot]
                - Q_tab[slot])

    sol = DenseSolution(grid, J[:-1], J[1:], rhs(0, J[:-1]), rhs(2, J[1:]))
    _check_positive(sol, "J")
    return sol


def solve_dual_riccati(problem: LQProblem, steps: int = DEFAULT_STEPS,
                       _track=None) -> DenseSolution:
    """Solve the dual Riccati equation backward from M(T) = J_T^{-1}."""
    grid, A_tab, AT_tab, S_tab, Q_tab = _riccati_tables(problem, steps)

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
    """Solve both Riccati equations on the same grid, J and M by separate routes."""
    trJ, trM = _SymmetrizeTracker(), _SymmetrizeTracker()
    J = solve_riccati(problem, steps, _track=trJ)
    M = solve_dual_riccati(problem, steps, _track=trM)
    return RiccatiSolution(J, M, steps, trJ.max_asymmetry, trM.max_asymmetry)


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


def solve_adjoint(problem: LQProblem, xbar: DenseSolution,
                  steps: int = DEFAULT_STEPS) -> DenseSolution:
    """Integrate the adjoint p' = -A' p + Q xbar backward from -J_T xbar(T)."""
    grid = build_grid(problem.t0, problem.T, steps, problem.breakpoints())
    H_tab = tuple(-np.swapaxes(a, 1, 2) for a in schedule_stage_table(problem.A, grid))
    Q_tab = schedule_stage_table(problem.Q, grid)
    x_tab = schedule_stage_table(xbar, grid)
    F_tab = tuple(np.einsum("kij,kj->ki", Q, x) for Q, x in zip(Q_tab, x_tab))
    p_T = -np.asarray(problem.J_T) @ xbar.eval(problem.T)
    return rk4_affine(grid, H_tab, p_T, F_tab, backward=True)
