"""The matrix-valued reproducing kernel of the controlled-trajectory space.

The space of controlled trajectories of x' = A x + B u on [t0, T], equipped
with the cost inner product

    <x1, x2> = x1(T)' J_T x2(T) + int [x1' Q x2 + u1' R u2] dt,

is a vector-valued RKHS.  Its kernel K(s, t) is computed three ways, each
matched to its use:

* diagonal K(t, t): the dual Riccati solution M(t), which is the kernel
  diagonal of the problem restarted at t (this equality is the headline
  identity; the test suite certifies it against J(t)^{-1} and against the
  shooting BVP of the restarted problem, which shares no Riccati solve);
* first column K(., t0): closed-loop propagation of K(t0, t0), since
  K(., t0) p is the optimal trajectory from x0 = K(t0, t0) p;
* arbitrary K(., t): the optimal trajectory whose costate jumps at s = t:
  [K; -Pi] runs the Hamiltonian flow [[A, -S], [-Q, -A']] (S = B R^{-1} B')
  from [K(t0, t); 0], its -Pi rows jump by +I at s = t, and
  J_T K(T) + Pi(T) = 0; single shooting solves for the block K(t0, t).

The column time is a grid node; K keeps both one-sided derivatives there.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import (BvpDegenerateError, HorizonMismatchError,
                     SingularMatrixError)
from .linalg import RANK_TOL, spd_inverse
from .model import ControlledTrajectory, LQProblem
from .ode import (DEFAULT_STEPS, DenseSolution, build_grid, rk4_affine_values,
                  schedule_stage_table)
from .riccati import (_control_weight_table, _hamiltonian_table,
                      closed_loop_propagator, riccati_pair, solve_dual_riccati)

DEFAULT_QUAD_INTERVALS = 2000

_SHOOTING_RCOND = 1e-12


class KernelOperator:
    """Kernel evaluator for one problem: diagonal, columns, entries, Grams.

    Construction fixes the integration grid (`steps` uniform intervals plus
    schedule breakpoints and any `extra_nodes`).  Riccati solutions, the
    closed-loop propagator and per-column-time BVP solutions are computed
    lazily and cached; the operator is logically immutable and evaluations
    are pure.
    """

    def __init__(self, problem: LQProblem, steps: int = DEFAULT_STEPS,
                 extra_nodes=()):
        self.problem = problem
        self.steps = int(steps)
        self._snap = np.concatenate([problem.breakpoints(),
                                     np.asarray(extra_nodes, dtype=float)])
        self.grid = build_grid(problem.t0, problem.T, self.steps, self._snap)
        self._riccati = None
        self._closed_loop = None     # Phi_{A+BG}(., t0) on the grid
        self._sections: dict[float, DenseSolution] = {}

    # -- cached building blocks -------------------------------------------

    @property
    def riccati(self):
        if self._riccati is None:
            self._riccati = riccati_pair(self.problem, self.steps)
        return self._riccati

    def closed_loop_solution(self) -> DenseSolution:
        """Propagator of x' = (A + B G) x anchored at t0."""
        if self._closed_loop is None:
            self._closed_loop = closed_loop_propagator(
                self.problem, self.riccati.J, self.grid)
        return self._closed_loop

    # -- kernel values ------------------------------------------------------

    def diagonal(self, t_query: float) -> np.ndarray:
        """K(t, t) of the space restarted at t: the dual Riccati value M(t).

        Exactly J_T^{-1} at T.  Before the problem's start, where the
        schedules extend that far, the dual Riccati equation is solved again
        on [t, T]; after T the query is rejected.
        """
        p = self.problem
        tol = 1e-12 * max(1.0, p.T - p.t0)
        if t_query > p.T + tol:
            raise HorizonMismatchError(f"query time {t_query} exceeds T={p.T}")
        if abs(t_query - p.T) <= tol:
            return spd_inverse(p.J_T)
        if t_query >= p.t0 - tol:
            return self.riccati.M.eval(float(t_query))
        sub = dataclasses.replace(p, t0=float(t_query))
        return solve_dual_riccati(sub, self.steps).eval(float(t_query))

    def column_solution(self) -> DenseSolution:
        """K(., t0) = Phi_cl(., t0) K(t0, t0) as a dense matrix solution."""
        M0 = self.riccati.M.eval(self.problem.t0)
        return self.closed_loop_solution().right_multiply(M0)

    def section(self, t: float) -> DenseSolution:
        """Dense K(., t) for a fixed second argument, via the shooting BVP."""
        key = float(t)
        if key not in self._sections:
            self._sections[key] = self._solve_section(key)
        return self._sections[key]

    def entry(self, s: float, t: float) -> np.ndarray:
        """K(s, t) for arbitrary s, t in the horizon."""
        return self.section(t).eval(s)

    def gram(self, times) -> tuple[np.ndarray, float]:
        """Block Gram matrix at `times`, symmetrized; returns (matrix, defect).

        Block (i, j) is K(t_i, t_j); one BVP is solved per column time and all
        rows are read off its dense solution.  The reported defect is the
        worst entry moved by the final (G + G')/2 projection.
        """
        times = np.asarray(times, dtype=float)
        n = self.problem.state_dim
        k = times.size
        raw = np.zeros((k * n, k * n))
        for j, tj in enumerate(times):
            sec = self.section(float(tj))
            for i, ti in enumerate(times):
                raw[i * n:(i + 1) * n, j * n:(j + 1) * n] = sec.eval(float(ti))
        defect = float(np.max(np.abs(raw - raw.T)))
        return 0.5 * (raw + raw.T), defect

    # -- the boundary value problem ----------------------------------------

    def _solve_section(self, t: float) -> DenseSolution:
        p = self.problem
        n = p.state_dim
        span = max(1.0, p.T - p.t0)
        if not (p.t0 - 1e-12 * span <= t <= p.T + 1e-12 * span):
            raise HorizonMismatchError(f"column time {t} outside [{p.t0}, {p.T}]")

        grid = build_grid(p.t0, p.T, self.steps,
                          np.concatenate([self._snap, [t]]))
        A_tab, S_tab = _control_weight_table(p, grid)
        H_tab = _hamiltonian_table(A_tab, S_tab, schedule_stage_table(p.Q, grid))

        # V = [K; -Pi] solves V' = H V from [X; 0], its -Pi rows jump by +I at
        # the node j of t, and J_T K(T) + Pi(T) = 0.  V = W [X; I] with the
        # carrier W = [I; 0] swept up to t, then widened by [0; I] at t.
        j = int(np.argmin(np.abs(grid - t)))
        W = np.zeros((grid.size, 2 * n, 2 * n))
        W[:j + 1, :, :n] = rk4_affine_values(
            grid[:j + 1], tuple(H[:j] for H in H_tab), np.eye(2 * n, n))
        W[j, n:, n:] = np.eye(n)
        W[j:] = rk4_affine_values(grid[j:], tuple(H[j:] for H in H_tab), W[j])
        del H_tab  # the 2n-wide tables are the largest arrays held here

        WT = W[-1]
        J_T = np.asarray(p.J_T)
        E = J_T @ WT[:n, :n] - WT[n:, :n]
        rhs = WT[n:, n:] - J_T @ WT[:n, n:]
        sv = np.linalg.svd(E, compute_uv=False)
        if sv[-1] <= _SHOOTING_RCOND * sv[0]:
            raise BvpDegenerateError(
                f"shooting system singular for column time {t} "
                f"(singular values {sv[0]:.3e} .. {sv[-1]:.3e})")
        X = np.linalg.solve(E, rhs)

        ext = np.vstack([X, np.eye(n)])
        K = W[:, :n] @ ext
        minus_Pi = W[:, n:] @ ext
        d_lo = A_tab[0] @ K[:-1] - S_tab[0] @ minus_Pi[:-1]
        d_hi = A_tab[2] @ K[1:] - S_tab[2] @ minus_Pi[1:]
        if j > 0:  # the left limit at t is taken before the jump
            d_hi[j - 1] += S_tab[2][j - 1]
        return DenseSolution(grid, K[:-1], K[1:], d_lo, d_hi)


# -- trajectories, controls and the inner product -----------------------------

def minimal_control(problem: LQProblem, x: DenseSolution) -> DenseSolution:
    """Minimal-R-norm control generating x: u = B^(-) [x' - A x] nodewise.

    Evaluated on both sides of every node of x's grid, so controls of kinked
    trajectories keep their jumps; interior interpolation is the chord.
    """
    ts = x.times
    lo, hi = ts[:-1], ts[1:]
    out = []
    for sub, side, xv, xd in (
        (lo, 1, x.v_start, x.d_start),
        (hi, -1, x.v_end, x.d_end),
    ):
        B = problem.B.eval_many(sub, side)
        R = problem.R.eval_many(sub, side)
        A = problem.A.eval_many(sub, side)
        w, V = np.linalg.eigh(0.5 * (R + np.swapaxes(R, 1, 2)))
        if np.min(w) <= 0.0:
            k = int(np.argmin(w[:, 0]))
            raise SingularMatrixError(
                f"R not positive definite at t={float(sub[k])}",
                min_eigenvalue=float(w[k, 0]))
        Rm12 = (V / np.sqrt(w)[:, None, :]) @ np.swapaxes(V, 1, 2)
        pinv = np.linalg.pinv(B @ Rm12, rcond=RANK_TOL)
        resid = xd - np.einsum("kij,k...j->k...i", A, xv)
        u = np.einsum("kij,kjl,k...l->k...i", Rm12, pinv, resid)
        out.append(u)
    u_start, u_end = out
    h = (hi - lo).reshape((-1,) + (1,) * (u_start.ndim - 1))
    slope = (u_end - u_start) / h
    return DenseSolution(ts, u_start, u_end, slope, slope)


def _simpson_points(problem: LQProblem, extra_breaks, quad_intervals: int):
    """Simpson nodes over the horizon: (times, sides, weights).

    Each subinterval of the uniform quadrature grid (with schedule breakpoints
    and the supplied jump times inserted) contributes its endpoints, evaluated
    one-sidedly toward the interval interior, and its midpoint.
    """
    snap = np.concatenate([problem.breakpoints(), np.asarray(extra_breaks, dtype=float)])
    edges = build_grid(problem.t0, problem.T, quad_intervals, snap)
    lo, hi = edges[:-1], edges[1:]
    h = hi - lo
    ts = np.concatenate([lo, 0.5 * (lo + hi), hi])
    sides = np.concatenate([np.ones_like(lo), np.ones_like(lo), -np.ones_like(hi)])
    weights = np.concatenate([h / 6.0, 4.0 * h / 6.0, h / 6.0])
    return ts, sides, weights


def lq_inner_product(problem: LQProblem, traj1: ControlledTrajectory,
                     traj2: ControlledTrajectory,
                     quad_intervals: int = DEFAULT_QUAD_INTERVALS) -> float:
    """Cost inner product <x1, x2> by composite Simpson quadrature.

    Control jump times of either trajectory and schedule breakpoints are
    inserted as quadrature breakpoints, so the integrand is smooth on every
    Simpson subinterval.
    """
    span = max(1.0, problem.T - problem.t0)
    for tr in (traj1, traj2):
        if abs(tr.x.a - problem.t0) > 1e-9 * span or abs(tr.x.b - problem.T) > 1e-9 * span:
            raise HorizonMismatchError(
                f"trajectory on [{tr.x.a}, {tr.x.b}] does not match horizon "
                f"[{problem.t0}, {problem.T}]")
    breaks = np.concatenate([traj1.u.jump_nodes(), traj2.u.jump_nodes()])
    ts, sides, w = _simpson_points(problem, breaks, quad_intervals)
    x1 = traj1.x.eval_many(ts, sides)
    x2 = traj2.x.eval_many(ts, sides)
    u1 = traj1.u.eval_many(ts, sides)
    u2 = traj2.u.eval_many(ts, sides)
    Q = problem.Q.eval_many(ts, sides)
    R = problem.R.eval_many(ts, sides)
    stage = np.einsum("ki,kij,kj->k", x1, Q, x2) + np.einsum("ki,kij,kj->k", u1, R, u2)
    integral = float(w @ stage)
    xT1 = traj1.x.eval(problem.T, side=-1)
    xT2 = traj2.x.eval(problem.T, side=-1)
    return float(xT1 @ np.asarray(problem.J_T) @ xT2) + integral


def kernel_section_trajectory(operator: KernelOperator, t: float,
                              pvec: np.ndarray) -> ControlledTrajectory:
    """The kernel section K(., t) p as a controlled trajectory.

    The control is the minimal-R-norm control and is genuinely
    discontinuous at s = t; that node is stored two-sidedly.
    """
    pvec = np.asarray(pvec, dtype=float)
    x = operator.section(t).right_multiply(pvec)
    return ControlledTrajectory(x, minimal_control(operator.problem, x))


def reproducing_residual(operator: KernelOperator, traj: ControlledTrajectory,
                         t: float, pvec: np.ndarray,
                         quad_intervals: int = DEFAULT_QUAD_INTERVALS) -> float:
    """| p' x(t) - <x, K(., t) p> |, the defect of the reproducing property."""
    pvec = np.asarray(pvec, dtype=float)
    section = kernel_section_trajectory(operator, t, pvec)
    lhs = float(pvec @ traj.x.eval(t))
    rhs = lq_inner_product(operator.problem, traj, section, quad_intervals)
    return abs(lhs - rhs)
