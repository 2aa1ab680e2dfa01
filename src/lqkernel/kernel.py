"""The matrix-valued reproducing kernel of the controlled-trajectory space.

The space of controlled trajectories of x' = A x + B u on [t0, T], equipped
with the cost inner product

    <x1, x2> = x1(T)' J_T x2(T) + int [x1' Q x2 + u1' R u2] dt,

is a vector-valued RKHS.  Its kernel K(s, t) is computed two ways, each
matched to its use:

* diagonal K(t, t) of the space restarted at t: the dual Riccati solution
  M(t) (this equality is the headline identity; the test suite certifies it
  against J(t)^{-1} and against `shooting_diagonal` of the restarted
  problem, which solves no Riccati equation);
* sections K(., t), two-filter style (Fraser & Potter, IEEE TAC 1969): with
  the backward value Hessian J and the forward arrival cost P (P(t0) = 0),
  K(t, t) = (J(t) + P(t))^{-1}; for s >= t, K(s, t) is K(t, t) carried
  forward by the closed loop A - S J, and for s <= t, carried backward by
  A + S P (S = B R^{-1} B').  Both carriers are the X blocks of the
  re-anchored Hamiltonian flows of J and P, solved once per operator; the
  first column K(., t0) is the closed loop from t0 applied to K(t0, t0).

K keeps both one-sided derivatives at the column time, where they differ
by S(t).
"""

from __future__ import annotations

import dataclasses
from functools import cached_property

import numpy as np

from .errors import (BvpDegenerateError, HorizonMismatchError,
                     SingularMatrixError)
from .linalg import RANK_TOL, spd_inverse
from .model import ControlledTrajectory, LQProblem
from .ode import (DEFAULT_STEPS, DenseSolution, build_grid, rk4_affine_values,
                  schedule_stage_table)
from .riccati import (RiccatiSolution, _SymmetrizeTracker,
                      _control_weight_table, _hamiltonian_table,
                      _reanchored_flow, _riccati_flow, solve_dual_riccati)

DEFAULT_QUAD_INTERVALS = 2000

_SHOOTING_RCOND = 1e-12


@dataclasses.dataclass(frozen=True)
class _Flows:
    """J and P at the grid nodes, the X blocks of their flows (see
    `_reanchored_flow`), and the closed loops F = A - S J and G = A + S P
    at the (lo, hi) stage slots of every interval."""

    J: np.ndarray
    P: np.ndarray
    X_J: np.ndarray
    X_P: np.ndarray
    block: int
    F: tuple
    G: tuple

    def carry(self, k: int, value: np.ndarray, right: bool) -> np.ndarray:
        """K at nodes k..end along F (right) or 0..k along G, from its value
        at node k: one solve where the walk enters a block, one product."""
        X = self.X_J if right else self.X_P
        end = X.shape[0] - 1 if right else 0
        nodes = np.arange(k, end + 1) if right else np.arange(k, -1, -1)
        enter = (nodes % self.block == 0) & (nodes != k) & (nodes != end)
        carries = [np.linalg.solve(X[k], value)]  # K at the block anchors
        for c in nodes[enter]:
            carries.append(np.linalg.solve(X[c], carries[-1]))
        out = (X[k:] if right else X[k::-1]) @ np.stack(carries)[np.cumsum(enter)]
        out[0] = value
        return out if right else out[::-1]


class KernelOperator:
    """Kernel evaluator for one problem: diagonal, columns, entries, Grams.

    Construction fixes the integration grid (`steps` uniform intervals plus
    schedule breakpoints and any `extra_nodes`).  Computed lazily and cached:
    the J and P flows on the grid (once, from one Hamiltonian table; J is
    the Riccati pair's, and M is solved on the same grid when read) and the
    sections.  A section is two carries of K(t, t) over the X blocks of the
    flows.  A column time off the grid is inserted as a node: one RK4 step
    of the Hamiltonian from each neighbouring node gives J, P and the
    carriers there.  The operator is logically immutable and evaluations
    are pure.
    """

    def __init__(self, problem: LQProblem, steps: int = DEFAULT_STEPS,
                 extra_nodes=()):
        self.problem = problem
        self.steps = int(steps)
        snap = np.concatenate([problem.breakpoints(),
                               np.asarray(extra_nodes, dtype=float)])
        self.grid = build_grid(problem.t0, problem.T, self.steps, snap)
        self._sections: dict[float, DenseSolution] = {}

    # -- cached building blocks -------------------------------------------

    @cached_property
    def _pair_and_flows(self) -> tuple[RiccatiSolution, _Flows]:
        p, grid = self.problem, self.grid
        tracker = _SymmetrizeTracker()
        J_sol, J, X_J, block, (A_tab, S_tab, H_tab) = _riccati_flow(p, grid, tracker)
        pair = RiccatiSolution(p, J_sol, tracker.max_asymmetry)
        minus_P, X_P, _ = _reanchored_flow(grid, H_tab, np.zeros_like(J[0]))
        P = -minus_P
        F = (A_tab[0] - S_tab[0] @ J[:-1], A_tab[2] - S_tab[2] @ J[1:])
        G = (A_tab[0] + S_tab[0] @ P[:-1], A_tab[2] + S_tab[2] @ P[1:])
        return pair, _Flows(J, P, X_J, X_P, block, F, G)

    @property
    def riccati(self) -> RiccatiSolution:
        return self._pair_and_flows[0]

    def closed_loop_solution(self) -> DenseSolution:
        """Propagator of x' = (A + B G) x = (A - S J) x anchored at t0."""
        f = self._pair_and_flows[1]
        Phi = f.carry(0, np.eye(self.problem.state_dim), right=True)
        return DenseSolution(self.grid, Phi[:-1], Phi[1:],
                             f.F[0] @ Phi[:-1], f.F[1] @ Phi[1:])

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
        """Dense K(., t) for a fixed second argument, from the J and P flows."""
        key = float(t)
        if key not in self._sections:
            self._sections[key] = self._solve_section(key)
        return self._sections[key]

    def entry(self, s: float, t: float) -> np.ndarray:
        """K(s, t) for arbitrary s, t in the horizon."""
        return self.section(t).eval(s)

    def gram(self, times) -> tuple[np.ndarray, float]:
        """Block Gram matrix at `times`, symmetrized; returns (matrix, defect).

        Block (i, j) is K(t_i, t_j); one section is computed per column time
        and all rows are read off it.  The reported defect is the worst
        entry moved by the final (G + G')/2 projection.
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

    # -- sections -----------------------------------------------------------

    def _solve_section(self, t: float) -> DenseSolution:
        p, grid = self.problem, self.grid
        span = max(1.0, p.T - p.t0)
        if not (p.t0 - 1e-12 * span <= t <= p.T + 1e-12 * span):
            raise HorizonMismatchError(f"column time {t} outside [{p.t0}, {p.T}]")
        f = self._pair_and_flows[1]
        (F_lo, F_hi), (G_lo, G_hi) = f.F, f.G
        # right of t the section follows F, left of it G
        j = int(np.argmin(np.abs(grid - t)))
        if abs(grid[j] - t) <= 1e-12 * span:
            V = np.linalg.inv(f.J[j] + f.P[j])
            times = grid
            K = np.concatenate([f.carry(j, V, right=False)[:-1], V[None],
                                f.carry(j, V, right=True)[1:]])
            lo = np.concatenate([G_lo[:j], F_lo[j:]])
            hi = np.concatenate([G_hi[:j], F_hi[j:]])
        else:
            # t inside interval k becomes a node: one fresh RK4 step from
            # each end gives J, P and the propagators to the ends
            k = int(np.searchsorted(grid, t)) - 1
            g3 = np.array([grid[k], t, grid[k + 1]])
            A3, S3 = _control_weight_table(p, g3)
            H3 = _hamiltonian_table(A3, S3, schedule_stage_table(p.Q, g3))
            minus_P, X_P, _ = _reanchored_flow(g3, H3, -f.P[k])
            J, X_J, _ = _reanchored_flow(g3, H3, f.J[k + 1], backward=True)
            V = np.linalg.inv(J[1] - minus_P[1])
            times = np.insert(grid, k + 1, t)
            K = np.concatenate([
                f.carry(k, np.linalg.solve(X_P[1], V), right=False), V[None],
                f.carry(k + 1, np.linalg.solve(X_J[1], V), right=True)])
            lo = np.concatenate([G_lo[:k + 1], (A3[0][1] - S3[0][1] @ J[1])[None],
                                 F_lo[k + 1:]])
            hi = np.concatenate([G_hi[:k], (A3[2][0] - S3[2][0] @ minus_P[1])[None],
                                 F_hi[k:]])
        return DenseSolution(times, K[:-1], K[1:], lo @ K[:-1], hi @ K[1:])


def shooting_diagonal(problem: LQProblem, t: float,
                      steps: int = DEFAULT_STEPS) -> np.ndarray:
    """K(t, t) by single shooting, a route that solves no Riccati equation.

    [K; -Pi] runs the Hamiltonian flow [[A, -S], [-Q, -A']] from
    [K(t0, t); 0], its -Pi rows jump by +I at s = t, and
    J_T K(T) + Pi(T) = 0; the carrier [I; 0] swept to t and widened by
    [0; I] there gives the shooting system for K(t0, t).  The test suite
    and `verify` compare it with the Riccati routes.  Loses accuracy on
    long unstable horizons; raises BvpDegenerateError when the shooting
    system is numerically singular.
    """
    p = problem
    n = p.state_dim
    grid = build_grid(p.t0, p.T, steps, np.append(p.breakpoints(), t))
    A_tab, S_tab = _control_weight_table(p, grid)
    H_tab = _hamiltonian_table(A_tab, S_tab, schedule_stage_table(p.Q, grid))
    j = int(np.argmin(np.abs(grid - t)))
    W = np.eye(2 * n)
    W[:, :n] = rk4_affine_values(grid[:j + 1], tuple(H[:j] for H in H_tab),
                                 np.eye(2 * n, n))[-1]
    WT = rk4_affine_values(grid[j:], tuple(H[j:] for H in H_tab), W)[-1]
    J_T = np.asarray(p.J_T)
    E = J_T @ WT[:n, :n] - WT[n:, :n]
    rhs = WT[n:, n:] - J_T @ WT[:n, n:]
    sv = np.linalg.svd(E, compute_uv=False)
    if sv[-1] <= _SHOOTING_RCOND * sv[0]:
        raise BvpDegenerateError(
            f"shooting system singular for column time {t} "
            f"(singular values {sv[0]:.3e} .. {sv[-1]:.3e})")
    return W[:n] @ np.vstack([np.linalg.solve(E, rhs), np.eye(n)])


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
