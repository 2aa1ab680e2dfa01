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
  re-anchored Hamiltonian flows of J and P (`riccati._solve_flows`), solved
  once per operator.  Column times t and the read times s of `entry` and
  `entries` are nodes of the operator's grid (`extra_nodes` puts them
  there); a section read anywhere is the identity family of
  `kernel_trajectory`, evaluated there.  One builder carries the value at
  t: the N-vector K(t, t) p (or an N x b family of them) for a term of
  `kernel_trajectory`, the identity for the closed loop.  Read at a few
  nodes only (`entry`, `entries`, and the Gram matrix through them), the
  builder carries K(t, t) to those nodes and no further, with one product
  per node.  No section is cached.

The inner product, the reproducing residual and `problems.rollout` take
families of trajectories with a trailing column axis, so `verify` runs its
random trajectories as one rollout and one quadrature per column time.

K keeps both one-sided derivatives at the column time, where they differ
by S(t).  The control of K(., t) p, read off the costate (J x right of t,
-P x left of it) by `KernelOperator.control`, jumps there too.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import BvpDegenerateError, HorizonMismatchError
from .linalg import _symmetrized, spd_inverse
from .model import ControlledTrajectory, LQProblem
from .ode import (DEFAULT_STEPS, DenseSolution, _affine_sweep, _time_tol, build_grid,
                  schedule_stage_table)
from .riccati import _dual_riccati_on, _Flows, _hamiltonian_table, _solve_flows

DEFAULT_QUAD_INTERVALS = 2000

_SHOOTING_RCOND = 1e-12


class KernelOperator:
    """The Riccati pair and kernel of one problem: J, M, diagonal, columns,
    entries, Grams.

    Construction fixes the integration grid (`steps` uniform intervals plus
    schedule breakpoints and any `extra_nodes`).  Every column time, and
    every read time of `entry` and `entries`, must be a node of it, so a
    caller that reads K at chosen times passes them in `extra_nodes`; an
    off-grid time raises ValueError.  Computed lazily and cached: the J and
    P flows on the grid (once, by `_solve_flows`), M on the same grid when
    first read (never on the feedback route), and the closed loop that both
    solves read.  Every kernel value is read through `_carried`: two
    carries of K(t, t), or of K(t, t) p, over the X blocks of the flows.
    The operator is logically immutable and evaluations are pure.
    """

    def __init__(self, problem: LQProblem, steps: int = DEFAULT_STEPS,
                 extra_nodes=()):
        self.problem = problem
        self.steps = int(steps)
        snap = np.concatenate([problem.breakpoints(),
                               np.asarray(extra_nodes, dtype=float)])
        self.grid = build_grid(problem.t0, problem.T, self.steps, snap)

    # -- the Riccati pair and its flows -------------------------------------

    @cached_property
    def _flows(self) -> _Flows:
        return _solve_flows(self.problem, self.grid)

    @cached_property
    def _dual(self) -> tuple[DenseSolution, float]:
        return _dual_riccati_on(self.problem, self.grid)

    @property
    def J(self) -> DenseSolution:
        """The value Hessian J(., T) on the grid."""
        return self._flows.J_solution

    @property
    def M(self) -> DenseSolution:
        """The dual Riccati solution M(., T) on the grid, solved on first read."""
        return self._dual[0]

    @property
    def max_asymmetry_J(self) -> float:
        return self._flows.drift_J

    @property
    def max_asymmetry_M(self) -> float:
        return self._dual[1]

    def duality_defects(self) -> np.ndarray:
        """Frobenius norm of J(t)M(t) - I at every grid node."""
        eye = np.eye(self.problem.state_dim)
        return np.linalg.norm(self.J.values @ self.M.values - eye, axis=(1, 2))

    @cached_property
    def closed_loop(self) -> DenseSolution:
        """Propagator of x' = (A + B G) x = (A - S J) x anchored at t0,
        built once per operator."""
        eye = np.eye(self.problem.state_dim)
        return self._carried(self.problem.t0, lambda J, P: eye)

    # -- kernel values ------------------------------------------------------

    def diagonal(self, t_query: float) -> np.ndarray:
        """K(t, t) of the space restarted at t: the dual Riccati value M(t).

        Exactly J_T^{-1} at T.  Before the problem's start, where the
        schedules extend that far, the dual Riccati equation is solved again
        on [t, T]; after T, or before a schedule's domain, the query is
        rejected.
        """
        p = self.problem
        t = float(t_query)
        tol = _time_tol(p.t0, p.T)
        if t > p.T + tol:
            raise HorizonMismatchError(f"query time {t} exceeds T={p.T}")
        if abs(t - p.T) <= tol:
            return spd_inverse(p.J_T)
        if t >= p.t0 - tol:
            return self.M.eval(t)
        sub = p.restricted(t)
        grid = build_grid(t, p.T, self.steps, sub.breakpoints())
        return _dual_riccati_on(sub, grid)[0].eval(t)

    def entry(self, s: float, t: float) -> np.ndarray:
        """K(s, t) for grid nodes s and t, carried from t to s only."""
        return self._carried(float(t), _kernel_diagonal, rows=self._nodes(s))[0]

    def entries(self, times) -> np.ndarray:
        """K(t_i, t_j) for every pair of `times`, all grid nodes, as a
        (k, k, N, N) array, bit for bit `entry(t_i, t_j)`.  The times are
        mapped to nodes once, and column j carries K(t_j, t_j) only to the
        nodes the times name; no section is built."""
        rows, back = np.unique(self._nodes(times), return_inverse=True)
        return np.stack([self._carried(float(t), _kernel_diagonal, rows=rows)[back]
                         for t in np.atleast_1d(times)], axis=1)

    def gram(self, times) -> tuple[np.ndarray, float]:
        """Block Gram matrix at `times`, symmetrized; returns (matrix, defect).

        Block (i, j) is K(t_i, t_j), read by `entries`.  The reported
        defect is the worst entry moved by the final (G + G')/2 projection.
        """
        k, n = np.size(times), self.problem.state_dim
        return _symmetrized(self.entries(times).transpose(0, 2, 1, 3).reshape(k * n, k * n))

    def control(self, t: float, x: DenseSolution) -> DenseSolution:
        """Control of a vector trajectory x on the grid, or of a family of
        them (a trailing column axis), such as K(., t) p for a grid node t:
        at both ends of every interval u = -W lambda, W = R^{-1} B', with
        the costate lambda = J x right of t and -P x left of it; the chord in
        between.  As B u = -S lambda = x' - A x and u is in the range of W, u
        is the minimal-R-norm control of x."""
        f = self._flows
        j = self._nodes(t)[0]
        J, P, (W_lo, W_hi) = f.J, f.P, f.W

        def u(W, M, v, sign):  # sign W (M v), interval by interval and column by column
            return sign * np.einsum("kij,kj...->ki...", W, np.einsum("kij,kj...->ki...", M, v))

        u_start = np.concatenate([u(W_lo[:j], P[:j], x.v_start[:j], 1.0),
                                  u(W_lo[j:], J[j:-1], x.v_start[j:], -1.0)])
        u_end = np.concatenate([u(W_hi[:j], P[1:j + 1], x.v_end[:j], 1.0),
                                u(W_hi[j:], J[j + 1:], x.v_end[j:], -1.0)])
        slope = (u_end - u_start) / np.diff(x.times).reshape((-1,) + (1,) * (u_end.ndim - 1))
        return DenseSolution(x.times, u_start, u_end, slope, slope)

    # -- sections -----------------------------------------------------------

    def _nodes(self, times) -> np.ndarray:
        """The grid indices of `times` (a time or an array of them), by one
        nearest-node lookup.  Every time must be a node: raises
        HorizonMismatchError outside the horizon and ValueError at any other
        time that is not a node (construct the operator with it in
        `extra_nodes`)."""
        p, grid = self.problem, self.grid
        ts = np.atleast_1d(np.asarray(times, dtype=float))
        tol = _time_tol(p.t0, p.T)
        out = (ts < p.t0 - tol) | (ts > p.T + tol)
        if out.any():
            raise HorizonMismatchError(f"column time {float(ts[out][0])} outside [{p.t0}, {p.T}]")
        j = np.clip(np.searchsorted(grid, ts), 1, grid.size - 1)
        j -= ts - grid[j - 1] <= grid[j] - ts
        off = np.abs(grid[j] - ts) > tol
        if off.any():
            raise ValueError(f"column time {float(ts[off][0])} is not a grid node; "
                             "pass it in extra_nodes")
        return j

    def _carried(self, t: float, value, rows=None):
        """V = value(J(t), P(t)) carried from the grid node t along G to the
        left and along F to the right, as a DenseSolution on the grid; or,
        given increasing node indices `rows`, its values at those nodes
        alone.  For value = K(t, t) these are bit for bit the node values of
        the identity family `kernel_trajectory(op, [(t, I)]).x`."""
        f = self._flows
        j = self._nodes(t)[0]
        V = value(f.J[j], f.P[j])
        size = self.grid.size

        # the node indices lo <= i < hi in a selection, or all of them (None)
        def part(sel, lo, hi):
            return slice(lo, hi) if sel is None else sel[(sel >= lo) & (sel < hi)]

        def nodes(sel):
            mid = [V[None]] if sel is None or j in sel else []
            return np.concatenate([f.carry(j, V, False, part(sel, 0, j)), *mid,
                                   f.carry(j, V, True, part(sel, j + 1, size))])

        if rows is not None:
            return nodes(rows)
        K = nodes(None)
        # G left of t, F right of it, each carrier alive only for its product
        d_lo = np.concatenate([f.G[0][:j], f.F[0][j:]]) @ K[:-1]
        d_hi = np.concatenate([f.G[1][:j], f.F[1][j:]]) @ K[1:]
        return DenseSolution(self.grid, K[:-1], K[1:], d_lo, d_hi)


def _kernel_diagonal(J: np.ndarray, P: np.ndarray) -> np.ndarray:
    """K(t, t) = (J(t) + P(t))^{-1}, from the two filters at t."""
    return np.linalg.inv(J + P)


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
    H_tab, _ = _hamiltonian_table(p, grid)
    j = int(np.argmin(np.abs(grid - t)))
    W = np.eye(2 * n)
    W[:, :n] = _affine_sweep(grid[:j + 1], tuple(H[:j] for H in H_tab), np.eye(2 * n, n))[-1]
    WT = _affine_sweep(grid[j:], tuple(H[j:] for H in H_tab), W)[-1]
    J_T = np.asarray(p.J_T)
    E = J_T @ WT[:n, :n] - WT[n:, :n]
    rhs = WT[n:, n:] - J_T @ WT[:n, n:]
    sv = np.linalg.svd(E, compute_uv=False)
    if sv[-1] <= _SHOOTING_RCOND * sv[0]:
        raise BvpDegenerateError(
            f"shooting system singular for column time {t} "
            f"(singular values {sv[0]:.3e} .. {sv[-1]:.3e})")
    return W[:n] @ np.vstack([np.linalg.solve(E, rhs), np.eye(n)])


# -- trajectories and the inner product ---------------------------------------

def _simpson_points(problem: LQProblem, extra_breaks, quad_intervals: int):
    """Simpson nodes over the horizon: (edges, times, sides, weights).

    Each interval of the quadrature grid `edges` (uniform, with schedule
    breakpoints and the supplied jump times inserted) contributes the stage
    points of `schedule_stage_table`, in its order: both ends evaluated
    one-sidedly toward the interior, and the midpoint.
    """
    snap = np.concatenate([problem.breakpoints(), np.asarray(extra_breaks, dtype=float)])
    edges = build_grid(problem.t0, problem.T, quad_intervals, snap)
    lo, hi = edges[:-1], edges[1:]
    h = hi - lo
    ts = np.concatenate([lo, 0.5 * (lo + hi), hi])
    sides = np.concatenate([np.ones_like(lo), np.ones_like(lo), -np.ones_like(hi)])
    weights = np.concatenate([h / 6.0, 4.0 * h / 6.0, h / 6.0])
    return edges, ts, sides, weights


def _column_products(a: np.ndarray, b: np.ndarray, M: np.ndarray | None = None):
    """a' M b (a' b without M), contracting the first axis: a number for
    vectors, one per column for families with a trailing column axis.  Each
    column is its own product chain on contiguous data, so it gives the
    bits of its vector."""
    a, b = (np.ascontiguousarray(np.moveaxis(v, 0, -1)) for v in (a, b))
    row = a[..., None, :] if M is None else a[..., None, :] @ M
    return (row @ b[..., :, None])[..., 0, 0]


def _per_column(values: np.ndarray) -> float | np.ndarray:
    """A float for a vector's 0-d result, the array for a family."""
    return float(values) if values.ndim == 0 else values


def lq_inner_product(problem: LQProblem, traj1: ControlledTrajectory,
                     traj2: ControlledTrajectory,
                     quad_intervals: int = DEFAULT_QUAD_INTERVALS) -> float | np.ndarray:
    """Cost inner product <x1, x2> by composite Simpson quadrature.

    Control jump times of either trajectory and schedule breakpoints are
    inserted as quadrature breakpoints, so the integrand is smooth on every
    Simpson subinterval.  The Simpson points are located once per
    trajectory grid (x and u of a trajectory share theirs) and a trajectory
    passed twice is evaluated once; the terminal state is the last point,
    T from the left.  Q and R are read off their stage tables, one
    evaluation per node (`schedule_stage_table`).  Two families of b
    trajectories (a trailing column axis, as `problems.rollout` makes) give
    the b inner products of matching columns as an array: the breakpoints
    are the union of all columns' jump nodes, so where the columns jump at
    the same nodes each column is its vector call bit for bit.  Vectors
    give a float.
    """
    trajs = (traj1,) if traj2 is traj1 else (traj1, traj2)
    for tr in trajs:
        problem._check_horizon(tr.x)
    breaks = np.concatenate([tr.u.jump_nodes() for tr in trajs])
    edges, ts, sides, w = _simpson_points(problem, breaks, quad_intervals)
    located = {}  # the Simpson points located on each trajectory grid

    def at_points(sol: DenseSolution) -> np.ndarray:
        grid = sol.times.tobytes()
        if grid not in located:
            located[grid] = sol._locate(ts, sides, want_deriv=False)
        return sol._combine(located[grid])

    values = [(at_points(tr.x), at_points(tr.u)) for tr in trajs]
    (x1, u1), (x2, u2) = values[0], values[-1]
    Q, R = (np.concatenate(schedule_stage_table(s, edges)) for s in (problem.Q, problem.R))
    stage = (np.einsum("ki...,kij,kj...->k...", x1, Q, x2)
             + np.einsum("ki...,kij,kj...->k...", u1, R, u2))
    terminal = _column_products(x1[-1], x2[-1], np.asarray(problem.J_T))
    return _per_column(terminal + _column_products(w, stage))


def kernel_trajectory(operator: KernelOperator, covectors) -> ControlledTrajectory:
    """sum_i K(., t_i) p_i over (t_i, p_i) pairs, every t_i a node of the
    operator's grid, as a controlled trajectory on that grid.
    Each term is carried by `KernelOperator._carried` as the N-vector
    K(t_i, t_i) p_i (no N x N section is built) and takes its own control
    off the costate (`KernelOperator.control`), which jumps at s = t_i,
    where it is stored two-sidedly.  A family of b covectors (N x b) is
    carried once, as N x b, and gives a family of b trajectories; the
    identity family (p = I) is the whole section K(., t)."""
    fields = ("v_start", "v_end", "d_start", "d_end")

    def carried(t, p):  # K(., t) p with one column, or with b
        p2d = p if p.ndim == 2 else p[:, None]
        x = operator._carried(t, lambda J, P: np.linalg.solve(J + P, p2d))
        if p.ndim == 2:
            return x
        return DenseSolution(x.times, *(getattr(x, f)[..., 0] for f in fields))

    xs = [carried(float(t), np.asarray(p, dtype=float)) for t, p in covectors]
    us = [operator.control(t, x) for (t, _), x in zip(covectors, xs)]
    x, u = (DenseSolution(xs[0].times, *(sum(getattr(s, f) for s in parts) for f in fields))
            for parts in (xs, us))
    return ControlledTrajectory(x, u)


def reproducing_residual(operator: KernelOperator, traj: ControlledTrajectory,
                         t: float, pvec: np.ndarray,
                         quad_intervals: int = DEFAULT_QUAD_INTERVALS) -> float | np.ndarray:
    """| p' x(t) - <x, K(., t) p> |, the defect of the reproducing property.
    For a family of b trajectories and b covectors (N x b), one defect per
    column, from one section family and one quadrature."""
    pvec = np.asarray(pvec, dtype=float)
    section = kernel_trajectory(operator, [(t, pvec)])
    lhs = _column_products(pvec, traj.x.eval(t))
    rhs = lq_inner_product(operator.problem, traj, section, quad_intervals)
    return _per_column(np.abs(lhs - rhs))
