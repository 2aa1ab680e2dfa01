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
  once per operator.  One builder carries the value at t: K(t, t) for a
  section, the N-vector K(t, t) p (or an N x b family of them) for a term
  of `kernel_trajectory`, the identity for the closed loop; a time off the
  grid goes through it too.  Read at a few times only (`entries`, and the
  Gram matrix through it), the builder carries the value to the nodes those
  times fall on and no further, with one product per node.  Only `section`
  caches, so a multipoint solve holds no N x N section.

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
from .ode import (DEFAULT_STEPS, DenseSolution, _affine_sweep, _hermite_combine,
                  _hermite_locate, _time_tol, build_grid, schedule_stage_table)
from .riccati import _dual_riccati_on, _Flows, _hamiltonian_table, _solve_flows

DEFAULT_QUAD_INTERVALS = 2000

_SHOOTING_RCOND = 1e-12


class KernelOperator:
    """The Riccati pair and kernel of one problem: J, M, diagonal, columns,
    entries, Grams.

    Construction fixes the integration grid (`steps` uniform intervals plus
    schedule breakpoints and any `extra_nodes`).  Computed lazily and cached:
    the J and P flows on the grid (once, by `_solve_flows`), M on the same
    grid when first read (never on the feedback route), the closed loop
    that both solves read, the flows at column times off the grid, and the
    sections read by `section` and `entry`.  A section is two carries of
    K(t, t) over the X blocks of the flows.  A column time off the grid is
    inserted as a node: the same builder, run on that time and its two
    neighbouring nodes, gives J, P and the carriers at it.  The operator is
    logically immutable and evaluations are pure.
    """

    def __init__(self, problem: LQProblem, steps: int = DEFAULT_STEPS,
                 extra_nodes=()):
        self.problem = problem
        self.steps = int(steps)
        snap = np.concatenate([problem.breakpoints(),
                               np.asarray(extra_nodes, dtype=float)])
        self.grid = build_grid(problem.t0, problem.T, self.steps, snap)
        self._sections: dict[float, DenseSolution] = {}
        self._nodes: dict[float, _Flows] = {}

    # -- the Riccati pair and its flows -------------------------------------

    @cached_property
    def _flows(self) -> _Flows:
        J_T = self.problem.J_T
        return _solve_flows(self.problem, self.grid, J_T, np.zeros_like(J_T))

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
    def _closed_loop(self) -> DenseSolution:
        eye = np.eye(self.problem.state_dim)
        return self._carried(self.problem.t0, lambda J, P: eye)

    def closed_loop_solution(self) -> DenseSolution:
        """Propagator of x' = (A + B G) x = (A - S J) x anchored at t0,
        built once per operator."""
        return self._closed_loop

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

    def section(self, t: float) -> DenseSolution:
        """Dense K(., t) for a fixed second argument, from the J and P flows."""
        key = float(t)
        if key not in self._sections:
            self._sections[key] = self._solve_section(key)
        return self._sections[key]

    def entry(self, s: float, t: float) -> np.ndarray:
        """K(s, t) for arbitrary s, t in the horizon."""
        return self.section(t).eval(s)

    def entries(self, times) -> np.ndarray:
        """K(t_i, t_j) for every pair of `times`, as a (k, k, N, N) array,
        bit for bit `entry(t_i, t_j)`.  Column j carries K(t_j, t_j) only to
        the nodes, and takes the closed-loop products only on the intervals,
        that the times read; no section is built or cached."""
        times = np.asarray(times, dtype=float)
        return np.stack([self._carried(float(t), _kernel_diagonal, at=times)
                         for t in times], axis=1)

    def gram(self, times) -> tuple[np.ndarray, float]:
        """Block Gram matrix at `times`, symmetrized; returns (matrix, defect).

        Block (i, j) is K(t_i, t_j), read by `entries`.  The reported
        defect is the worst entry moved by the final (G + G')/2 projection.
        """
        k, n = np.size(times), self.problem.state_dim
        return _symmetrized(self.entries(times).transpose(0, 2, 1, 3).reshape(k * n, k * n))

    def control(self, t: float, x: DenseSolution) -> DenseSolution:
        """Control of a vector trajectory x, or of a family of them (a
        trailing column axis), on the section grid of t (the grid, with t
        inserted when off it), such as K(., t) p: at both ends
        of every interval u = -W lambda, W = R^{-1} B', with the costate
        lambda = J x right of t and -P x left of it; the chord in between.
        As B u = -S lambda = x' - A x and u is in the range of W, u is the
        minimal-R-norm control of x."""
        f = self._flows
        j, node = self._node(float(t))
        J, P, (W_lo, W_hi) = f.J, f.P, f.W
        if node is not None:
            J, P = np.insert(J, j, node.J[1], axis=0), np.insert(P, j, node.P[1], axis=0)
            W_lo = np.insert(W_lo, j, node.W[0][1], axis=0)
            W_hi = np.insert(W_hi, j - 1, node.W[1][0], axis=0)

        def u(W, M, v, sign):  # sign W (M v), interval by interval and column by column
            return sign * np.einsum("kij,kj...->ki...", W, np.einsum("kij,kj...->ki...", M, v))

        u_start = np.concatenate([u(W_lo[:j], P[:j], x.v_start[:j], 1.0),
                                  u(W_lo[j:], J[j:-1], x.v_start[j:], -1.0)])
        u_end = np.concatenate([u(W_hi[:j], P[1:j + 1], x.v_end[:j], 1.0),
                                u(W_hi[j:], J[j + 1:], x.v_end[j:], -1.0)])
        slope = (u_end - u_start) / np.diff(x.times).reshape((-1,) + (1,) * (u_end.ndim - 1))
        return DenseSolution(x.times, u_start, u_end, slope, slope)

    # -- sections -----------------------------------------------------------

    def _node(self, t: float) -> tuple[int, _Flows | None]:
        """(j, node): t is node j of its section grid.  On the grid node is
        None; inside interval j - 1, t is inserted, and node holds the J and
        P flows on [grid[j - 1], t, grid[j]], from the operator's J at
        grid[j] and P at grid[j - 1]: its node 1 is t.  Nodes are cached,
        as a term's section and its control both read them."""
        p, grid = self.problem, self.grid
        tol = _time_tol(p.t0, p.T)
        if not (p.t0 - tol <= t <= p.T + tol):
            raise HorizonMismatchError(f"column time {t} outside [{p.t0}, {p.T}]")
        j = int(np.argmin(np.abs(grid - t)))
        if abs(grid[j] - t) <= tol:
            return j, None
        k = int(np.searchsorted(grid, t)) - 1
        if t not in self._nodes:
            f = self._flows
            self._nodes[t] = _solve_flows(p, np.array([grid[k], t, grid[k + 1]]),
                                          f.J[k + 1], -f.P[k])
        return k + 1, self._nodes[t]

    def _carried(self, t: float, value, at=None):
        """V = value(J(t), P(t)) carried from t along G to the left and along
        F to the right, on t's section grid (`_node`), as a DenseSolution;
        or, given times `at`, its values there (bit for bit its
        `eval_many(at)`), from the nodes and interval carriers those times
        read alone.  On the grid the walk starts at t; off it, the node
        flows carry V to the grid nodes on either side of t, and the walk
        starts there."""
        f = self._flows
        j, node = self._node(t)
        if node is None:
            V = value(f.J[j], f.P[j])
            times, s, starts, lo_t, hi_t = self.grid, 0, (V, V), [], []
        else:  # t sits inside interval j - 1 of the grid
            V = value(node.J[1], node.P[1])
            times, s, lo_t, hi_t = np.insert(self.grid, j, t), 1, [node.F[0][1:]], [node.G[1][:1]]
            starts = (np.linalg.solve(node.X_P[1], V), np.linalg.solve(node.X_J[1], V))
        size = times.size

        # section node (and interval) i is grid node i left of t and i - s
        # right of it; `part` gives the grid indices of the section indices
        # lo <= i < hi in a selection, or of all of them (None) as a slice
        def part(sel, lo, hi, shift=0):
            return slice(lo - shift, hi - shift) if sel is None else (
                sel[(sel >= lo) & (sel < hi)] - shift)

        def nodes(sel):
            mid = [V[None]] if sel is None or j in sel else []
            return np.concatenate([f.carry(j - s, starts[0], False, part(sel, 0, j)), *mid,
                                   f.carry(j, starts[1], True, part(sel, j + 1, size, s))])

        def carrier(sel, lo):  # G left of t, F right of it, at the lo or hi slots
            C, cut, at_t = (f.G[0], j, lo_t) if lo else (f.G[1], j - s, hi_t)
            return np.concatenate([C[part(sel, 0, cut)],
                                   *(at_t if sel is None or cut in sel else []),
                                   (f.F[0] if lo else f.F[1])[part(sel, cut + s, size - 1, s)]])

        if at is None:
            ivals, K = None, nodes(None)
            v_lo, v_hi = K[:-1], K[1:]
        else:
            k, weights = _hermite_locate(times, at, 1, want_deriv=False)
            ivals, k = np.unique(k, return_inverse=True)
            sel = np.union1d(ivals, ivals + 1)
            K, pos = nodes(sel), np.searchsorted(sel, ivals)
            v_lo, v_hi = K[pos], K[pos + 1]
        # each carrier lives only for its product: a lower peak per column
        d_lo = carrier(ivals, True) @ v_lo
        d_hi = carrier(ivals, False) @ v_hi
        if at is None:
            return DenseSolution(times, v_lo, v_hi, d_lo, d_hi)
        return _hermite_combine((v_lo, d_lo, v_hi, d_hi), (k, weights))

    def _solve_section(self, t: float, p: np.ndarray | None = None) -> DenseSolution:
        """K(., t) on t's section grid, or, for a covector p (N) or a family
        of b covectors (N x b), K(., t) p carried with one or b columns."""
        if p is None:
            return self._carried(t, _kernel_diagonal)
        col = self._carried(t, lambda J, P: np.linalg.solve(J + P, p if p.ndim == 2 else p[:, None]))
        if p.ndim == 2:
            return col
        return DenseSolution(col.times, col.v_start[..., 0], col.v_end[..., 0],
                             col.d_start[..., 0], col.d_end[..., 0])


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
    tol = _time_tol(problem.t0, problem.T)
    trajs = (traj1,) if traj2 is traj1 else (traj1, traj2)
    for tr in trajs:
        if abs(tr.x.a - problem.t0) > tol or abs(tr.x.b - problem.T) > tol:
            raise HorizonMismatchError(
                f"trajectory on [{tr.x.a}, {tr.x.b}] does not match horizon "
                f"[{problem.t0}, {problem.T}]")
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
    """sum_i K(., t_i) p_i over (t_i, p_i) pairs sharing one grid (every t_i a
    node of the operator's grid, or a single term), as a controlled trajectory.
    Each term is carried by the section builder as the N-vector
    K(t_i, t_i) p_i (no N x N section is built or cached) and takes its own
    control off the costate (`KernelOperator.control`), which jumps at
    s = t_i, where it is stored two-sidedly.  A family of b covectors
    (N x b) is carried once, as N x b, and gives a family of b trajectories."""
    xs = [operator._solve_section(float(t), np.asarray(p, dtype=float)) for t, p in covectors]
    if len({x.times.tobytes() for x in xs}) > 1:
        raise ValueError("kernel_trajectory: the sections lie on different grids")
    us = [operator.control(t, x) for (t, _), x in zip(covectors, xs)]
    fields = ("v_start", "v_end", "d_start", "d_end")
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
