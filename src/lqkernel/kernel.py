"""The matrix-valued reproducing kernel of the controlled-trajectory space.

The space of controlled trajectories of x' = A x + B u on [t0, T], equipped
with the cost inner product

    <x1, x2> = x1(T)' J_T x2(T) + int [x1' Q x2 + u1' R u2] dt,

is a vector-valued RKHS.  Its kernel K(s, t) is computed two ways, each
matched to its use:

* diagonal K(t, t) of the space restarted at t: the dual Riccati solution
  M(t) (this equality is the headline identity; `verify` and the test suite
  certify it against J(t)^{-1} and against `restarted_diagonals`, single
  shooting of the restarted spaces at all their times in one forward sweep
  on the operator's grid, which solves no Riccati equation);
* sections K(., t), two-filter style (Fraser & Potter, IEEE TAC 1969): with
  the backward value Hessian J and the forward arrival cost P (P(t0) = 0),
  K(t, t) = (J(t) + P(t))^{-1}; for s >= t, K(s, t) is K(t, t) carried
  forward by the closed loop A - S J, and for s <= t, carried backward by
  A + S P (S = B R^{-1} B').  Both carriers are the X blocks of the
  re-anchored Hamiltonian flows of J and P (`riccati._solve_flows`), solved
  once per operator.  Column times t and the read times s of `entry` and
  `entries` are nodes of the operator's grid (`extra_nodes` puts them
  there); a section read anywhere is the identity family of
  `kernel_trajectory`, evaluated there.  One builder,
  `KernelOperator.trajectory`, makes every trajectory: a sum of terms
  K(., t_i) K(t_i, t_i)^{-1} v_i, carried once forward along A - S J and
  once backward along A + S P, whatever the number of terms; the kernel
  and feedback solves are its one-term sums at t0.  Read at a few nodes
  only (`entry`, `entries`, and the Gram matrix through them), K(t, t) is
  carried to those nodes and no further, with one product per node
  (`_carried`).  No section is cached.

The inner product, the reproducing residual and `problems.rollout` take
families of trajectories with a trailing column axis, so `verify` runs its
random trajectories as one rollout and one quadrature per column time.

K keeps both one-sided derivatives at the column time, where they differ
by S(t).  The control of K(., t) p, read off the costate (J x for the part
carried from the left, -P x for the part carried from the right) by
`KernelOperator.trajectory`, jumps there too.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import BvpDegenerateError, HorizonMismatchError
from .linalg import _symmetrized
from .model import ControlledTrajectory, LQProblem
from .ode import (DEFAULT_STEPS, DenseSolution, _affine_sweep, _clip_to_span, _time_tol,
                  build_grid, schedule_stage_table)
from .riccati import _dual_riccati_on, _Flows, _hamiltonian_table, _solve_flows

DEFAULT_QUAD_INTERVALS = 2000

_SHOOTING_RCOND = 1e-12


class KernelOperator:
    """The Riccati pair and kernel of one problem: J, M, diagonal,
    trajectories, entries, Grams.

    Construction fixes the integration grid (`steps` uniform intervals plus
    schedule breakpoints and any `extra_nodes`).  Every column time, and
    every read time of `entry` and `entries`, must be a node of it, so a
    caller that reads K at chosen times passes them in `extra_nodes`; an
    off-grid time raises ValueError.  Computed lazily and cached: the J and
    P flows on the grid (once, by `_solve_flows`) and M on the same grid
    when first read (never on the feedback route).  Every trajectory is
    built by `trajectory`, and every kernel entry read by `_carried`; both
    carry values over the X blocks of the flows.  The operator is
    logically immutable and evaluations are pure.
    """

    def __init__(self, problem: LQProblem, steps: int = DEFAULT_STEPS,
                 extra_nodes=()):
        self.problem = problem
        snap = np.concatenate([problem.breakpoints(),
                               np.asarray(extra_nodes, dtype=float)])
        self.grid = build_grid(problem.t0, problem.T, int(steps), snap)

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

    # -- kernel values ------------------------------------------------------

    def diagonal(self, t: float) -> np.ndarray:
        """K(t, t) of the space restarted at t in [t0, T]: the dual Riccati
        value M(t), exactly J_T^{-1} at T.  A time outside the horizon raises
        HorizonMismatchError; for an earlier start, build the operator on
        `problem.restricted(t)`."""
        p = self.problem
        return self.M.eval_many(_clip_to_span(np.atleast_1d(float(t)), p.t0, p.T,
                                              HorizonMismatchError))[0]

    def entry(self, s: float, t: float) -> np.ndarray:
        """K(s, t) for grid nodes s and t, carried from t to s only."""
        return self._carried(float(t), self._nodes(s))[0]

    def entries(self, times) -> np.ndarray:
        """K(t_i, t_j) for every pair of `times`, all grid nodes, as a
        (k, k, N, N) array, bit for bit `entry(t_i, t_j)`.  The times are
        mapped to nodes once, and column j carries K(t_j, t_j) only to the
        nodes the times name; no section is built."""
        rows, back = np.unique(self._nodes(times), return_inverse=True)
        return np.stack([self._carried(float(t), rows)[back]
                         for t in np.atleast_1d(times)], axis=1)

    def gram(self, times) -> tuple[np.ndarray, float]:
        """Block Gram matrix at `times`, symmetrized; returns (matrix, defect).

        Block (i, j) is K(t_i, t_j), read by `entries`.  The reported
        defect is the worst entry moved by the final (G + G')/2 projection.
        """
        k, n = np.size(times), self.problem.state_dim
        return _symmetrized(self.entries(times).transpose(0, 2, 1, 3).reshape(k * n, k * n))

    def trajectory(self, terms) -> ControlledTrajectory:
        """sum_i K(., t_i) K(t_i, t_i)^{-1} v_i over (t_i, v_i) pairs, every t_i
        a grid node and every v_i an N-vector or an N x b family (a family
        of b trajectories), as a controlled trajectory on the grid.

        A term is v_i carried along F = A - S J right of t_i and along
        G = A + S P left of it.  With V the values summed at their nodes,
        `fwd` walks right along F counting each v_i from t_i on, `bwd` walks
        left along G counting it from t_i back, one carry per segment
        between term nodes, and x = fwd + bwd - V.  On an interval the part
        carried from the left is fwd at its start and fwd - V at its end,
        the part carried from the right bwd - V and bwd: x' is F times the
        one plus G times the other, the costate lambda = J (left part) -
        P (right part), and u = -W lambda, W = R^{-1} B', at both ends, the
        chord in between.  As B u = -S lambda = x' - A x and u is in the
        range of W, u is the minimal-R-norm control of x.  It jumps by
        -W (J + P) v_i at t_i, where it is stored two-sidedly."""
        f, size, n = self._flows, self.grid.size, self.problem.state_dim
        values = [np.asarray(v, dtype=float) for _, v in terms]
        at = self._nodes([t for t, _ in terms])
        V = np.zeros((size, n, max(v.size // n for v in values)))
        for j, v in zip(at, values):
            V[j] += v.reshape(n, -1)
        stops = np.unique(at)
        fwd, bwd = np.zeros_like(V), np.zeros_like(V)
        for k, k_next in zip(stops, [*stops[1:], size - 1]):
            fwd[k] += V[k]
            fwd[k + 1:k_next + 1] = f.carry(k, fwd[k], True, slice(k + 1, k_next + 1))
        for k, k_prev in zip(stops[::-1], [*stops[-2::-1], 0]):
            bwd[k] += V[k]
            bwd[k_prev:k] = f.carry(k, bwd[k], False, slice(k_prev, k))
        x = fwd + bwd - V
        lo, hi = stops[0], stops[-1]

        def ends(Mf, Mg, left, right, sign):
            """Mf left + sign Mg right at one end of every interval, each
            product taken only where its part is carried: left from the
            first term node on, right up to the last."""
            out = np.zeros_like(left)
            out[lo:] = Mf[lo:] @ left[lo:]
            out[:hi] += sign * (Mg[:hi] @ right[:hi])
            return out

        parts = ((fwd[:-1], bwd[:-1] - V[:-1]), (fwd[1:] - V[1:], bwd[1:]))
        d = [ends(F, G, *part, 1.0) for F, G, part in zip(f.F, f.G, parts)]
        u = [-(W @ ends(J, P, *part, -1.0)) for W, J, P, part
             in zip(f.W, (f.J[:-1], f.J[1:]), (f.P[:-1], f.P[1:]), parts)]
        slope = (u[1] - u[0]) / np.diff(self.grid)[:, None, None]
        fields = (x[:-1], x[1:], *d), (*u, slope, slope)
        if all(v.ndim == 1 for v in values):
            fields = tuple(tuple(a[..., 0] for a in arrays) for arrays in fields)
        return ControlledTrajectory(*(DenseSolution(self.grid, *arrays) for arrays in fields))

    # -- sections -----------------------------------------------------------

    def _nodes(self, times) -> np.ndarray:
        """The grid indices of `times` (a time or an array of them), by one
        nearest-node lookup.  Every time must be a node: raises
        HorizonMismatchError outside the horizon and ValueError at any other
        time that is not a node (construct the operator with it in
        `extra_nodes`)."""
        p, grid = self.problem, self.grid
        ts = _clip_to_span(np.atleast_1d(np.asarray(times, dtype=float)), p.t0, p.T,
                           HorizonMismatchError)
        j = np.clip(np.searchsorted(grid, ts), 1, grid.size - 1)
        j -= ts - grid[j - 1] <= grid[j] - ts
        off = np.abs(grid[j] - ts) > _time_tol(p.t0, p.T)
        if off.any():
            raise ValueError(f"time {float(ts[off][0])} is not a grid node; "
                             "pass it in extra_nodes")
        return j

    def _carried(self, t: float, rows: np.ndarray) -> np.ndarray:
        """K(s, t) at the increasing node indices `rows`: K(t, t) =
        (J(t) + P(t))^{-1} carried from the grid node t along G to the left
        and along F to the right, to those nodes alone; bit for bit the node
        values of the identity family `kernel_trajectory(op, [(t, I)]).x`."""
        f = self._flows
        j = self._nodes(t)[0]
        V = np.linalg.inv(f.J[j] + f.P[j])
        mid = [V[None]] if j in rows else []
        return np.concatenate([f.carry(j, V, False, rows[rows < j]), *mid,
                               f.carry(j, V, True, rows[rows > j])])


def shooting_diagonal(problem: LQProblem, t: float,
                      steps: int = DEFAULT_STEPS) -> np.ndarray:
    """K(t, t) by single shooting, a route that solves no Riccati equation.

    [K; -Pi] runs the Hamiltonian flow [[A, -S], [-Q, -A']] from
    [K(t0, t); 0], its -Pi rows jump by +I at s = t, and
    J_T K(T) + Pi(T) = 0; the carrier [I; 0] swept forward to t and
    widened by [0; I] there gives the shooting system for K(t0, t)
    (`_shooting_solve`).  At t = t0 the carrier is the identity, and this is
    `restarted_diagonals` at one time.  The test suite compares it with the
    Riccati routes.  Loses accuracy on long unstable horizons; raises
    BvpDegenerateError when the shooting system is numerically singular.
    """
    p = problem
    n = p.state_dim
    grid = build_grid(p.t0, p.T, steps, np.append(p.breakpoints(), t))
    H_tab, _ = _hamiltonian_table(p, grid)
    j = int(np.argmin(np.abs(grid - t)))
    W = np.eye(2 * n)
    W[:, :n] = _affine_sweep(grid[:j + 1], tuple(H[:j] for H in H_tab), np.eye(2 * n, n))[-1]
    WT = _affine_sweep(grid[j:], tuple(H[j:] for H in H_tab), W)[-1]
    return W[:n] @ np.vstack([_shooting_solve(p, WT, t), np.eye(n)])


def restarted_diagonals(problem: LQProblem, times,
                        steps: int = DEFAULT_STEPS) -> np.ndarray:
    """K_t(t, t) of the space restarted at each of `times` (in [t0, T]), by
    single shooting, as a (k, N, N) array: a route that solves no Riccati
    equation.

    Restarted at t, the column time is the start, so the shooting system
    of `shooting_diagonal` needs only the flow Phi(T, t) of H.  One forward
    sweep on build_grid(t0, T, steps, breakpoints and `times`), the grid of
    `KernelOperator(problem, steps)` when the times are its nodes, carries
    them all: from the first time node on, segment by segment, a fresh 2N
    identity carrier joins as 2N more columns at each time node, and the
    carriers of earlier times ride along to T.  Keep it forward: a backward
    sweep of the rows [J_T, -I] Phi(T, s) is J's own flow, so a check of
    J K = I would pass by construction.  Raises BvpDegenerateError, naming
    the column time, when a shooting system is numerically singular.
    """
    p = problem
    n = p.state_dim
    ts = _clip_to_span(np.atleast_1d(np.asarray(times, dtype=float)), p.t0, p.T,
                       HorizonMismatchError)
    grid = build_grid(p.t0, p.T, steps, np.concatenate([p.breakpoints(), ts]))
    H_tab, _ = _hamiltonian_table(p, grid)
    nodes, back = np.unique(np.argmin(np.abs(grid[:, None] - ts), axis=0),
                            return_inverse=True)
    carrier = np.zeros((2 * n, 0))
    for k, k_next in zip(nodes, [*nodes[1:], grid.size - 1]):
        carrier = np.hstack([carrier, np.eye(2 * n)])
        carrier = _affine_sweep(grid[k:k_next + 1], tuple(H[k:k_next] for H in H_tab),
                                carrier)[-1]
    return np.stack([_shooting_solve(p, WT, float(grid[k]))
                     for WT, k in zip(np.hsplit(carrier, nodes.size), nodes)])[back]


def _shooting_solve(problem: LQProblem, WT: np.ndarray, t: float) -> np.ndarray:
    """The shooting system for K(t0, t): with WT the carrier at T,
    E = J_T WT11 - WT21 and rhs = WT22 - J_T WT12, solved for E^{-1} rhs.
    Raises BvpDegenerateError, naming the column time t, when E is
    numerically singular."""
    n = problem.state_dim
    J_T = np.asarray(problem.J_T)
    E = J_T @ WT[:n, :n] - WT[n:, :n]
    rhs = WT[n:, n:] - J_T @ WT[:n, n:]
    sv = np.linalg.svd(E, compute_uv=False)
    if sv[-1] <= _SHOOTING_RCOND * sv[0]:
        raise BvpDegenerateError(
            f"shooting system singular for column time {t} "
            f"(singular values {sv[0]:.3e} .. {sv[-1]:.3e})")
    return np.linalg.solve(E, rhs)


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
    operator's grid, as a controlled trajectory on that grid: the
    `KernelOperator.trajectory` of the values K(t_i, t_i) p_i =
    (J(t_i) + P(t_i))^{-1} p_i.  A family of b covectors (N x b) gives a
    family of b trajectories; the identity family (p = I) is the whole
    section K(., t)."""
    f = operator._flows
    at = operator._nodes([t for t, _ in covectors])
    return operator.trajectory([(t, np.linalg.solve(f.J[j] + f.P[j], np.asarray(p, dtype=float)))
                                for (t, p), j in zip(covectors, at)])


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
