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
  on the operator's grid and table, which solves no Riccati equation);
* sections K(., t), two-filter style (Fraser & Potter, IEEE TAC 1969): with
  the backward value Hessian J and the forward arrival cost P (P(t0) = 0),
  K(t, t) = (J(t) + P(t))^{-1}; for s >= t, K(s, t) is K(t, t) carried
  forward by the closed loop A - S J, and for s <= t, carried backward by
  A + S P (S = B R^{-1} B').  Both carriers are the X blocks of the
  re-anchored Hamiltonian flows of J and P (`riccati._Flow.carry`), solved
  once per operator on the one Hamiltonian table it holds.  Column times t
  and the read times s of `entry` and `entries` are nodes of the
  operator's grid (`extra_nodes` puts them there); a section read anywhere
  is the identity family of `kernel_trajectory`, evaluated there.  One
  builder, `KernelOperator.trajectory`, makes every trajectory: a sum of terms
  K(., t_i) K(t_i, t_i)^{-1} v_i, carried once forward along A - S J and
  once backward along A + S P, whatever the number of terms; the kernel
  and feedback solves are its one-term sums at t0.  Read at a few nodes
  only (`entry`, `entries`, and the Gram matrix through them), K(t, t) is
  carried to those nodes and no further, with one product per node
  (`_carried`).  No section is cached.

The inner product, the reproducing residual and `problems.rollout` take
families of trajectories with a trailing column axis, so `verify` runs its
random trajectories as one rollout and checks them all, whatever their
column times, against one section family by one quadrature.

`KernelOperator.trajectory` reads the costate lambda (J x for the part
carried from the left, -P x for the part carried from the right) once per
interval end, and from it both the control u = -W lambda and the
derivative x' = A x - S lambda.  K keeps both one-sided derivatives at the
column time, where they differ by S(t), and the control of K(., t) p jumps
there too.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property

import numpy as np

from .errors import BvpDegenerateError, HorizonMismatchError
from .linalg import _symmetrized, spd_inverse
from .model import ControlledTrajectory, LQProblem
from .ode import (DEFAULT_STEPS, DenseSolution, _affine_sweep, _clip_to_span, _time_tol,
                  build_grid, schedule_stage_table)
from .riccati import (_check_positive, _Flow, _hamiltonian_table, _reanchor_block,
                      _reanchored_flow, _riccati_solution)

DEFAULT_QUAD_INTERVALS = 2000

_SHOOTING_RCOND = 1e-12


class KernelOperator:
    """The Riccati pair and kernel of one problem: J, M, diagonal,
    trajectories, entries, Grams.

    Construction fixes the integration grid (`steps` uniform intervals plus
    schedule breakpoints and any `extra_nodes`).  Every column time, and
    every read time of `entry` and `entries`, must be a node of it, so a
    caller that reads K at chosen times passes them in `extra_nodes`; an
    off-grid time raises ValueError.  Computed lazily and cached: the
    Hamiltonian table of the grid (once, by `_hamiltonian_table`), the
    restart block of the flows on it and the h rho(H) they check (once, by
    `_reanchor_block`), and, each when first read, the J, P and M flows
    (`_reanchored_flow`) and J's node derivatives (no solve reads them).
    The sections and trajectories read J and P, the diagonal M
    (`solve_kernel` reads K(t0, t0) = M(t0); `solve_feedback` and the
    shooting routes never solve M, and `riccati` never solves P).  Every
    trajectory is built by `trajectory`, and every kernel entry read by
    `_carried` from `_solve_diagonal`; both carry values over the carriers
    of the J and P flows.  The operator is logically immutable and
    evaluations are pure.
    """

    def __init__(self, problem: LQProblem, steps: int = DEFAULT_STEPS,
                 extra_nodes=()):
        self.problem = problem
        snap = np.concatenate([problem.breakpoints(),
                               np.asarray(extra_nodes, dtype=float)])
        self.grid = build_grid(problem.t0, problem.T, int(steps), snap)

    # -- the Riccati pair and its flows -------------------------------------

    @cached_property
    def _hamiltonian(self):
        """(H_tab, W) of `_hamiltonian_table` on the grid: the one table of
        A, S and Q behind the flows, M, every trajectory and the shooting
        sweep, built once and held for the operator's life."""
        return _hamiltonian_table(self.problem, self.grid)

    @cached_property
    def _restarts(self) -> tuple[int, np.ndarray]:
        """(block, spans) of `_reanchor_block`, shared by the J, P and M flows."""
        return _reanchor_block(self.grid, self._hamiltonian[0][1])

    def _flow(self, R0: np.ndarray, backward: bool, dual: bool = False) -> _Flow:
        return _reanchored_flow(self.grid, self._hamiltonian[0], R0, self._restarts,
                                backward, dual)

    @cached_property
    def _J_flow(self) -> _Flow:
        """J backward from J_T; PositivityLostError where not positive definite."""
        flow = self._flow(self.problem.J_T, True)
        _check_positive(self.grid, flow.R, "J")
        return flow

    @cached_property
    def _P_flow(self) -> _Flow:
        """P forward from 0, after J (a failure of J is the one reported);
        the flow runs on -P, and its R is negated in place."""
        self._J_flow
        n = self.problem.state_dim
        flow = self._flow(np.zeros((n, n)), False)
        np.negative(flow.R, out=flow.R)
        return flow

    @cached_property
    def _M_flow(self) -> _Flow:
        """M backward from J_T^{-1}, without its carrier (M is read as a
        ratio only); PositivityLostError where not positive definite."""
        flow = replace(self._flow(spd_inverse(self.problem.J_T), True, True), carrier=None)
        _check_positive(self.grid, flow.R, "M")
        return flow

    @cached_property
    def J(self) -> DenseSolution:
        """The value Hessian J(., T) on the grid, with its node derivatives
        (built on first read; `J_nodes` reads the nodes without them)."""
        return _riccati_solution(self.grid, self._hamiltonian[0], self._J_flow.R, dual=False)

    @property
    def J_nodes(self) -> np.ndarray:
        """J at every grid node, bit for bit the node values of `J`."""
        return self._J_flow.R

    @cached_property
    def M(self) -> DenseSolution:
        """The dual Riccati solution M(., T) on the grid, solved on first read."""
        return _riccati_solution(self.grid, self._hamiltonian[0], self._M_flow.R, dual=True)

    @property
    def max_asymmetry_J(self) -> float:
        return self._J_flow.drift

    @property
    def max_asymmetry_M(self) -> float:
        return self._M_flow.drift

    def duality_defects(self) -> np.ndarray:
        """Frobenius norm of J(t)M(t) - I at every grid node."""
        eye = np.eye(self.problem.state_dim)
        return np.linalg.norm(self.J_nodes @ self.M.values - eye, axis=(1, 2))

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
        return self._carried(self._nodes(t)[0], self._nodes(s))[0]

    def entries(self, times) -> np.ndarray:
        """K(t_i, t_j) for every pair of `times`, all grid nodes, as a
        (k, k, N, N) array, bit for bit `entry(t_i, t_j)`.  The times are
        mapped to nodes once, and column j carries K(t_j, t_j) only to the
        nodes the times name; no section is built."""
        cols = self._nodes(times)
        rows, back = np.unique(cols, return_inverse=True)
        return np.stack([self._carried(j, rows)[back] for j in cols], axis=1)

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
        the part carried from the right bwd - V and bwd.  At both ends of
        every interval the costate is lambda = J (left part) - P (right
        part), the control u = -W lambda, W = R^{-1} B' (the chord in
        between), and x' = A x - S lambda, with A and -S read off the lo
        and hi slots of the operator's H.  As B u = -S lambda = x' - A x and
        u is in the range of W, u is the minimal-R-norm control of x.  It
        jumps by -W (J + P) v_i at t_i, where it is stored two-sidedly."""
        F, G, size, n = self._J_flow, self._P_flow, self.grid.size, self.problem.state_dim
        values = [np.asarray(v, dtype=float) for _, v in terms]
        at = self._nodes([t for t, _ in terms])
        stops, slot = np.unique(at, return_inverse=True)
        # V at the term nodes alone: it is zero at every other node
        V = np.zeros((stops.size, n, max(v.size // n for v in values)))
        for i, v in zip(slot, values):
            V[i] += v.reshape(n, -1)
        fwd = np.zeros((size,) + V.shape[1:])
        bwd = np.zeros_like(fwd)
        for k, k_next, v in zip(stops, [*stops[1:], size - 1], V):
            fwd[k] += v
            fwd[k + 1:k_next + 1] = F.carry(k, fwd[k], slice(k + 1, k_next + 1))
        for k, k_prev, v in zip(stops[::-1], [*stops[-2::-1], 0], V[::-1]):
            bwd[k] += v
            bwd[k_prev:k] = G.carry(k, bwd[k], slice(k_prev, k))
        # lambda = J (left part) - P (right part), each product taken only
        # where its part is carried: fwd from the first term node on, bwd up
        # to the last.  Off the term nodes the parts are fwd and bwd, at both
        # ends; at a term node the left part ends with fwd - V (the hi end of
        # the interval before) and the right part starts with bwd - V (the
        # lo end of the interval after), so those rows are formed apart.
        lo, hi = stops[0], stops[-1]
        lam = np.zeros_like(fwd)
        np.matmul(F.R[lo:], fwd[lo:], out=lam[lo:])
        lam[:hi + 1] -= G.R[:hi + 1] @ bwd[:hi + 1]
        J, P, ahead, behind = F.R[stops], G.R[stops], fwd[stops], bwd[stops]
        lam_lo = lam[:-1].copy()
        opens = stops < size - 1  # the term nodes that start an interval
        lam_lo[stops[opens]] = (J @ ahead - P @ (behind - V))[opens]
        lam[stops] = J @ (ahead - V) - P @ behind
        x = np.add(fwd, bwd, out=fwd)
        x[stops] -= V
        del bwd
        (H_lo, _, H_hi), W = self._hamiltonian

        def end(H, xe, le, We):
            """x' = A x - S lambda and u = -W lambda at one end of every
            interval, A and -S read off that end's slot of H."""
            d = H[:, :n, :n] @ xe
            d += H[:, :n, n:] @ le
            u = We @ le
            return d, np.negative(u, out=u)

        d_lo, u_lo = end(H_lo, x[:-1], lam_lo, W[0])
        del lam_lo
        d_hi, u_hi = end(H_hi, x[1:], lam[1:], W[1])
        del lam
        slope = (u_hi - u_lo) / np.diff(self.grid)[:, None, None]
        fields = (x[:-1], x[1:], d_lo, d_hi), (u_lo, u_hi, slope, slope)
        if all(v.ndim == 1 for v in values):
            fields = tuple(tuple(a[..., 0] for a in arrays) for arrays in fields)
        return ControlledTrajectory(*(DenseSolution(self.grid, *arrays) for arrays in fields))

    # -- sections -----------------------------------------------------------

    def nearest_nodes(self, times) -> np.ndarray:
        """The grid indices of the nodes nearest to `times` (a time or an
        array of them; the earlier node on a tie), by one sorted lookup.
        Raises HorizonMismatchError for a time outside the horizon."""
        p, grid = self.problem, self.grid
        ts = _clip_to_span(np.atleast_1d(np.asarray(times, dtype=float)), p.t0, p.T,
                           HorizonMismatchError)
        j = np.clip(np.searchsorted(grid, ts), 1, grid.size - 1)
        j -= ts - grid[j - 1] <= grid[j] - ts
        return j

    def _nodes(self, times) -> np.ndarray:
        """The grid indices of `times`, every one a node: as `nearest_nodes`,
        and raises ValueError at a time that is not a node (construct the
        operator with it in `extra_nodes`)."""
        j = self.nearest_nodes(times)
        ts = np.atleast_1d(np.asarray(times, dtype=float))
        off = np.abs(self.grid[j] - ts) > _time_tol(self.problem.t0, self.problem.T)
        if off.any():
            raise ValueError(f"time {float(ts[off][0])} is not a grid node; "
                             "pass it in extra_nodes")
        return j

    def _solve_diagonal(self, j: int, values: np.ndarray) -> np.ndarray:
        """K(t, t) values = (J(t) + P(t))^{-1} values at the node of index j."""
        return np.linalg.solve(self._J_flow.R[j] + self._P_flow.R[j], values)

    def _carried(self, j: int, rows: np.ndarray) -> np.ndarray:
        """K(s, t) at the increasing node indices `rows` for the node t of
        index j: K(t, t) carried along G to the left and along F to the
        right, to those nodes alone; bit for bit the node values of the
        identity family `kernel_trajectory(op, [(t, I)]).x`."""
        V = self._solve_diagonal(j, np.eye(self.problem.state_dim))
        mid = [V[None]] if j in rows else []
        return np.concatenate([self._P_flow.carry(j, V, rows[rows < j]), *mid,
                               self._J_flow.carry(j, V, rows[rows > j])])


def shooting_diagonal(operator: KernelOperator, t: float) -> np.ndarray:
    """K(t, t) at a node t of the operator's grid by single shooting, a
    route that solves no Riccati equation.

    [K; -Pi] runs the Hamiltonian flow [[A, -S], [-Q, -A']] from
    [K(t0, t); 0], its -Pi rows jump by +I at s = t, and
    J_T K(T) + Pi(T) = 0; the carrier [I; 0] swept forward to t on the
    operator's grid and table and widened by [0; I] there gives the
    shooting system for K(t0, t) (`_shooting_solve`).  At t = t0 the
    carrier is the identity: `restarted_diagonals` at one time.  Loses
    accuracy on long unstable horizons.  Raises HorizonMismatchError or
    ValueError for a time outside the horizon or off the grid, and
    BvpDegenerateError when the shooting system is numerically singular.
    """
    p, grid = operator.problem, operator.grid
    n = p.state_dim
    j = operator._nodes(t)[0]
    H_tab = operator._hamiltonian[0]
    W = np.eye(2 * n)
    W[:, :n] = _affine_sweep(grid[:j + 1], tuple(H[:j] for H in H_tab), np.eye(2 * n, n))[-1]
    WT = _affine_sweep(grid[j:], tuple(H[j:] for H in H_tab), W)[-1]
    return W[:n] @ np.vstack([_shooting_solve(p, WT, t), np.eye(n)])


def restarted_diagonals(operator: KernelOperator, times) -> np.ndarray:
    """K_t(t, t) of the space restarted at each of `times`, nodes of the
    operator's grid, by single shooting, as a (k, N, N) array: a route that
    solves no Riccati equation.

    Restarted at t, the column time is the start, so the shooting system
    of `shooting_diagonal` needs only the flow Phi(T, t) of H.  One forward
    sweep of the operator's grid and Hamiltonian table carries them all:
    from the first time node on, segment by segment, a fresh 2N identity
    carrier joins as 2N more columns at each time node, and the carriers of
    earlier times ride along to T.  Keep it forward: a backward sweep of the
    rows [J_T, -I] Phi(T, s) is J's own flow, so a check of J K = I would
    pass by construction.  Raises HorizonMismatchError or ValueError for a
    time outside the horizon or off the grid (`KernelOperator._nodes`), and
    BvpDegenerateError, naming the column time, when a shooting system is
    numerically singular.
    """
    p, grid = operator.problem, operator.grid
    n = p.state_dim
    nodes, back = np.unique(operator._nodes(times), return_inverse=True)
    H_tab = operator._hamiltonian[0]
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

    def stage(field: str, schedule):
        """a' M b at every Simpson point for the `field` (x or u) a of traj1
        and b of traj2, M the stage table of `schedule`, and a and b at the
        last point; one field's values are alive at a time."""
        a = at_points(getattr(traj1, field))
        b = a if traj2 is traj1 else at_points(getattr(traj2, field))
        M = np.concatenate(schedule_stage_table(schedule, edges))
        return np.einsum("ki...,kij,kj...->k...", a, M, b), a[-1].copy(), b[-1].copy()

    x_stage, x1_T, x2_T = stage("x", problem.Q)
    u_stage = stage("u", problem.R)[0]
    terminal = _column_products(x1_T, x2_T, np.asarray(problem.J_T))
    return _per_column(terminal + _column_products(w, x_stage + u_stage))


def kernel_trajectory(operator: KernelOperator, covectors) -> ControlledTrajectory:
    """sum_i K(., t_i) p_i over (t_i, p_i) pairs, every t_i a node of the
    operator's grid, as a controlled trajectory on that grid: the
    `KernelOperator.trajectory` of the values K(t_i, t_i) p_i =
    (J(t_i) + P(t_i))^{-1} p_i.  A family of b covectors (N x b) gives a
    family of b trajectories; the identity family (p = I) is the whole
    section K(., t)."""
    at = operator._nodes([t for t, _ in covectors])
    return operator.trajectory([(t, operator._solve_diagonal(j, np.asarray(p, dtype=float)))
                                for (t, p), j in zip(covectors, at)])


def reproducing_residual(operator: KernelOperator, traj: ControlledTrajectory,
                         t, pvec: np.ndarray,
                         quad_intervals: int = DEFAULT_QUAD_INTERVALS) -> float | np.ndarray:
    """| p' x(t) - <x, K(., t) p> |, the defect of the reproducing property,
    at a grid node t.  For a family of b trajectories and b covectors
    (N x b), one defect per column, and t one time or one per column: one
    section family, with one term per distinct time that holds the columns
    at that time and zeros elsewhere, one quadrature, and x read at the
    column times by one evaluation."""
    pvec = np.asarray(pvec, dtype=float)
    ts = np.broadcast_to(np.asarray(t, dtype=float), pvec.shape[1:])
    section = kernel_trajectory(operator, [(s, np.where(ts == s, pvec, 0.0))
                                           for s in np.unique(ts)])
    x = traj.x.eval_many(ts.reshape(-1))
    # column c of the family at its own time ts[c]; a vector at its one time
    x = x[0] if pvec.ndim == 1 else x[np.arange(ts.size), :, np.arange(ts.size)].T
    lhs = _column_products(pvec, x)
    rhs = lq_inner_product(operator.problem, traj, section, quad_intervals)
    return _per_column(np.abs(lhs - rhs))
