"""Differential Riccati equation, its dual, and the adjoint.

The value Hessian J(., T) solves, backward from J(T) = J_T,

    -dJ/dt = A'J + JA - J B R^{-1} B' J + Q,

and its inverse M(., T) solves the dual equation, backward from J_T^{-1},

    dM/dt = A M + M A' - B R^{-1} B' + M Q M.

J is read off the linear Hamiltonian flow (Davison & Maki, IEEE TAC 1973):
with S = B R^{-1} B', the pair [X; Y]' = [[A, -S], [-Q, -A']] [X; Y] runs
backward by RK4 steps (`ode._affine_sweep`) and J = Y X^{-1} at every node.
The flow restarts from [I; J_k] after every block of intervals over which
it can grow by at most e^4, before the fastest modes swamp the columns of
[X; Y].  The same routine, run forward on the same table from [I; 0], gives
the arrival cost P(., t0) = -Y X^{-1}, which solves P' = Q - A'P - PA - PSP
from P(t0) = 0 (diag(I, -I) conjugates the Hamiltonian into the P flow
[[A, S], [Q, -A']]).  One builder, `_hamiltonian_table`, fills H one
schedule at a time from their stage tables (each evaluated, and R inverted,
once per node).  `KernelOperator` (kernel.py) builds it once per grid and
holds it: it is the only table of A, S and Q behind J, P, M, every kernel
trajectory and the shooting sweep.  One builder, `_solve_flows`, runs both
flows on it and returns J and P at the nodes and the X blocks of their
flows as one `_Flows` value.  J's node derivatives are read only through
its `DenseSolution` (`_riccati_solution`, built when first asked for), with
A, -S and -Q as views of H.
The kernel reads its sections off the X blocks of both flows, and every
control off the costate J x or -P x through W.  M is the same ratio on H
with its blocks swapped, [[-A', -Q], [-S, A]], whose Y X^{-1} solves the
dual equation, run backward from [I; J_T^{-1}] by the same restarted
routine (`_dual_riccati_on`), but with the (2,2) Pade map of a fourth-order
Magnus step in place of RK4 (`ode._pade_maps`; A-stable, so a stiff step
that overflows RK4 stays bounded).  The swapped table is H conjugated by
the block swap, so RK4 on it would give M = J^{-1} up to restart roundoff;
with the Pade step, J M = I compares two routes that share the stage table
but no step map.  The sweep swaps H one block of intervals at a time, so
no swapped copy of the whole table exists, and M's node derivatives read
A, -S and -Q as views of H.  J, P and M are re-symmetrized at every node;
the worst asymmetry absorbed by that projection is reported as a
diagnostic.

The pair belongs to `KernelOperator(problem, steps)` (kernel.py): its J
and P nodes are the flows it shares with the kernel sections, its `J` the
dense J built from them on first read, and its `M`, the kernel diagonal,
is solved on the operator's grid and table when first read; this module
holds the flows they are read from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PositivityLostError
from .linalg import _symmetrized, spd_inverse
from .model import LQProblem
from .ode import (_AFFINE_BLOCK, DenseSolution, _affine_sweep, _blowup, _pade_maps,
                  _read_only, _rk4_maps, rk4_affine, schedule_stage_table)

# Bound on the log-growth of the Hamiltonian flow between restarts.  Within
# a block the columns of [X; Y] drift toward its fastest-growing modes, and X
# loses accuracy as fast as those modes outgrow the slow ones; a block spans
# as many intervals as keep sum h |H|_inf under this bound.  On A = [[a, 1],
# [0, 0]] over [0, 10] at 4000 steps, fixed blocks of 64 intervals put J off
# the direct Riccati flow by 1e-8 relative at a = 100 and turned a = 200 into
# a false loss of positivity; with this bound J stays within 8e-13 up to
# a = 400.
_REANCHOR_LOG_GROWTH = 4.0


def _hamiltonian_table(problem: LQProblem, grid: np.ndarray):
    """(H_tab, W): the stage tables of H = [[A, -S], [-Q, -A']] over `grid`,
    S = B R^{-1} B', and the control map W = R^{-1} B' (u = -W lambda) at
    the (lo, hi) slots, read-only.  The three slots of H are filled one
    schedule at a time from `schedule_stage_table` (every schedule evaluated
    once per node, a pwc one once per midpoint, and R inverted once per
    evaluation): A and -A', then -Q, then -S and W from B and R^{-1}, so
    beside H only the tables of one of these steps are alive."""
    n = problem.state_dim
    H_tab = tuple(np.empty((grid.size - 1, 2 * n, 2 * n)) for _ in range(3))
    for H, A in zip(H_tab, schedule_stage_table(problem.A, grid)):
        H[:, :n, :n] = A
        np.negative(np.swapaxes(A, 1, 2), out=H[:, n:, n:])
    for H, Q in zip(H_tab, schedule_stage_table(problem.Q, grid)):
        np.negative(Q, out=H[:, n:, :n])
    del A, Q  # their node arrays, held by the hi views
    B_tab = schedule_stage_table(problem.B, grid)
    R_inv_tab = schedule_stage_table(problem.R, grid, np.linalg.inv)
    W = []
    for slot, H in enumerate(H_tab):
        B, R_inv = B_tab[slot], R_inv_tab[slot]
        BT = np.swapaxes(B, 1, 2)
        np.negative(B @ R_inv @ BT, out=H[:, :n, n:])
        if slot != 1:
            W.append(_read_only(R_inv @ BT))
    return H_tab, tuple(W)


def _reanchor_block(grid: np.ndarray, H_mid: np.ndarray) -> int:
    """Intervals per block of `_reanchored_flow`: the most that keep
    sum h |H|_inf, H at the interval midpoints, under
    `_REANCHOR_LOG_GROWTH`.  |H| is summed a chunk of intervals at a time,
    so no temporary of H's size is built."""
    n_int = grid.size - 1
    h = np.diff(grid)
    rate = float(np.max([
        np.max(h[k:k + _AFFINE_BLOCK]
               * np.abs(H_mid[k:k + _AFFINE_BLOCK]).sum(axis=2).max(axis=1))
        for k in range(0, n_int, _AFFINE_BLOCK)]))
    return n_int if rate * n_int <= _REANCHOR_LOG_GROWTH else max(
        1, int(_REANCHOR_LOG_GROWTH / rate))


def _check_positive(times: np.ndarray, R: np.ndarray, what: str) -> None:
    """Raise PositivityLostError unless every (symmetric) node R[k] is
    positive definite, IntegrationBlowupError at a non-finite node.  One
    batched Cholesky factorization clears the nodes; only when it fails are
    the eigenvalues computed, to name the node.  Cholesky does not flag NaN,
    so non-finite nodes are looked for first."""
    finite = np.isfinite(R).reshape(R.shape[0], -1).all(axis=1)
    if finite.all():
        try:
            np.linalg.cholesky(R)
            return
        except np.linalg.LinAlgError:
            pass
    min_eig = np.full(R.shape[0], np.nan)
    min_eig[finite] = np.linalg.eigvalsh(R[finite])[:, 0]
    bad = np.flatnonzero(~(min_eig > 0.0))
    if bad.size:
        # backward integration meets the largest offending time first
        k = bad[-1]
        if not finite[k]:
            raise _blowup(times[k])
        t_bad = float(times[k])
        raise PositivityLostError(
            f"{what} lost positive definiteness at t={t_bad} "
            f"(min eigenvalue {min_eig[k]:.3e})", time=t_bad)


def _ratio_from_flow(times: np.ndarray, Z: np.ndarray, n: int,
                     backward: bool) -> np.ndarray:
    """Y X^{-1} at each node of a flow Z = [X; Y]; raises at the first node,
    in integration order, where X is singular or the ratio is non-finite."""
    XT, YT = np.swapaxes(Z[:, :n], 1, 2), np.swapaxes(Z[:, n:], 1, 2)
    order = range(times.size - 1, -1, -1) if backward else range(times.size)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            R = np.swapaxes(np.linalg.solve(XT, YT), 1, 2)
        except np.linalg.LinAlgError:
            for k in order:
                try:
                    np.linalg.solve(XT[k], YT[k])
                except np.linalg.LinAlgError:
                    raise _blowup(times[k]) from None
            raise
    bad = np.flatnonzero(~np.isfinite(R).reshape(R.shape[0], -1).all(axis=1))
    if bad.size:
        raise _blowup(times[bad[-1] if backward else bad[0]])
    return R


def _reanchored_flow(grid: np.ndarray, H_tab, R0: np.ndarray, block: int,
                     backward: bool = False, step=_rk4_maps, swap: bool = False):
    """The Hamiltonian flow Z = [X; Y] read as R = Y X^{-1}, restarted.

    Z' = H Z runs by the step maps of `step`, on H block-swapped if `swap`
    (see `ode._affine_sweep`), from
    [I; R0] at grid[0] (grid[-1] if backward) and restarts from [I; R_k]
    after every `block` intervals (`_reanchor_block`).  Returns (R, X,
    drift): R and X at every node, and the worst asymmetry that
    symmetrizing R absorbed.  Block i
    spans nodes i*block to (i+1)*block and is anchored at its end if
    backward, at its start if not; X at a node is the propagator of A - S R
    from the anchor of the block that holds the node past its anchor (X = I
    at the first anchor).
    """
    n = R0.shape[0]
    eye = np.eye(n)
    n_int = grid.size - 1
    R = np.empty((grid.size, n, n))
    X = np.empty((grid.size, n, n))
    R[-1 if backward else 0] = R0
    X[-1 if backward else 0] = eye
    starts = range(0, n_int, block)
    drift = 0.0
    for k0 in (reversed(starts) if backward else starts):
        k1 = min(k0 + block, n_int)
        Z = _affine_sweep(grid[k0:k1 + 1], tuple(H[k0:k1] for H in H_tab),
                          np.vstack([eye, R[k1 if backward else k0]]),
                          backward=backward, step=step, swap=swap)
        inner, Z = (slice(k0, k1), Z[:-1]) if backward else (slice(k0 + 1, k1 + 1), Z[1:])
        R[inner], d = _symmetrized(_ratio_from_flow(grid[inner], Z, n, backward))
        drift = max(drift, d)
        X[inner] = Z[:, :n]
    return R, X, drift


@dataclass(frozen=True)
class _Flows:
    """The J and P flows on a grid: J and P at the nodes, the asymmetry the
    symmetrization of J absorbed, and the X blocks of both flows, restarted
    every `block` intervals (see `_reanchored_flow`)."""

    drift_J: float
    J: np.ndarray
    P: np.ndarray
    X_J: np.ndarray
    X_P: np.ndarray
    block: int

    def carry(self, k: int, value: np.ndarray, right: bool, nodes) -> np.ndarray:
        """K at `nodes` (a slice or increasing node indices, on the walk from
        node k: k..end along F if right, 0..k along G if not), from its
        value at node k: one solve where the walk enters a block, up to the
        farthest node asked for, and one product per node."""
        X = self.X_J if right else self.X_P
        end = X.shape[0] - 1 if right else 0
        at = np.arange(X.shape[0])[nodes]
        if at.size == 0:
            return np.empty((0,) + value.shape)
        walk = np.arange(k, at[-1] + 1) if right else np.arange(k, at[0] - 1, -1)
        enter = (walk % self.block == 0) & (walk != k) & (walk != end)
        carries = [np.linalg.solve(X[k], value)]  # K at the block anchors
        for c in walk[enter]:
            carries.append(np.linalg.solve(X[c], carries[-1]))
        out = X[nodes] @ np.stack(carries)[np.cumsum(enter)[np.abs(at - k)]]
        out[at == k] = value
        return out


def _solve_flows(problem: LQProblem, grid: np.ndarray, H_tab) -> _Flows:
    """The J and P flows on `grid` through its Hamiltonian table `H_tab`
    (`_hamiltonian_table`): J backward from J(T) = J_T, then P forward from
    P(t0) = 0 (the flow runs on -P).  Raises IntegrationBlowupError at the
    first node met where X is singular or a ratio non-finite,
    PositivityLostError (before P runs) where J is not positive definite."""
    n = problem.state_dim
    block = _reanchor_block(grid, H_tab[1])
    J, X_J, drift = _reanchored_flow(grid, H_tab, problem.J_T, block, backward=True)
    _check_positive(grid, J, "J")
    minus_P, X_P, _ = _reanchored_flow(grid, H_tab, np.zeros((n, n)), block)
    P = np.negative(minus_P, out=minus_P)
    return _Flows(drift, J, P, X_J, X_P, block)


def _riccati_solution(grid: np.ndarray, H_tab, J: np.ndarray) -> DenseSolution:
    """J at the nodes of `grid` as a `DenseSolution`, with the Riccati
    right-hand side J S J - A'J - J A - Q as its node derivatives, A, -S and
    -Q read off the lo and hi slots of `H_tab`."""
    n = J.shape[1]

    def rhs(H, Jk):
        A, minus_S = H[:, :n, :n], H[:, :n, n:]
        return -(Jk @ minus_S @ Jk) - np.swapaxes(A, 1, 2) @ Jk - Jk @ A + H[:, n:, :n]

    return DenseSolution(grid, J[:-1], J[1:], rhs(H_tab[0], J[:-1]), rhs(H_tab[2], J[1:]))


def _dual_riccati_on(problem: LQProblem, grid: np.ndarray,
                     H_tab) -> tuple[DenseSolution, float]:
    """M on `grid`, backward from M(T) = J_T^{-1}, as Y X^{-1} of the
    restarted flow of [[-A', -Q], [-S, A]] under Magnus-Pade steps,
    symmetrized at the nodes.  `H_tab` is the grid's Hamiltonian table
    (`_hamiltonian_table`); the sweep swaps its blocks one block of
    intervals at a time, and the node derivatives read A, -S and -Q off
    its lo and hi slots.  Returns (M,
    drift), the worst asymmetry absorbed.  Raises IntegrationBlowupError at
    the first node met where X is singular or M non-finite,
    PositivityLostError where M is not positive definite."""
    n = problem.state_dim
    M, X, drift = _reanchored_flow(grid, H_tab, spd_inverse(problem.J_T),
                                   _reanchor_block(grid, H_tab[1]), backward=True,
                                   step=_pade_maps, swap=True)
    del X  # M is read as a ratio only
    _check_positive(grid, M, "M")

    def dual_stage(H, Mk):
        """The dual right-hand side A M + M A' - S + M Q M, written as
        L M + (L M)' - S with L = A + M Q/2, off a slot of H."""
        LM = (H[:, :n, :n] - 0.5 * (Mk @ H[:, n:, :n])) @ Mk
        return LM + LM.swapaxes(-1, -2) + H[:, :n, n:]

    sol = DenseSolution(grid, M[:-1], M[1:], dual_stage(H_tab[0], M[:-1]),
                        dual_stage(H_tab[2], M[1:]))
    return sol, drift


def solve_adjoint(problem: LQProblem, xbar: DenseSolution) -> DenseSolution:
    """Integrate the adjoint p' = -A' p + Q xbar backward from -J_T xbar(T)
    on xbar's own grid, which must span the horizon: the lo and hi stage
    slots of xbar are its stored node values, the mid slot its Hermite
    interpolant."""
    problem._check_horizon(xbar)
    grid = xbar.times
    H_tab = tuple(-np.swapaxes(a, 1, 2) for a in schedule_stage_table(problem.A, grid))
    Q_tab = schedule_stage_table(problem.Q, grid)
    x_tab = (xbar.v_start, xbar.eval_many(0.5 * (grid[:-1] + grid[1:])), xbar.v_end)
    F_tab = tuple(np.einsum("kij,kj->ki", Q, x) for Q, x in zip(Q_tab, x_tab))
    p_T = -np.asarray(problem.J_T) @ xbar.v_end[-1]
    return rk4_affine(grid, H_tab, p_T, F_tab, backward=True)
