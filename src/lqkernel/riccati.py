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
trajectory and the shooting sweep.  M is the other ratio of H's own flow,
X Y^{-1}, which solves the dual equation: run backward from [J_T^{-1}; I]
and restarted from [M_k; I], with the (2,2) Pade map of a fourth-order
Magnus step in place of RK4 (`ode._pade_maps`; A-stable, so a stiff step
that overflows RK4 stays bounded).  RK4 would give M = J^{-1} up to restart
roundoff; with the Pade step, J M = I compares two routes that share the
stage table but no step map.  One routine, `_reanchored_flow`, runs all
three flows; it refuses a step longer than its step map resolves
(`_STEP_BOUNDS`), and each run is one `_Flow`: the ratio and its carrier
(X, or Y for M) at every node, off which the kernel reads its sections.
`_riccati_solution` writes the node derivatives of J or M off views of H.
J, P and M are re-symmetrized at every node; the worst asymmetry absorbed
by that projection is reported as a diagnostic.

`KernelOperator(problem, steps)` (kernel.py) holds the three flows, each
solved when first read: J and M for the Riccati pair and the kernel
diagonal, J and P for the sections and every trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationBlowupError, PositivityLostError
from .linalg import _symmetrized
from .model import LQProblem
from .ode import (DenseSolution, _affine_sweep, _blowup, _pade_maps, _read_only, _rk4_maps,
                  _slab_length, rk4_affine, schedule_stage_table)

# Bound on the log-growth of the Hamiltonian flow between restarts.  Within
# a block the columns of [X; Y] drift toward its fastest-growing modes, and X
# loses accuracy as fast as those modes outgrow the slow ones; a block spans
# as many intervals as keep sum h |H|_inf under this bound.  On A = [[a, 1],
# [0, 0]] over [0, 10] at 4000 steps, fixed blocks of 64 intervals put J off
# the direct Riccati flow by 1e-8 relative at a = 100 and turned a = 200 into
# a false loss of positivity; with this bound J stays within 8e-13 up to
# a = 400.
_REANCHOR_LOG_GROWTH = 4.0

# The largest h rho(H) of one step that RK4 (J, P) and the Magnus-Pade step
# (M) resolve, indexed by `dual`: on x' = a x + u, Q = R = J_T = 1, 200 steps,
# J(t0) and M(t0) J_true stayed within 1e-12 of exact up to h a = 42 and 125.
_STEP_BOUNDS = (42.0, 125.0)


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


def _reanchor_block(grid: np.ndarray, H_mid: np.ndarray) -> tuple[int, np.ndarray]:
    """(block, spans) for `_reanchored_flow`: the most intervals per block
    that keep sum h |H|_inf, H at the interval midpoints, under
    `_REANCHOR_LOG_GROWTH`, and h rho(H) by batched eigenvalues where a
    finite h |H|_inf exceeds min(`_STEP_BOUNDS`) (0 elsewhere).  |H| is
    summed a slab of intervals at a time (`ode._slab_length`), so no
    temporary of H's size is built.  A NaN or inf rate restarts every
    interval, so the sweep's blow-up rule raises."""
    n_int = grid.size - 1
    h = np.diff(grid)
    slab = _slab_length(H_mid.shape[-1], 0)
    rates = np.concatenate([
        h[k:k + slab] * np.abs(H_mid[k:k + slab]).sum(axis=2).max(axis=1)
        for k in range(0, n_int, slab)])
    spans = np.zeros(n_int)
    flagged = (rates > min(_STEP_BOUNDS)) & np.isfinite(rates)
    spans[flagged] = h[flagged] * np.abs(np.linalg.eigvals(H_mid[flagged])).max(axis=1)
    rate = float(np.max(rates))
    if not np.isfinite(rate):
        return 1, spans
    return (n_int if rate * n_int <= _REANCHOR_LOG_GROWTH else max(
        1, int(_REANCHOR_LOG_GROWTH / rate))), spans


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


def _ratio_blocks(n: int, dual: bool) -> tuple[slice, slice]:
    """(numerator, denominator) rows of [X; Y]: Y, X for J; X, Y for M (`dual`)."""
    top, bottom = slice(None, n), slice(n, None)
    return (top, bottom) if dual else (bottom, top)


def _ratio_from_flow(times: np.ndarray, num: np.ndarray, den: np.ndarray,
                     backward: bool) -> np.ndarray:
    """num den^{-1} at each node of a flow; raises at the first node, in
    integration order, where den is singular or the ratio is non-finite."""
    denT, numT = np.swapaxes(den, 1, 2), np.swapaxes(num, 1, 2)
    order = range(times.size - 1, -1, -1) if backward else range(times.size)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            R = np.swapaxes(np.linalg.solve(denT, numT), 1, 2)
        except np.linalg.LinAlgError:
            for k in order:
                try:
                    np.linalg.solve(denT[k], numT[k])
                except np.linalg.LinAlgError:
                    raise _blowup(times[k]) from None
            raise
    bad = np.flatnonzero(~np.isfinite(R).reshape(R.shape[0], -1).all(axis=1))
    if bad.size:
        raise _blowup(times[bad[-1] if backward else bad[0]])
    return R


@dataclass(frozen=True)
class _Flow:
    """One run of `_reanchored_flow`: the ratio R and its carrier (the
    denominator block, X or Y) at every node, the worst asymmetry that
    symmetrizing R absorbed, the restart block, and the node the flow
    started from (the last if it ran backward, else 0)."""

    R: np.ndarray
    carrier: np.ndarray | None
    drift: float
    block: int
    start: int

    def carry(self, k: int, value: np.ndarray, nodes) -> np.ndarray:
        """`value` at node k carried by the carrier to `nodes` (a slice or
        increasing node indices on the walk from node k toward the start):
        one solve where the walk enters a block, up to the farthest node
        asked for, and one product per node.  On J's flow this carries
        K(t, t) along F = A - S J to the right of t, on P's along
        G = A + S P to the left."""
        X = self.carrier
        at = np.arange(X.shape[0])[nodes]
        if at.size == 0:
            return np.empty((0,) + value.shape)
        right = self.start > k
        walk = np.arange(k, at[-1] + 1) if right else np.arange(k, at[0] - 1, -1)
        enter = (walk % self.block == 0) & (walk != k) & (walk != self.start)
        carries = [np.linalg.solve(X[k], value)]  # the value at the block anchors
        for c in walk[enter]:
            carries.append(np.linalg.solve(X[c], carries[-1]))
        out = X[nodes] @ np.stack(carries)[np.cumsum(enter)[np.abs(at - k)]]
        out[at == k] = value
        return out


def _reanchored_flow(grid: np.ndarray, H_tab, R0: np.ndarray, restarts,
                     backward: bool = False, dual: bool = False) -> _Flow:
    """The Hamiltonian flow Z = [X; Y] read as R = Y X^{-1}, restarted.

    If `dual`, R is X Y^{-1} instead, and the step is the (2,2) Pade map of
    a Magnus step (`ode._pade_maps`) in place of RK4 (`ode._rk4_maps`).
    Z' = H Z runs from [I; R0] ([R0; I] if `dual`) at grid[0] (grid[-1] if
    backward) and restarts from [I; R_k] ([R_k; I]) after every `block`
    intervals, where `restarts` is (block, spans) of `_reanchor_block`.
    Block i spans nodes i*block to (i+1)*block and is anchored at its end
    if backward, at its start if not; the carrier X at a node is the
    propagator of A - S R (Y that of -(A + R Q)') from the anchor of the
    block that holds the node past its anchor (I at the first anchor).
    Raises IntegrationBlowupError, before the sweep, at the first interval
    met whose h rho(H) in `spans` exceeds the step's `_STEP_BOUNDS`.
    """
    block, spans = restarts
    bound = _STEP_BOUNDS[dual]
    bad = np.flatnonzero(spans > bound)
    if bad.size:  # build_grid's intervals are at most 1.25 (T - t0) / steps
        k = bad[-1] if backward else bad[0]
        t = float(grid[k + (not backward)])
        rho = np.max(spans[bad] / np.diff(grid)[bad])
        steps = np.ceil(1.25 * (grid[-1] - grid[0]) * rho / bound)
        raise IntegrationBlowupError(
            f"integration blew up at t={t}: one step spans h*rho(H) = {spans[k]:.4g}, more "
            f"than the {'Pade' if dual else 'RK4'} step resolves ({bound:g}); "
            f"{steps:.6g} steps resolve it", time=t)
    n = R0.shape[0]
    eye = np.eye(n)
    num, den = _ratio_blocks(n, dual)
    anchor = np.empty((2 * n, n))
    anchor[den] = eye
    n_int = grid.size - 1
    R = np.empty((grid.size, n, n))
    X = np.empty((grid.size, n, n))
    start = n_int if backward else 0
    R[start] = R0
    X[start] = eye
    starts = range(0, n_int, block)
    drift = 0.0
    for k0 in (reversed(starts) if backward else starts):
        k1 = min(k0 + block, n_int)
        anchor[num] = R[k1 if backward else k0]
        Z = _affine_sweep(grid[k0:k1 + 1], tuple(H[k0:k1] for H in H_tab), anchor,
                          backward=backward, step=_pade_maps if dual else _rk4_maps)
        inner, Z = (slice(k0, k1), Z[:-1]) if backward else (slice(k0 + 1, k1 + 1), Z[1:])
        R[inner], d = _symmetrized(_ratio_from_flow(grid[inner], Z[:, num], Z[:, den], backward))
        drift = max(drift, d)
        X[inner] = Z[:, den]
    return _Flow(R, X, drift, block, start)


def _riccati_solution(grid: np.ndarray, H_tab, R: np.ndarray, dual: bool) -> DenseSolution:
    """R at the nodes of `grid` as a `DenseSolution`: J = Y X^{-1} of the
    flow of H, or M = X Y^{-1} if `dual`.  Its node derivatives are the
    Riccati right-hand side of the ratio, L R + (L R)' + H_ab with
    L = H_aa - R H_ba / 2 (a the numerator block, b the denominator): for J,
    J S J - A'J - J A - Q; for M, A M + M A' - S + M Q M.  The blocks are
    read off the lo and hi slots of `H_tab`."""
    a, b = _ratio_blocks(R.shape[1], dual)

    def rhs(H, Rk):
        LR = (H[:, a, a] - 0.5 * (Rk @ H[:, b, a])) @ Rk
        return LR + LR.swapaxes(-1, -2) + H[:, a, b]

    return DenseSolution(grid, R[:-1], R[1:], rhs(H_tab[0], R[:-1]), rhs(H_tab[2], R[1:]))


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
