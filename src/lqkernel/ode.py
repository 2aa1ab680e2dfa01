"""Fixed-step integration of linear matrix/vector ODEs with dense output.

Design notes:

* Grids are uniform except that caller-supplied breakpoints (schedule jumps,
  kernel column times) are inserted as nodes, so every step sees a smooth
  right-hand side.  Stage evaluations at interval endpoints carry a
  one-sided limit flag: the stage at the *left* end of an interval uses the
  right limit of any discontinuous coefficient, the stage at the *right* end
  uses the left limit.  This keeps the classical 4th-order accuracy across
  breakpoints instead of degrading to O(h).  A schedule without sides
  (constant, poly, samples) is evaluated once per node, and both end slots
  read that one array.

* Dense output is cubic Hermite per interval, built from the stored value and
  right-hand side at both interval ends.  Values and derivatives are stored
  per interval (not per node) so a genuine jump at a node keeps both one-sided
  values.  Evaluation at a node returns the stored one-sided data, and the
  optional `side` argument picks which.  Evaluation is a locate step (the
  interval and Hermite weights of each time, which depend on the grid only)
  and a combine step, so solutions on one grid share the located points.

* Backward integration (a > b) runs directly with a negative step; the stored
  solution is always re-oriented so `times` is increasing.

* Linear flows Y' = H(t) Y + F(t) on precomputed stage tables go through one
  slabbed sweep, `_affine_sweep`.  A step of such a flow is an affine map
  Y_{k+1} = Y_k + (D_k Y_k + c_k), and a builder makes the increments from
  the (lo, mid, hi) stage slots: `_rk4_maps` (classical RK4; `rk4_affine`
  and the J and P flows) or `_pade_maps` (an A-stable Magnus-Pade step; the
  dual Riccati flow M).
  The maps are built batched a slab of intervals at a time, and node
  derivatives H Y + F come out batched.  A slab holds as many intervals as
  keep w (w + b) entries each, the map D and the node Y of a w x b state,
  within one budget of 32768 entries (never fewer than 256 intervals), so
  temporaries stay bounded whatever the width.  Within a slab of m steps a
  two-level scan replaces the step-by-step recurrence: the maps are
  composed over chunks of ceil(sqrt m) steps, batched across the chunks,
  one small product per chunk carries the chunk starts, and one batched
  product forms every node, so a slab costs about 2 sqrt(m) interpreter
  steps instead of m (the two-level scan of Blelloch, "Prefix sums and
  their applications", CMU-CS-90-190, 1990).  The increment map D_k, and
  every composed map E, is kept apart from the identity so that a constant
  coefficient does not round the same P_k = I + D_k at every step.
  Blow-up rule: the first node, in integration order, whose value or
  one-sided node stage H Y + F is non-finite raises IntegrationBlowupError;
  the stage check matters when values stay just below overflow
  (h * lambda = 4 on x' = 800 x under RK4).  A slab is cleared at once when
  w max|H| max|Y| + max|F| < 1e300, which bounds every entry of every stage
  (NaN and inf fail the comparison); only a slab that fails the bound forms
  H Y + F node by node to find the node that raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, IntegrationBlowupError

DEFAULT_STEPS = 4000


def _time_tol(lo: float, hi: float) -> float:
    """Two times on [lo, hi] within this distance are the same node, and a
    time within it outside [lo, hi] is inside up to roundoff."""
    return 1e-12 * max(1.0, hi - lo)


def _clip_to_span(ts: np.ndarray, lo: float, hi: float, error,
                  span: str = "[{lo}, {hi}]") -> np.ndarray:
    """`ts` clipped to [lo, hi]; a time more than `_time_tol` outside raises
    `error`, naming the time and `span` formatted with lo and hi."""
    tol = _time_tol(lo, hi)
    bad = (ts < lo - tol) | (ts > hi + tol)
    if np.any(bad):
        raise error(f"time {float(ts[bad][0])} outside " + span.format(lo=lo, hi=hi))
    return np.clip(ts, lo, hi)


def _blowup(t) -> IntegrationBlowupError:
    t = float(t)
    return IntegrationBlowupError(f"integration blew up at t={t}", time=t)


def build_grid(lo: float, hi: float, steps: int, snap: Sequence[float] = ()) -> np.ndarray:
    """Increasing grid: `steps` uniform intervals on [lo, hi] plus snapped nodes.

    Interior `snap` times become grid nodes.  A snap within `_time_tol` of
    an end or of the snap before it is the same node and is dropped, so a
    run of such snaps keeps its first.  Uniform nodes closer than a quarter
    step to a snapped node are dropped so interval lengths stay bounded
    below.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not hi > lo:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    ts = np.linspace(lo, hi, steps + 1)
    tol = _time_tol(lo, hi)
    snap = np.asarray(sorted(set(float(s) for s in snap)), dtype=float)
    snap = snap[(snap > lo + tol) & (snap < hi - tol)]
    if snap.size == 0:
        return ts
    snap = snap[np.concatenate([[True], np.diff(snap) > tol])]
    h = (hi - lo) / steps
    near = np.min(np.abs(ts[:, None] - snap[None, :]), axis=1)
    keep = (near >= 0.25 * h) | (np.arange(ts.size) == 0) | (np.arange(ts.size) == steps)
    out = np.unique(np.concatenate([ts[keep], snap]))
    return out


@dataclass(frozen=True)
class DenseSolution:
    """A sampled function of time with cubic-Hermite interpolation.

    Data is stored per interval: `v_start[k]`, `v_end[k]` are the one-sided
    values at the ends of [times[k], times[k+1]], `d_start`/`d_end` the
    one-sided time derivatives.  For continuous solutions v_end[k-1] equals
    v_start[k]; controls recovered from kinked trajectories may genuinely
    jump there.
    """

    times: np.ndarray
    v_start: np.ndarray
    v_end: np.ndarray
    d_start: np.ndarray
    d_end: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("times must hold at least two points")
        if not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        n = times.size - 1
        arrays = {}
        for name in ("v_start", "v_end", "d_start", "d_end"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape[0] != n:
                raise ValueError(f"{name} must have one entry per interval")
            arrays[name] = arr
        times = times.copy()
        times.flags.writeable = False
        object.__setattr__(self, "times", times)
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    # -- basic queries -----------------------------------------------------

    @property
    def a(self) -> float:
        return float(self.times[0])

    @property
    def b(self) -> float:
        return float(self.times[-1])

    @property
    def values(self) -> np.ndarray:
        """Per-node values (right-continuous representative at jumps)."""
        return np.concatenate([self.v_start, self.v_end[-1:]], axis=0)

    def jump_nodes(self) -> np.ndarray:
        """Interior node times where the stored one-sided values of some
        column disagree by more than 1e-9 (1 + max |value| of that column):
        the union of the columns' jump nodes.  A vector value is one column;
        a matrix or a family of b vectors has a column per last index."""
        if self.times.size < 3:
            return np.zeros(0)
        v, gap = self.v_start, self.v_end[:-1] - self.v_start[1:]
        if v.ndim < 3:
            v, gap = v[..., None], gap[..., None]
        scale = 1.0 + np.max(np.abs(v), axis=tuple(range(v.ndim - 1)))
        over = np.max(np.abs(gap), axis=tuple(range(1, gap.ndim - 1))) > 1e-9 * scale
        return self.times[1:-1][over.any(axis=-1)]

    # -- evaluation --------------------------------------------------------

    def _locate(self, ts, sides, want_deriv: bool):
        """Where `ts` fall on the grid: (k, weights), the interval of each
        time and the Hermite weights of v_start, d_start, v_end and d_end
        there, for the value or the derivative.  A time within `_time_tol`
        of a node is that node, and `sides` picks the interval: the one
        ending there for side < 0, else the one starting there (clipped at
        the two ends).  At a node the basis is exactly 0 or 1, so the stored
        one-sided data comes out bit-exactly.  The location reads the grid
        only: solutions on equal grids share it (`_combine`)."""
        times = self.times
        a, b = times[0], times[-1]
        ts = _clip_to_span(np.atleast_1d(np.asarray(ts, dtype=float)), a, b, DomainError)
        sides = np.broadcast_to(np.asarray(sides), ts.shape)
        n = times.size - 1
        i = np.clip(np.searchsorted(times, ts, side="right") - 1, 0, n - 1)
        tol = _time_tol(a, b)
        at_lo = ts - times[i] <= tol
        at_hi = ~at_lo & (times[i + 1] - ts <= tol)
        ts = np.where(at_lo, times[i], np.where(at_hi, times[i + 1], ts))
        k = np.clip(i - (at_lo & (sides < 0)) + (at_hi & (sides >= 0)), 0, n - 1)
        hh = times[k + 1] - times[k]
        th = (ts - times[k]) / hh
        if not want_deriv:
            h00 = (1.0 + 2.0 * th) * (1.0 - th) ** 2
            h10 = th * (1.0 - th) ** 2
            h01 = th * th * (3.0 - 2.0 * th)
            h11 = th * th * (th - 1.0)
            return k, (h00, h10 * hh, h01, h11 * hh)
        g00 = 6.0 * th * (th - 1.0) / hh
        g10 = (3.0 * th - 1.0) * (th - 1.0)
        g01 = -6.0 * th * (th - 1.0) / hh
        g11 = th * (3.0 * th - 2.0)
        return k, (g00, g10, g01, g11)

    def _combine(self, location) -> np.ndarray:
        """The weighted sum of the stored data (v_start, d_start, v_end,
        d_end) at a `_locate` result, the four terms gathered and added in
        place in a fixed order."""
        k, weights = location
        ex = (slice(None),) + (None,) * (self.v_start.ndim - 1)  # over value dims
        out = np.take(self.v_start, k, axis=0)
        out *= weights[0][ex]
        # one buffer for the three other terms; k is in range, and the
        # default mode="raise" would buffer the output once more
        term = np.empty_like(out)
        for w, stored in zip(weights[1:], (self.d_start, self.v_end, self.d_end)):
            np.take(stored, k, axis=0, out=term, mode="clip")
            term *= w[ex]
            out += term
        return out

    def eval_many(self, ts, sides=1) -> np.ndarray:
        """Vectorized evaluation; `sides` scalar or per-time (+1 right, -1 left)."""
        return self._combine(self._locate(ts, sides, want_deriv=False))

    def eval(self, t: float, side: int = 1) -> np.ndarray:
        """Value at time t; exact at grid nodes."""
        return self.eval_many([t], side)[0]

    def deriv_many(self, ts, sides=1) -> np.ndarray:
        return self._combine(self._locate(ts, sides, want_deriv=True))


# -- linear systems with precomputed stage tables ---------------------------

def schedule_stage_table(schedule, grid: np.ndarray, f=None):
    """Evaluate a MatrixSchedule at all RK4 stage points.

    Returns read-only (lo, mid, hi) arrays with one entry per interval of
    `grid`, with `f` (such as a matrix inverse) applied to each evaluation.
    These are the stage slots of every RK4 loop: slot 0 (lo) is the
    interval's left end, taking the right limit there; slot 1 (mid) its
    midpoint; slot 2 (hi) its right end, taking the left limit.  A
    constant, poly or samples schedule has no sides, so it is evaluated
    once per node and lo and hi are the views [:-1] and [1:] of that one
    array.  A piecewise-constant schedule takes all three at the midpoint:
    its breakpoints are nodes up to `_time_tol`, so that piece holds on the
    whole interval, even past a merged node.
    """
    def ready(values):
        return _read_only(values if f is None else f(values))

    mid = ready(schedule.eval_many(0.5 * (grid[:-1] + grid[1:]), 1))
    if schedule.kind == "pwc":
        return mid, mid, mid
    nodes = ready(schedule.eval_many(grid))
    return nodes[:-1], mid, nodes[1:]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_SLAB_BUDGET = 32768  # entries w (w + b) per slab of a sweep; bounds the temporaries


def _slab_length(w: int, b: int) -> int:
    """Intervals per slab of a sweep on a w x b state: as many as keep w (w + b)
    entries each (the map D and the node Y) within `_SLAB_BUDGET`, and never
    fewer than 256, so a wide flow is not cut into many short scans."""
    return max(256, _SLAB_BUDGET // (w * (w + b)))


def _rk4_maps(h, H1, Hm, H3, F1, Fm, F3):
    """The increments (D, c) of classical RK4 on Y' = H Y + F, one step per
    entry of `h`: step i maps Y to Y + (D_i Y + c_i).  H1/F1 sit at the
    start of the step in integration order, Hm/Fm at its midpoint, H3/F3 at
    its end; `c` is None when F1 is.  K2, K3, K4 and their sum live in three
    reused buffers, each sum taken in the order of the textbook formula."""
    half = 0.5 * h
    K = np.matmul(Hm, H1)  # K2 = Hm + h/2 Hm K1, with K1 = H1
    K *= half
    K += Hm
    D = 2.0 * K
    D += H1  # K1 + 2 K2
    K_next = np.matmul(Hm, K)  # K3 = Hm + h/2 Hm K2
    K_next *= half
    K_next += Hm
    np.multiply(K_next, 2.0, out=K)
    D += K  # + 2 K3
    np.matmul(H3, K_next, out=K)  # K4 = H3 + h H3 K3
    K *= h
    K += H3
    D += K
    D *= h / 6.0
    c = None
    if F1 is not None:
        f2 = (0.5 * h) * (Hm @ F1) + Fm
        f3 = (0.5 * h) * (Hm @ f2) + Fm
        f4 = h * (H3 @ f3) + F3
        c = (h / 6.0) * (F1 + 2.0 * f2 + 2.0 * f3 + f4)
    return D, c


def _pade_maps(h, H1, Hm, H3, F1, Fm, F3):
    """The increments (D, None) of the (2,2) Pade map of a fourth-order Magnus
    step on an unforced flow Y' = H Y (F1, Fm, F3 are None), slots as in
    `_rk4_maps`: Omega = h/6 (H1 + 4 Hm + H3) + h^2/12 [H3, H1] and
    D = (I - Omega/2 + Omega^2/12)^{-1} Omega, the map R(Omega) - I with
    R(z) = (1 + z/2 + z^2/12) / (1 - z/2 + z^2/12).  A-stable, and symplectic
    on a Hamiltonian H (Blanes, Casas, Oteo & Ros, Phys. Rep. 2009)."""
    Om = (h / 6.0) * (H1 + 4.0 * Hm + H3) + (h * h / 12.0) * (H3 @ H1 - H1 @ H3)
    return np.linalg.solve(np.eye(Om.shape[-1]) - 0.5 * Om + (Om @ Om) / 12.0, Om), None


def _affine_sweep(grid, H_table, Y0, F_table=None, backward=False, step=_rk4_maps):
    """Node values of Y' = H Y + F under the step maps that `step` builds
    (`_rk4_maps`, or `_pade_maps` when F is None), in increasing time order;
    conventions and blow-up rule as in `rk4_affine`.  The maps of each slab
    of `_slab_length` intervals are built batched, a two-level scan runs
    over the slab, and `_check_slab` checks it."""
    n = grid.size - 1
    H_lo, H_mid, H_hi = (np.asarray(H, dtype=float) for H in H_table)
    F_lo, F_mid, F_hi = (None,) * 3 if F_table is None else (
        np.asarray(F, dtype=float) for F in F_table)
    steps = -np.diff(grid) if backward else np.diff(grid)
    values = np.empty((n + 1,) + Y0.shape)
    values[n if backward else 0] = Y0
    slab = _slab_length(*Y0.shape)
    starts = range(0, n, slab)
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in (reversed(starts) if backward else starts):
            sl = slice(k0, min(k0 + slab, n))
            H = [slot[sl] for slot in (H_lo, H_mid, H_hi)]
            F = [None] * 3 if F_table is None else [slot[sl] for slot in (F_lo, F_mid, F_hi)]
            # integration runs from the lo slot to the hi slot, or back
            order = slice(None, None, -1 if backward else 1)
            D, c = step(steps[sl, None, None], *H[order], *F[order])
            nodes = _scan_slab(D, c, values[sl.stop if backward else sl.start], backward)
            if backward:
                values[sl.start:sl.stop] = nodes[::-1]
            else:
                values[sl.start + 1:sl.stop + 1] = nodes
            _check_slab(grid, sl, backward, values, (H[0], F[0]), (H[2], F[2]))
    return values


def _scan_slab(D, c, Y, backward):
    """The nodes that the steps Y -> Y + (D_i Y + c_i) reach from Y, in
    integration order (D, c in increasing time; `c` None for no forcing).

    Two-level scan: the m steps are cut into chunks of ceil(sqrt m), which
    balances the steps within a chunk against the chunks.  The
    maps from each chunk start to every node in it are composed batched
    across the chunks, again as increments E Y + g apart from the identity:
    E_j = E_{j-1} + D_j + D_j E_{j-1} and g_j = g_{j-1} + D_j g_{j-1} + c_j.
    One product per chunk carries the chunk starts, and one batched product
    forms every node.  A zero pad after the last step maps a node to itself.
    """
    m = D.shape[0]
    size = math.isqrt(m - 1) + 1  # ceil(sqrt m)
    chunks = -(-m // size)

    def chunked(X):  # steps in integration order, zero-padded to whole chunks
        X = X[::-1] if backward else X
        if m < chunks * size:
            X = np.concatenate([X, np.zeros((chunks * size - m,) + X.shape[1:])])
        return X.reshape(chunks, size, *X.shape[1:])

    D = chunked(D)
    E = np.empty_like(D)
    E[:, 0] = D[:, 0]
    if c is not None:
        c = chunked(c)
        g = np.empty_like(c)
        g[:, 0] = c[:, 0]
    for j in range(1, size):
        Dj, E_prev = D[:, j], E[:, j - 1]
        np.add(E_prev + Dj, Dj @ E_prev, out=E[:, j])
        if c is not None:
            g_prev = g[:, j - 1]
            np.add(g_prev + Dj @ g_prev, c[:, j], out=g[:, j])
    start = np.empty((chunks,) + Y.shape)
    start[0] = Y
    for i in range(1, chunks):
        inc = E[i - 1, -1] @ start[i - 1]
        if c is not None:
            inc += g[i - 1, -1]
        np.add(start[i - 1], inc, out=start[i])
    inc = (E.reshape(chunks, -1, E.shape[-1]) @ start).reshape(E.shape[:2] + Y.shape)
    if c is not None:
        inc += g
    return (start[:, None] + inc).reshape((-1,) + Y.shape)[:m]


def _check_slab(grid, sl, backward, values, lo, hi) -> None:
    """Raise at the slab's first node, in integration order, with a
    non-finite value or one-sided stage H Y + F; `lo` and `hi` are the
    slab's (H, F) stage slots (F None for no forcing).  The slab is cleared
    at once when w max|H| max|Y| + max|F| < 1e300: every entry of every
    stage is then below that, and a NaN or inf anywhere fails the
    comparison.  Only a slab that fails it forms the stages node by node."""
    def abs_max(*arrays):  # NaN if any entry is NaN
        return np.max([np.abs(a).max() for a in arrays])

    Y = values[sl.start:sl.stop + 1]
    bound = Y.shape[1] * abs_max(lo[0], hi[0]) * abs_max(Y)
    if lo[1] is not None:
        bound += abs_max(lo[1], hi[1])
    if bound < 1e300:
        return

    def finite(Y, H, F):
        K = H @ Y if F is None else H @ Y + F
        return (np.isfinite(Y).reshape(Y.shape[0], -1).all(axis=1)
                & np.isfinite(K).reshape(K.shape[0], -1).all(axis=1))

    ok = np.ones(sl.stop - sl.start + 1, dtype=bool)
    ok[:-1] &= finite(values[sl.start:sl.stop], *lo)
    ok[1:] &= finite(values[sl.start + 1:sl.stop + 1], *hi)
    if not ok.all():
        bad = np.flatnonzero(~ok)
        raise _blowup(grid[sl.start + (bad[-1] if backward else bad[0])])


def _column_form(y0, F_table, n):
    """Vector states as one-column matrices, so every flow is a matrix flow."""
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim != 1:
        return y0, F_table
    if F_table is not None:
        F_table = tuple(np.asarray(F, dtype=float).reshape(n, -1, 1) for F in F_table)
    return y0[:, None], F_table


def rk4_affine(grid: np.ndarray, H_table, y0: np.ndarray, F_table=None,
               backward: bool = False) -> DenseSolution:
    """Classical RK4 on Y' = H(t) Y + F(t) from stage tables, as a dense solution.

    `H_table` and `F_table` are (lo, mid, hi) stage tables as returned by
    `schedule_stage_table`, whose docstring gives the one-sided slot
    convention; F has the shape of Y per interval.  `y0` is a vector or a
    matrix and sits at grid[-1] if backward.  The stored one-sided node
    derivatives are H Y + F, evaluated batched after the sweep.  Raises
    IntegrationBlowupError at the first node, in integration order, where a
    value or a one-sided stage H Y + F is non-finite.
    """
    grid = np.asarray(grid, dtype=float)
    Y0, F_cols = _column_form(y0, F_table, grid.size - 1)
    values = _affine_sweep(grid, H_table, Y0, F_cols, backward)
    d_lo = np.asarray(H_table[0]) @ values[:-1]
    d_hi = np.asarray(H_table[2]) @ values[1:]
    if F_cols is not None:
        d_lo += F_cols[0]
        d_hi += F_cols[2]
    if np.ndim(y0) == 1:
        values, d_lo, d_hi = values[:, :, 0], d_lo[:, :, 0], d_hi[:, :, 0]
    return DenseSolution(grid, values[:-1], values[1:], d_lo, d_hi)
