"""Fixed-step RK4 integration of matrix/vector ODEs with dense output.

Design notes:

* Grids are uniform except that caller-supplied breakpoints (schedule jumps,
  kernel column times) are inserted as nodes, so every RK4 step sees
  a smooth right-hand side.  Stage evaluations at interval endpoints carry a
  one-sided limit flag: the stage at the *left* end of an interval uses the
  right limit of any discontinuous coefficient, the stage at the *right* end
  uses the left limit.  This keeps the classical 4th-order accuracy across
  breakpoints instead of degrading to O(h).

* Dense output is cubic Hermite per interval, built from the stored value and
  right-hand side at both interval ends.  Values and derivatives are stored
  per interval (not per node) so a genuine jump at a node keeps both one-sided
  values; evaluation takes an optional `side` argument.

* Backward integration (a > b) runs directly with a negative step; the stored
  solution is always re-oriented so `times` is increasing.

* Linear flows Y' = H(t) Y + F(t) on precomputed stage tables go through
  `rk4_affine`.  On such a flow one classical RK4 step is exactly an affine
  map Y_{k+1} = Y_k + (D_k Y_k + c_k): the stages compose as K1 = H1,
  K2 = Hm (I + h/2 K1), K3 = Hm (I + h/2 K2), K4 = H3 (I + h K3), and
  D_k = h/6 (K1 + 2 K2 + 2 K3 + K4), with c_k built the same way from F.
  The maps are built with batched matmuls in fixed-size blocks of
  intervals (bounding the temporaries), the recurrence costs one small
  matmul per step, and node derivatives H Y + F come out batched.  The
  increment map D_k is kept apart from the identity so that a constant
  coefficient does not round the same P_k = I + D_k at every step.
  Blow-up rule: the first node, in integration order, whose value or
  one-sided node stage H Y + F is non-finite raises IntegrationBlowupError;
  the stage check matters when values stay just below overflow
  (h * lambda = 4 on x' = 800 x).
  The one nonlinear flow, the dual Riccati equation, uses the
  stage-function loop `rk4_drive`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, IntegrationBlowupError

DEFAULT_STEPS = 4000

_NODE_TOL_REL = 1e-12


def build_grid(lo: float, hi: float, steps: int, snap: Sequence[float] = ()) -> np.ndarray:
    """Increasing grid: `steps` uniform intervals on [lo, hi] plus snapped nodes.

    Interior `snap` times become grid nodes; uniform nodes closer than a
    quarter step to a snapped node are dropped so interval lengths stay
    bounded below.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not hi > lo:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    ts = np.linspace(lo, hi, steps + 1)
    span = hi - lo
    snap = np.asarray(sorted(set(float(s) for s in snap)), dtype=float)
    snap = snap[(snap > lo + 1e-12 * span) & (snap < hi - 1e-12 * span)]
    if snap.size == 0:
        return ts
    h = span / steps
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

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_nodes(cls, times, values, derivs) -> "DenseSolution":
        """Build from per-node values/derivatives of a continuous function."""
        values = np.asarray(values, dtype=float)
        derivs = np.asarray(derivs, dtype=float)
        return cls(times, values[:-1], values[1:], derivs[:-1], derivs[1:])

    # -- basic queries -----------------------------------------------------

    @property
    def a(self) -> float:
        return float(self.times[0])

    @property
    def b(self) -> float:
        return float(self.times[-1])

    @property
    def value_shape(self) -> tuple:
        return self.v_start.shape[1:]

    @property
    def values(self) -> np.ndarray:
        """Per-node values (right-continuous representative at jumps)."""
        return np.concatenate([self.v_start, self.v_end[-1:]], axis=0)

    def jump_nodes(self, rtol: float = 1e-9) -> np.ndarray:
        """Interior node times where the stored one-sided values disagree."""
        if self.times.size < 3:
            return np.zeros(0)
        gap = self.v_end[:-1] - self.v_start[1:]
        scale = 1.0 + np.max(np.abs(self.v_start))
        mask = np.max(np.abs(gap), axis=tuple(range(1, gap.ndim))) > rtol * scale
        return self.times[1:-1][mask]

    # -- evaluation --------------------------------------------------------

    def _locate(self, ts: np.ndarray) -> np.ndarray:
        a, b = self.times[0], self.times[-1]
        slack = 1e-12 * max(1.0, b - a)
        if np.any(ts < a - slack) or np.any(ts > b + slack):
            bad = ts[(ts < a - slack) | (ts > b + slack)]
            raise DomainError(f"time {float(np.ravel(bad)[0])} outside [{a}, {b}]")
        return np.clip(ts, a, b)

    def _interp(self, ts, sides, want_deriv: bool) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        sides = np.broadcast_to(np.asarray(sides), ts.shape)
        ts = self._locate(ts)
        times = self.times
        n = times.size - 1
        k = np.clip(np.searchsorted(times, ts, side="right") - 1, 0, n - 1)
        h = times[k + 1] - times[k]
        th = (ts - times[k]) / h
        ex = (1,) * self.v_start.ndim  # broadcast scalars over value dims
        th = th.reshape(th.shape + ex[1:])
        hh = h.reshape(th.shape)
        if not want_deriv:
            h00 = (1.0 + 2.0 * th) * (1.0 - th) ** 2
            h10 = th * (1.0 - th) ** 2
            h01 = th * th * (3.0 - 2.0 * th)
            h11 = th * th * (th - 1.0)
            out = (h00 * self.v_start[k] + (h10 * hh) * self.d_start[k]
                   + h01 * self.v_end[k] + (h11 * hh) * self.d_end[k])
        else:
            g00 = 6.0 * th * (th - 1.0) / hh
            g10 = (3.0 * th - 1.0) * (th - 1.0)
            g01 = -6.0 * th * (th - 1.0) / hh
            g11 = th * (3.0 * th - 2.0)
            out = (g00 * self.v_start[k] + g10 * self.d_start[k]
                   + g01 * self.v_end[k] + g11 * self.d_end[k])
        # snap to stored one-sided data at nodes
        tol = _NODE_TOL_REL * max(1.0, times[-1] - times[0])
        vs, ve = (self.d_start, self.d_end) if want_deriv else (self.v_start, self.v_end)
        at_left = np.nonzero(np.abs(ts - times[k]) <= tol)[0]
        if at_left.size:
            use_start = (sides[at_left] >= 0) | (k[at_left] == 0)
            ri = at_left[use_start]
            out[ri] = vs[k[ri]]
            li = at_left[~use_start]
            out[li] = ve[k[li] - 1]
        at_right = np.nonzero(np.abs(times[k + 1] - ts) <= tol)[0]
        if at_right.size:
            use_start = (sides[at_right] >= 0) & (k[at_right] + 1 < n)
            ri = at_right[use_start]
            out[ri] = vs[k[ri] + 1]
            li = at_right[~use_start]
            out[li] = ve[k[li]]
        return out

    def eval_many(self, ts, sides=1) -> np.ndarray:
        """Vectorized evaluation; `sides` scalar or per-time (+1 right, -1 left)."""
        return self._interp(ts, sides, want_deriv=False)

    def eval(self, t: float, side: int = 1) -> np.ndarray:
        """Value at time t; exact at grid nodes."""
        return self._interp(np.asarray([t], dtype=float), side, want_deriv=False)[0]

    def deriv_many(self, ts, sides=1) -> np.ndarray:
        return self._interp(ts, sides, want_deriv=True)

    def deriv(self, t: float, side: int = 1) -> np.ndarray:
        return self._interp(np.asarray([t], dtype=float), side, want_deriv=True)[0]

    # -- algebra -----------------------------------------------------------

    def right_multiply(self, other: np.ndarray) -> "DenseSolution":
        """Pointwise product value(t) @ other (matrix or vector)."""
        return DenseSolution(
            self.times,
            self.v_start @ other, self.v_end @ other,
            self.d_start @ other, self.d_end @ other,
        )


# -- RK4 driver -------------------------------------------------------------

#: stage slots: 0 = left end of interval (right limit), 1 = midpoint,
#: 2 = right end of interval (left limit)
StageFn = Callable[[int, int, float, np.ndarray], np.ndarray]


def rk4_drive(
    stagefn: StageFn,
    grid: np.ndarray,
    y0: np.ndarray,
    backward: bool = False,
    post_step: Optional[Callable[[float, np.ndarray], np.ndarray]] = None,
) -> DenseSolution:
    """Classical RK4 over `grid` (increasing); y0 sits at grid[-1] if backward.

    `stagefn(k, slot, t, Y)` returns the right-hand side for interval k at the
    given stage; the slot tells side-sensitive coefficients which one-sided
    limit to use.  `post_step` (e.g. re-symmetrization) maps each accepted
    value; stored node derivatives are evaluated at the mapped values.
    """
    grid = np.asarray(grid, dtype=float)
    n = grid.size - 1
    y0 = np.asarray(y0, dtype=float)
    vals = [None] * (n + 1)
    d_lo = [None] * n
    d_hi = [None] * n

    order = range(n) if not backward else range(n - 1, -1, -1)
    y = y0
    vals[n if backward else 0] = y
    for k in order:
        ta, tb = grid[k], grid[k + 1]
        if backward:
            t_from, t_to, s_from, s_to = tb, ta, 2, 0
        else:
            t_from, t_to, s_from, s_to = ta, tb, 0, 2
        h = t_to - t_from
        tm = t_from + 0.5 * h
        k1 = stagefn(k, s_from, t_from, y)
        k2 = stagefn(k, 1, tm, y + (0.5 * h) * k1)
        k3 = stagefn(k, 1, tm, y + (0.5 * h) * k2)
        k4 = stagefn(k, s_to, t_to, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if post_step is not None:
            y = post_step(t_to, y)
        if not np.all(np.isfinite(y)):
            raise IntegrationBlowupError(f"integration blew up at t={t_to}", time=float(t_to))
        if backward:
            d_hi[k] = k1
            d_lo[k] = stagefn(k, 0, ta, y)
            vals[k] = y
        else:
            d_lo[k] = k1
            d_hi[k] = stagefn(k, 2, tb, y)
            vals[k + 1] = y
    return DenseSolution(
        grid,
        np.stack(vals[:-1]), np.stack(vals[1:]),
        np.stack(d_lo), np.stack(d_hi),
    )


# -- linear systems with precomputed stage tables ---------------------------

def schedule_stage_table(schedule, grid: np.ndarray):
    """Evaluate a MatrixSchedule or a DenseSolution at all RK4 stage points.

    Returns (lo, mid, hi) arrays with one entry per interval of `grid`,
    where lo uses the right limit at each interval's left end and hi the
    left limit at its right end.
    """
    lo_t, hi_t = grid[:-1], grid[1:]
    mid_t = 0.5 * (lo_t + hi_t)
    return (schedule.eval_many(lo_t, 1),
            schedule.eval_many(mid_t, 1),
            schedule.eval_many(hi_t, -1))


_AFFINE_BLOCK = 256  # intervals per block of step maps; bounds the temporaries


def _affine_sweep(grid, H_table, Y0, F_table=None, backward=False):
    """Node values of RK4 on Y' = H Y + F by its affine step maps; see
    rk4_affine_values.

    Step k maps Y_k to Y_k + (D_k Y_k + c_k) in integration order.  The maps
    of each block of `_AFFINE_BLOCK` intervals are built batched, the
    recurrence runs over the block, and `_check_block` checks it.
    """
    n = grid.size - 1
    H_lo, H_mid, H_hi = (np.asarray(H, dtype=float) for H in H_table)
    F_lo, F_mid, F_hi = (None,) * 3 if F_table is None else (
        np.asarray(F, dtype=float) for F in F_table)
    # integration runs from the lo slot to the hi slot, or back
    H1, H3, F1, F3 = (H_hi, H_lo, F_hi, F_lo) if backward else (H_lo, H_hi, F_lo, F_hi)
    steps = -np.diff(grid) if backward else np.diff(grid)
    values = np.empty((n + 1,) + Y0.shape)
    values[n if backward else 0] = Y0
    starts = range(0, n, _AFFINE_BLOCK)
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in (reversed(starts) if backward else starts):
            sl = slice(k0, min(k0 + _AFFINE_BLOCK, n))
            h = steps[sl, None, None]
            hm, h3 = H_mid[sl], H3[sl]
            # one RK4 step is affine: stage k_i = K_i Y + f_i, and
            # Y_next = Y + (D Y + c) with P = I + D; keeping the increment map
            # D apart from I avoids rounding the same P every step
            K1 = H1[sl]
            K2 = hm + (0.5 * h) * (hm @ K1)
            K3 = hm + (0.5 * h) * (hm @ K2)
            K4 = h3 + h * (h3 @ K3)
            D = (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
            c = None
            if F_table is not None:
                f1, fm = F1[sl], F_mid[sl]
                f2 = (0.5 * h) * (hm @ f1) + fm
                f3 = (0.5 * h) * (hm @ f2) + fm
                f4 = h * (h3 @ f3) + F3[sl]
                c = (h / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
            for i in (range(D.shape[0] - 1, -1, -1) if backward else range(D.shape[0])):
                src, dst = (k0 + i + 1, k0 + i) if backward else (k0 + i, k0 + i + 1)
                inc = D[i] @ values[src]
                if c is not None:
                    inc += c[i]
                np.add(values[src], inc, out=values[dst])
            _check_block(grid, sl, backward, values, H_lo, H_hi, F_lo, F_hi)
    return values


def _check_block(grid, sl, backward, values, H_lo, H_hi, F_lo, F_hi) -> None:
    """Raise at the block's first node, in integration order, with a
    non-finite value or one-sided stage H Y + F."""
    def finite(Y, H, F):
        K = H[sl] @ Y if F is None else H[sl] @ Y + F[sl]
        return (np.isfinite(Y).reshape(Y.shape[0], -1).all(axis=1)
                & np.isfinite(K).reshape(K.shape[0], -1).all(axis=1))

    ok = np.ones(sl.stop - sl.start + 1, dtype=bool)
    ok[:-1] &= finite(values[sl.start:sl.stop], H_lo, F_lo)
    ok[1:] &= finite(values[sl.start + 1:sl.stop + 1], H_hi, F_hi)
    if not ok.all():
        bad = np.flatnonzero(~ok)
        t_bad = float(grid[sl.start + (bad[-1] if backward else bad[0])])
        raise IntegrationBlowupError(f"integration blew up at t={t_bad}", time=t_bad)


def _column_form(y0, F_table, n):
    """Vector states as one-column matrices, so every flow is a matrix flow."""
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim != 1:
        return y0, F_table
    if F_table is not None:
        F_table = tuple(np.asarray(F, dtype=float).reshape(n, -1, 1) for F in F_table)
    return y0[:, None], F_table


def rk4_affine_values(grid: np.ndarray, H_table, y0: np.ndarray, F_table=None,
                      backward: bool = False) -> np.ndarray:
    """Node values of classical RK4 on the linear flow Y' = H(t) Y + F(t).

    `H_table` and `F_table` are (lo, mid, hi) stage tables as returned by
    `schedule_stage_table`, with the one-sided slot convention of
    `rk4_drive`; F has the shape of Y per interval.  `y0` is a vector or a
    matrix and sits at grid[-1] if backward.  Returns the values at every
    grid node in increasing time order.  Raises IntegrationBlowupError at the
    first node, in integration order, where a value or a one-sided stage
    H Y + F is non-finite.
    """
    grid = np.asarray(grid, dtype=float)
    Y0, F_table = _column_form(y0, F_table, grid.size - 1)
    values = _affine_sweep(grid, H_table, Y0, F_table, backward)
    return values[:, :, 0] if np.ndim(y0) == 1 else values


def rk4_affine(grid: np.ndarray, H_table, y0: np.ndarray, F_table=None,
               backward: bool = False) -> DenseSolution:
    """Classical RK4 on Y' = H(t) Y + F(t) from stage tables, as a dense solution.

    Same grid, slot and orientation conventions and the same blow-up rule as
    `rk4_affine_values`; the stored one-sided node derivatives are H Y + F,
    evaluated batched after the sweep.
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
