"""Classical RK4 one stage call at a time: the reference that the batched
affine sweep and the Hamiltonian J are checked against, and, run on the dual
equation at finer steps, the truth for the Magnus-Pade dual flow M.  Also
the Magnus-Pade sweep one step at a time, and one stage slot at a time: the
references for the slabbed scan and the stage tables."""

import numpy as np

from lqkernel.ode import DenseSolution, _pade_maps


def stagewise_rk4(stage, grid, y0, backward=False) -> DenseSolution:
    """RK4 over the increasing `grid`; y0 sits at grid[-1] if backward.

    `stage(k, slot, Y)` is the right-hand side on interval k at a stage slot
    of `schedule_stage_table` (0 = left end, 1 = midpoint, 2 = right end).
    The node derivatives are stage(k, 0, Y_k) and stage(k, 2, Y_{k+1}).
    """
    n = grid.size - 1
    vals = [None] * (n + 1)
    y = vals[n if backward else 0] = np.asarray(y0, dtype=float)
    s_from, s_to = (2, 0) if backward else (0, 2)
    for k in (range(n - 1, -1, -1) if backward else range(n)):
        h = grid[k] - grid[k + 1] if backward else grid[k + 1] - grid[k]
        k1 = stage(k, s_from, y)
        k2 = stage(k, 1, y + (0.5 * h) * k1)
        k3 = stage(k, 1, y + (0.5 * h) * k2)
        k4 = stage(k, s_to, y + h * k3)
        y = vals[k if backward else k + 1] = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return DenseSolution(grid, np.stack(vals[:-1]), np.stack(vals[1:]),
                         np.stack([stage(k, 0, vals[k]) for k in range(n)]),
                         np.stack([stage(k, 2, vals[k + 1]) for k in range(n)]))


def rk4_increment(h, H1, Hm, H3):
    """The increment D of one classical RK4 step Y -> Y + D Y on Y' = H Y,
    H1, Hm and H3 at the step's start, midpoint and end: the textbook
    formula, which `ode._rk4_maps` reproduces bit for bit."""
    K1 = H1
    K2 = Hm + (0.5 * h) * (Hm @ K1)
    K3 = Hm + (0.5 * h) * (Hm @ K2)
    K4 = H3 + h * (H3 @ K3)
    return (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)


def stage_slot(schedule, grid, slot: int) -> np.ndarray:
    """Slot `slot` (0 lo, 1 mid, 2 hi) of `schedule_stage_table` alone: the
    left ends from the right, the midpoints, or the right ends from the
    left; a pwc schedule at the midpoints for all three."""
    if slot == 1 or schedule.kind == "pwc":
        return schedule.eval_many(0.5 * (grid[:-1] + grid[1:]), 1)
    return schedule.eval_many(grid[:-1], 1) if slot == 0 else schedule.eval_many(grid[1:], -1)


def stepwise_pade(grid, H_table, Y0, backward=False) -> np.ndarray:
    """Node values of the Magnus-Pade sweep on Y' = H Y, one step at a time:
    each step's map from `_pade_maps` on its own interval, applied as
    Y -> Y + D Y in integration order; Y0 sits at grid[-1] if backward."""
    n = grid.size - 1
    vals = np.empty((n + 1,) + np.shape(Y0))
    y = vals[n if backward else 0] = Y0
    for k in (range(n - 1, -1, -1) if backward else range(n)):
        slots = [H[k:k + 1] for H in H_table]
        h = np.full((1, 1, 1), grid[k] - grid[k + 1] if backward else grid[k + 1] - grid[k])
        D, _ = _pade_maps(h, *(slots[::-1] if backward else slots), None, None, None)
        y = vals[k if backward else k + 1] = y + D[0] @ y
    return vals
