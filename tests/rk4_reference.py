"""Classical RK4 one stage call at a time: the reference that the batched
affine sweep and the Hamiltonian J are checked against, and, run on the dual
equation at finer steps, the truth for the Magnus-Pade dual flow M."""

import numpy as np

from lqkernel.ode import DenseSolution


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
