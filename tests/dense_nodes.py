"""Dense solutions of continuous functions, built from per-node data."""

import numpy as np

from lqkernel.ode import DenseSolution


def dense_from_nodes(times, values, derivs) -> DenseSolution:
    """The Hermite interpolant of per-node values and derivatives."""
    values = np.asarray(values, dtype=float)
    derivs = np.asarray(derivs, dtype=float)
    return DenseSolution(times, values[:-1], values[1:], derivs[:-1], derivs[1:])
