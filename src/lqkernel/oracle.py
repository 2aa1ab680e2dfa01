"""Independent discrete-time check: forward-Euler LQ + discrete Riccati.

This module deliberately shares no code with the ODE/Riccati machinery: the
dynamics are discretized as x_{k+1} = (I + h A(t_k)) x_k + h B(t_k) u_k with
stage costs h Q(t_k), h R(t_k), and solved by the textbook backward discrete
Riccati recursion.  Its value converges to the continuous one at O(h), which
acceptance tests sharpen by Richardson extrapolation.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError
from .model import LQProblem

MIN_ORACLE_STEPS = 10


def discrete_value(problem: LQProblem, x0, steps: int) -> float:
    """x0' P_0 x0, with P_0 from the backward discrete Riccati recursion on
    `steps` uniform intervals of the forward-Euler discretization."""
    x0 = np.asarray(x0, dtype=float)
    if steps < MIN_ORACLE_STEPS:
        raise ValueError(f"discretization needs at least {MIN_ORACLE_STEPS} steps")
    h = (problem.T - problem.t0) / steps
    tk = problem.t0 + h * np.arange(steps)  # left endpoints t_k
    Ad = np.eye(problem.state_dim) + h * problem.A.eval_many(tk)
    Bd, Qd, Rd = (h * s.eval_many(tk) for s in (problem.B, problem.Q, problem.R))
    P = np.asarray(problem.J_T, dtype=float)
    for k in range(tk.size - 1, -1, -1):
        A, B = Ad[k], Bd[k]
        BtP = B.T @ P
        try:
            gain = np.linalg.solve(Rd[k] + BtP @ B, BtP @ A)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                f"discrete Riccati inner solve singular at step {k}") from exc
        P = Qd[k] + A.T @ P @ A - (BtP @ A).T @ gain
        P = 0.5 * (P + P.T)
    return float(x0 @ P @ x0)


def richardson_value(problem: LQProblem, x0, steps: int) -> dict:
    """Oracle value at h and h/2 plus the Richardson-extrapolated limit."""
    v_h = discrete_value(problem, x0, steps)
    v_h2 = discrete_value(problem, x0, 2 * steps)
    return {
        "value_h": v_h,
        "value_h2": v_h2,
        "extrapolated": 2.0 * v_h2 - v_h,
    }
