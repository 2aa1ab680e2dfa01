"""Independent discrete-time check: forward-Euler LQ + discrete Riccati.

This module deliberately shares no code with the ODE/Riccati machinery: the
dynamics are discretized as x_{k+1} = (I + h A(t_k)) x_k + h B(t_k) u_k with
stage costs h Q(t_k), h R(t_k), and solved by the textbook backward discrete
Riccati recursion.  Its value converges to the continuous one at O(h), which
acceptance tests sharpen by Richardson extrapolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError
from .model import LQProblem

MIN_ORACLE_STEPS = 10


@dataclass(frozen=True)
class DiscreteLQ:
    """Forward-Euler discretization of an LQ problem on a uniform grid."""

    h: float
    times: np.ndarray     # (steps,) left endpoints t_k
    A: np.ndarray         # (steps, N, N)  I + h A(t_k)
    B: np.ndarray         # (steps, N, M)  h B(t_k)
    Q: np.ndarray         # (steps, N, N)  h Q(t_k)
    R: np.ndarray         # (steps, M, M)  h R(t_k)
    J_T: np.ndarray

    @classmethod
    def from_problem(cls, problem: LQProblem, steps: int) -> "DiscreteLQ":
        if steps < MIN_ORACLE_STEPS:
            raise ValueError(f"discretization needs at least {MIN_ORACLE_STEPS} steps")
        h = (problem.T - problem.t0) / steps
        tk = problem.t0 + h * np.arange(steps)
        eye = np.eye(problem.state_dim)
        return cls(
            h=h,
            times=tk,
            A=eye + h * problem.A.eval_many(tk),
            B=h * problem.B.eval_many(tk),
            Q=h * problem.Q.eval_many(tk),
            R=h * problem.R.eval_many(tk),
            J_T=np.asarray(problem.J_T, dtype=float),
        )

    def backward_pass(self) -> np.ndarray:
        """The backward Riccati recursion; returns P_0."""
        P = self.J_T
        for k in range(self.times.size - 1, -1, -1):
            A, B, Q, R = self.A[k], self.B[k], self.Q[k], self.R[k]
            BtP = B.T @ P
            inner = R + BtP @ B
            try:
                gain = np.linalg.solve(inner, BtP @ A)
            except np.linalg.LinAlgError as exc:
                raise SingularMatrixError(
                    f"discrete Riccati inner solve singular at step {k}") from exc
            P = Q + A.T @ P @ A - (BtP @ A).T @ gain
            P = 0.5 * (P + P.T)
        return P


def discrete_value(problem: LQProblem, x0, steps: int) -> float:
    """x0' P_0 x0 from the backward discrete Riccati recursion."""
    x0 = np.asarray(x0, dtype=float)
    P0 = DiscreteLQ.from_problem(problem, steps).backward_pass()
    return float(x0 @ P0 @ x0)


def richardson_value(problem: LQProblem, x0, steps: int) -> dict:
    """Oracle value at h and h/2 plus the Richardson-extrapolated limit."""
    v_h = discrete_value(problem, x0, steps)
    v_h2 = discrete_value(problem, x0, 2 * steps)
    return {
        "value_h": v_h,
        "value_h2": v_h2,
        "extrapolated": 2.0 * v_h2 - v_h,
    }
