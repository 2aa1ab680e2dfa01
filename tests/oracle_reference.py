"""The textbook backward discrete Riccati recursion, one step at a time: the
reference that the pairwise reduction of `lqkernel.oracle.discrete_value` is
checked against."""

import numpy as np


def sequential_discrete_value(problem, x0, steps: int) -> float:
    """x0' P_0 x0 on `steps` uniform forward-Euler cells, P_k from P_{k+1}."""
    x0 = np.asarray(x0, dtype=float)
    h = (problem.T - problem.t0) / steps
    tk = problem.t0 + h * np.arange(steps)
    Ad = np.eye(problem.state_dim) + h * problem.A.eval_many(tk)
    Bd, Qd, Rd = (h * s.eval_many(tk) for s in (problem.B, problem.Q, problem.R))
    P = np.asarray(problem.J_T, dtype=float)
    for k in range(steps - 1, -1, -1):
        A, B = Ad[k], Bd[k]
        BtP = B.T @ P
        gain = np.linalg.solve(Rd[k] + BtP @ B, BtP @ A)
        P = Qd[k] + A.T @ P @ A - (BtP @ A).T @ gain
        P = 0.5 * (P + P.T)
    return float(x0 @ P @ x0)
