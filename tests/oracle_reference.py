"""The textbook backward discrete Riccati recursion, one step at a time: the
reference that the pairwise reduction of `lqkernel.oracle.discrete_value` is
checked against, on a mesh of its own making."""

import numpy as np


def _cells(problem, steps: int):
    """Left ends and widths of the cells: each piece between breakpoints
    split into max(1, round(steps * length / horizon)) equal cells."""
    ends = [problem.t0, *problem.breakpoints().tolist(), problem.T]
    left, width = [], []
    for a, b in zip(ends[:-1], ends[1:]):
        count = max(1, round(steps * (b - a) / (problem.T - problem.t0)))
        left += [a + (b - a) / count * i for i in range(count)]
        width += [(b - a) / count] * count
    return np.array(left), np.array(width)[:, None, None]


def sequential_discrete_value(problem, x0, steps: int) -> float:
    """x0' P_0 x0 on about `steps` forward-Euler cells, P_k from P_{k+1}."""
    x0 = np.asarray(x0, dtype=float)
    tk, h = _cells(problem, steps)
    Ad = np.eye(problem.state_dim) + h * problem.A.eval_many(tk)
    Bd, Qd, Rd = (h * s.eval_many(tk) for s in (problem.B, problem.Q, problem.R))
    P = np.asarray(problem.J_T, dtype=float)
    for k in range(tk.size - 1, -1, -1):
        A, B = Ad[k], Bd[k]
        BtP = B.T @ P
        gain = np.linalg.solve(Rd[k] + BtP @ B, BtP @ A)
        P = Qd[k] + A.T @ P @ A - (BtP @ A).T @ gain
        P = 0.5 * (P + P.T)
    return float(x0 @ P @ x0)
