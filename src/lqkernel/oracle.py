"""Independent discrete-time check: forward-Euler LQ + discrete Riccati.

This module deliberately shares no code with the ODE/Riccati machinery: on
cells [t_k, t_k + h_k] the dynamics are discretized as
x_{k+1} = (I + h_k A(t_k)) x_k + h_k B(t_k) u_k with stage costs h_k Q(t_k),
h_k R(t_k).  The cells split each piece between the problem's breakpoints
evenly, so no coefficient jumps inside a cell.  The backward discrete
Riccati recursion is associative in the element form
(A, C, J)_k = (I + h_k A, h_k B R^-1 B', h_k Q)(t_k), closed by the terminal
element (0, 0, J_T) (Sarkka & Garcia-Fernandez, "Temporal parallelization
of dynamic programming and linear quadratic control", IEEE TAC 2023).  The
elements are reduced in pairs, one batched solve per level, and the J of
the whole product is P_0.  Its value converges to the continuous one at
O(h), which `richardson_value` sharpens by Richardson extrapolation on
meshes that bisect every cell: once, so that the O(h) term cancels, and
again on a third mesh, so that the O(h^2) term cancels too.
"""

import numpy as np

from .errors import IntegrationBlowupError, SingularMatrixError
from .model import LQProblem

MIN_ORACLE_STEPS = 10


def _reduce(A, C, J):
    """J of the ordered product of the elements (A, C, J), earliest first.

    Each level combines elements 2i (earlier) and 2i + 1 (later):
    X = (I + C_i J_j)^-1 A_i, A = A_j X, C = A_j (I + C_i J_j)^-1 C_i A_j' + C_j,
    J = A_i' J_j X + J_i.  An odd last element is carried to the next level.
    """
    n = A.shape[-1]
    while A.shape[0] > 1:
        m = A.shape[0] - A.shape[0] % 2
        Ai, Ci, Ji = A[0:m:2], C[0:m:2], J[0:m:2]
        Aj, Cj, Jj = A[1:m:2], C[1:m:2], J[1:m:2]
        rhs = np.concatenate([Ai, Ci @ np.swapaxes(Aj, 1, 2)], axis=2)
        try:
            Z = np.linalg.solve(np.eye(n) + Ci @ Jj, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError("discrete oracle: I + C J singular") from exc
        X = Z[..., :n]
        Cn = Aj @ Z[..., n:] + Cj
        Jn = np.swapaxes(Ai, 1, 2) @ (Jj @ X) + Ji
        A = np.concatenate([Aj @ X, A[m:]])
        C = np.concatenate([0.5 * (Cn + np.swapaxes(Cn, 1, 2)), C[m:]])
        J = np.concatenate([0.5 * (Jn + np.swapaxes(Jn, 1, 2)), J[m:]])
    return J[0]


def _discrete_value(problem: LQProblem, x0, steps: int, split: int) -> tuple[float, int]:
    """(x0' P_0 x0, cell count), P_0 of the discrete Riccati recursion on
    forward-Euler cells: the horizon cut at the problem's breakpoints, and
    each piece into split * max(1, round(steps * length / horizon)) equal cells."""
    if steps < MIN_ORACLE_STEPS:
        raise ValueError(f"discretization needs at least {MIN_ORACLE_STEPS} steps")
    x0 = np.asarray(x0, dtype=float)
    n = problem.state_dim
    ends = np.concatenate([[problem.t0], problem.breakpoints(), [problem.T]])
    counts = split * np.maximum(1, np.round(
        steps * np.diff(ends) / (problem.T - problem.t0)).astype(int))
    widths = np.diff(ends) / counts
    left = np.concatenate([a + w * np.arange(c) for a, w, c in zip(ends[:-1], widths, counts)])
    width = np.repeat(widths, counts)[:, None, None]
    B = problem.B.eval_many(left)
    try:
        RinvBt = np.linalg.solve(problem.R.eval_many(left), np.swapaxes(B, 1, 2))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("discrete oracle: R(t_k) singular") from exc
    # one element per cell [left_k, left_k + width_k], then (0, 0, J_T)
    zero = np.zeros((1, n, n))
    A = np.concatenate([np.eye(n) + width * problem.A.eval_many(left), zero])
    C = np.concatenate([width * (B @ RinvBt), zero])
    J = np.concatenate([width * problem.Q.eval_many(left),
                        np.asarray(problem.J_T, dtype=float)[None]])
    with np.errstate(over="ignore", invalid="ignore"):
        P0 = _reduce(A, C, J)
    if not np.all(np.isfinite(P0)):
        raise IntegrationBlowupError("discrete oracle: P_0 is not finite")
    return float(x0 @ P0 @ x0), int(counts.sum())


def discrete_value(problem: LQProblem, x0, steps: int) -> float:
    """x0' P_0 x0 on about `steps` forward-Euler cells, aligned with the
    problem's breakpoints (uniform without them)."""
    return _discrete_value(problem, x0, steps, 1)[0]


def richardson_value(problem: LQProblem, x0, steps: int) -> dict:
    """Oracle values at h, h/2 and h/4 on nested meshes (each bisects every
    cell of the one before), the first-level Richardson limit R1(h, h/2) =
    2 v(h/2) - v(h) ("extrapolated", error O(h^2)), and the second-level one
    R2 = (4 R1(h/2, h/4) - R1(h, h/2)) / 3 ("extrapolated2", error O(h^3)), and
    the cell counts of the three meshes ("cells")."""
    (v_h, v_h2, v_h4), cells = zip(*(_discrete_value(problem, x0, steps, split)
                                     for split in (1, 2, 4)))
    r_h, r_h2 = 2.0 * v_h2 - v_h, 2.0 * v_h4 - v_h2
    return {
        "value_h": v_h,
        "value_h2": v_h2,
        "value_h4": v_h4,
        "extrapolated": r_h,
        "extrapolated2": (4.0 * r_h2 - r_h) / 3.0,
        "cells": list(cells),
    }
