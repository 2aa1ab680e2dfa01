"""Benchmark problems and seeded random generators for tests and verification.

Random problems keep coefficients mild (entries O(1), horizon about one) so
Riccati flows stay well-conditioned at the step counts used in checks.
Positive semi-definiteness of Q(t) and uniform definiteness of R(t) are
guaranteed by construction: PSD samples interpolate to PSD values, and a
polynomial Q uses PSD coefficients in powers of (t - t0) >= 0.
"""

from __future__ import annotations

import numpy as np

from .model import ControlledTrajectory, LQProblem, MatrixSchedule
from .ode import DEFAULT_STEPS, DenseSolution, build_grid, rk4_affine, schedule_stage_table


def unit_scalar_problem(state_cost: float = 0.0) -> LQProblem:
    """Scalar integrator x' = u on [0, 1] with R = 1, J_T = 1, Q = state_cost.

    With no state cost the closed forms are J(t) = 1/(2-t) and
    K(s, t) = (2-s)(2-t)/(2-min(s,t)); with unit state cost J = M = 1 and
    K(s, t) = exp(-max(s,t)) cosh(min(s,t)).
    """
    c = MatrixSchedule.constant
    return LQProblem(1, 1, 0.0, 1.0, c([[0.0]]), c([[1.0]]),
                     c([[float(state_cost)]]), c([[1.0]]), [[1.0]])


def double_integrator_problem() -> LQProblem:
    """Two-state double integrator with unit weights on [0, 1]."""
    c = MatrixSchedule.constant
    return LQProblem(2, 1, 0.0, 1.0,
                     c([[0.0, 1.0], [0.0, 0.0]]), c([[0.0], [1.0]]),
                     c(np.eye(2)), c([[1.0]]), np.eye(2))


def _random_psd(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    L = rng.normal(size=(n, n)) * scale
    return L @ L.T / n


def _random_pd(rng: np.random.Generator, n: int, scale: float, floor: float) -> np.ndarray:
    return _random_psd(rng, n, scale) + floor * np.eye(n)


def _random_schedule(rng: np.random.Generator, rows: int, cols: int,
                     t0: float, T: float, scale: float) -> MatrixSchedule:
    kind = rng.choice(["constant", "poly", "samples", "pwc"])
    if kind == "constant":
        return MatrixSchedule.constant(rng.normal(size=(rows, cols)) * scale)
    if kind == "poly":
        coeffs = [rng.normal(size=(rows, cols)) * scale,
                  rng.normal(size=(rows, cols)) * scale]
        return MatrixSchedule.polynomial(coeffs, origin=t0)
    if kind == "samples":
        ts = np.linspace(t0, T, 3)
        return MatrixSchedule.sampled_linear(
            ts, [rng.normal(size=(rows, cols)) * scale for _ in ts])
    bp = rng.uniform(t0 + 0.2 * (T - t0), t0 + 0.8 * (T - t0))
    return MatrixSchedule.piecewise_constant(
        [bp], [rng.normal(size=(rows, cols)) * scale for _ in range(2)])


def random_problem(rng: np.random.Generator, state_dim: int | None = None,
                   input_dim: int | None = None) -> LQProblem:
    """A seeded random valid problem with N <= 4 and mild coefficients."""
    n = int(rng.integers(1, 5)) if state_dim is None else state_dim
    m = int(rng.integers(1, min(n, 3) + 1)) if input_dim is None else input_dim
    t0, T = 0.0, float(rng.uniform(0.8, 1.3))

    A = _random_schedule(rng, n, n, t0, T, 0.7)
    B = _random_schedule(rng, n, m, t0, T, 0.9)

    q_kind = rng.choice(["constant", "poly", "samples"])
    if q_kind == "constant":
        Q = MatrixSchedule.constant(_random_psd(rng, n, 0.8))
    elif q_kind == "poly":
        Q = MatrixSchedule.polynomial(
            [_random_psd(rng, n, 0.8), _random_psd(rng, n, 0.5)], origin=t0)
    else:
        ts = np.linspace(t0, T, 3)
        Q = MatrixSchedule.sampled_linear(ts, [_random_psd(rng, n, 0.8) for _ in ts])

    if rng.random() < 0.5:
        R = MatrixSchedule.constant(_random_pd(rng, m, 0.5, 0.4))
    else:
        ts = np.linspace(t0, T, 3)
        R = MatrixSchedule.sampled_linear(ts, [_random_pd(rng, m, 0.5, 0.4) for _ in ts])

    J_T = _random_pd(rng, n, 0.7, 0.3)
    return LQProblem(n, m, t0, T, A, B, Q, R, J_T)


def rollout(problem: LQProblem, x0, control_edges, control_values,
            steps: int = DEFAULT_STEPS) -> ControlledTrajectory:
    """Drive x' = A x + B u from x0 with a piecewise-constant control.

    `control_edges` has len(control_values) + 1 entries spanning the horizon;
    the control's dense solution stores the genuine jumps at the edges.
    """
    edges = np.asarray(control_edges, dtype=float)
    vals = np.asarray(control_values, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    snap = np.concatenate([edges[1:-1], problem.breakpoints()])
    grid = build_grid(problem.t0, problem.T, steps, snap)
    control = MatrixSchedule.piecewise_constant(edges[1:-1], vals[:, :, None])
    A_tab = schedule_stage_table(problem.A, grid)
    B_tab = schedule_stage_table(problem.B, grid)
    u_tab = tuple(u[:, :, 0] for u in schedule_stage_table(control, grid))
    F_tab = tuple(np.einsum("kij,kj->ki", B, u) for B, u in zip(B_tab, u_tab))
    x = rk4_affine(grid, A_tab, x0, F_tab)
    zeros = np.zeros_like(u_tab[0])
    u = DenseSolution(grid, u_tab[0], u_tab[2], zeros, zeros)
    return ControlledTrajectory(x, u)


def random_trajectory(problem: LQProblem, rng: np.random.Generator,
                      steps: int = 1000, pieces: int = 6,
                      zero_start: bool = False) -> ControlledTrajectory:
    """A random member of the controlled-trajectory space (seeded).

    Piecewise-constant random control through the dynamics from a random
    initial state (or from zero when building feasible perturbations).
    """
    n, m = problem.state_dim, problem.input_dim
    x0 = np.zeros(n) if zero_start else rng.normal(size=n)
    edges = np.linspace(problem.t0, problem.T, pieces + 1)
    vals = rng.normal(size=(pieces, m))
    return rollout(problem, x0, edges, vals, steps)
