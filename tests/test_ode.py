import math

import numpy as np
import pytest

from lqkernel.errors import DomainError, IntegrationBlowupError
from lqkernel.model import MatrixSchedule
from lqkernel.ode import (DenseSolution, build_grid, rk4_affine,
                          rk4_affine_values, rk4_drive, schedule_stage_table)


def test_build_grid_contains_endpoints_and_snaps():
    g = build_grid(0.0, 1.0, 10, snap=[0.333, 0.77])
    assert g[0] == 0.0 and g[-1] == 1.0
    assert np.all(np.diff(g) > 0)
    assert 0.333 in g and 0.77 in g


def test_build_grid_drops_uniform_node_too_close_to_snap():
    g = build_grid(0.0, 1.0, 10, snap=[0.5 + 1e-9])
    assert 0.5 + 1e-9 in g
    assert 0.5 not in g
    assert np.min(np.diff(g)) > 0.02


def _constant_flow(H, y0, steps, backward=False):
    """RK4 on Y' = H Y over [0, 1] for a constant matrix H."""
    grid = build_grid(0.0, 1.0, steps)
    table = schedule_stage_table(MatrixSchedule.constant(H), grid)
    return rk4_affine(grid, table, np.asarray(y0, dtype=float), backward=backward)


def test_exponential_growth_forward():
    sol = _constant_flow([[1.0]], [[1.0]], 1000)
    assert sol.eval(1.0)[0, 0] == pytest.approx(math.e, abs=1e-9)


def test_zero_field_stays_constant():
    C = np.array([[1.0, 2.0], [3.0, 4.0]])
    sol = _constant_flow(np.zeros((2, 2)), C, 50)
    assert np.array_equal(sol.values[0], C)
    assert np.array_equal(sol.values[-1], C)


def test_backward_integration_recovers_initial_value():
    # Y' = -Y with Y(1) = 1 has Y(t) = e^{1-t}, so Y(0) = e
    sol = _constant_flow([[-1.0]], [[1.0]], 1000, backward=True)
    assert sol.eval(0.0)[0, 0] == pytest.approx(math.e, abs=1e-8)
    assert sol.times[0] == 0.0 and sol.times[-1] == 1.0  # reoriented increasing


def test_blowup_reports_time():
    # Y' = Y^2 from Y(0) = 1 escapes at t = 1
    def square(k, slot, t, Y):
        return Y * Y

    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationBlowupError) as exc:
            rk4_drive(square, build_grid(0.0, 2.0, 40), np.array([[1.0]]))
    assert exc.value.time is not None and 0.9 < exc.value.time <= 2.0


def test_affine_fourth_order_ratios_both_directions():
    one = MatrixSchedule.constant([[1.0]])

    def err(steps, backward):
        grid = build_grid(0.0, 1.0, steps)
        sol = rk4_affine(grid, schedule_stage_table(one, grid), np.array([[1.0]]),
                         backward=backward)
        # Y' = Y: e at t = 1 from Y(0) = 1, 1/e at t = 0 from Y(1) = 1
        return abs(sol.eval(0.0)[0, 0] - math.exp(-1.0)) if backward else \
            abs(sol.eval(1.0)[0, 0] - math.e)

    for backward in (False, True):
        errors = {s: err(s, backward) for s in (50, 100, 200, 400)}
        for s in (50, 100, 200):
            ratio = errors[s] / errors[2 * s]
            assert 14.0 <= ratio <= 18.0, f"backward={backward} steps={s}: ratio {ratio}"


def test_affine_keeps_order_across_jump():
    # x' = a(t) x with a jumping 1 -> 2 at 0.5: x(1) = e^{1.5} exactly
    a = MatrixSchedule.piecewise_constant([0.5], [[[1.0]], [[2.0]]])
    grid = build_grid(0.0, 1.0, 200, a.breakpoints())
    sol = rk4_affine(grid, schedule_stage_table(a, grid), np.array([1.0]))
    assert sol.eval(1.0)[0] == pytest.approx(math.exp(1.5), rel=1e-10)


@pytest.mark.parametrize("y0, C", [
    (np.array([1.0, -2.0]), np.array([0.5, 3.0])),
    (np.array([[1.0, 0.0, 2.0], [-1.0, 0.5, 0.0]]),
     np.array([[0.5, 1.0, -1.0], [3.0, 0.0, 2.0]])),
])
def test_affine_forced_flow_closed_form(y0, C):
    # Y' = -Y + C t has Y(t) = (Y0 + C) e^{-t} + C (t - 1)
    H = MatrixSchedule.constant(-np.eye(2))
    F = MatrixSchedule.polynomial([0.0 * C.reshape(2, -1), C.reshape(2, -1)])
    grid = build_grid(0.0, 1.0, 200)
    sol = rk4_affine(grid, schedule_stage_table(H, grid), y0,
                     schedule_stage_table(F, grid))
    for t in (0.0, 0.37, 1.0):
        exact = (y0 + C) * math.exp(-t) + C * (t - 1.0)
        assert np.max(np.abs(sol.eval(t) - exact)) < 1e-10
        assert np.max(np.abs(sol.deriv(t) - (C * t - exact))) < 1e-10


@pytest.mark.parametrize("backward", [False, True])
def test_affine_matches_stagewise_rk4(backward):
    rng = np.random.default_rng(17)
    H = MatrixSchedule.piecewise_constant(
        [0.43], [rng.normal(size=(3, 3)), rng.normal(size=(3, 3))])
    F = MatrixSchedule.sampled_linear(
        [0.0, 0.6, 1.0], [rng.normal(size=(3, 2)) for _ in range(3)])
    grid = build_grid(0.0, 1.0, 300, np.concatenate([H.breakpoints(), F.breakpoints()]))
    H_tab, F_tab = schedule_stage_table(H, grid), schedule_stage_table(F, grid)
    y0 = rng.normal(size=(3, 2))

    def stagefn(k, slot, t, Y):
        return H_tab[slot][k] @ Y + F_tab[slot][k]

    ref = rk4_drive(stagefn, grid, y0, backward=backward)
    sol = rk4_affine(grid, H_tab, y0, F_tab, backward=backward)
    scale = np.max(np.abs(ref.values))
    for name in ("v_start", "v_end", "d_start", "d_end"):
        assert np.max(np.abs(getattr(sol, name) - getattr(ref, name))) <= 1e-12 * scale
    assert np.array_equal(rk4_affine_values(grid, H_tab, y0, F_tab, backward=backward),
                          sol.values)


def test_affine_blowup_reports_time():
    # h * lambda = 4 at 200 steps: the values stay finite up to 1.4e307, but
    # the node stage 800 x overflows
    stiff = MatrixSchedule.constant([[800.0]])
    grid = build_grid(0.0, 1.0, 200)
    with pytest.raises(IntegrationBlowupError) as exc:
        rk4_affine(grid, schedule_stage_table(stiff, grid), np.array([1.0]))
    assert exc.value.time is not None and 0.9 < exc.value.time <= 1.0


# -- state-transition matrices: Phi_A(., s) is rk4_affine from the identity --

def _transition(A, s, t, steps, backward=False):
    """Dense Phi_A(., s) on [s, t] (forward) or Phi_A(., t) on [s, t] (backward)."""
    grid = build_grid(s, t, steps, A.breakpoints())
    return rk4_affine(grid, schedule_stage_table(A, grid), np.eye(A.rows), backward=backward)


def test_transition_of_nilpotent_system():
    A = MatrixSchedule.constant([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(_transition(A, 0.0, 1.0, 200).eval(1.0),
                       [[1.0, 1.0], [0.0, 1.0]], atol=1e-12)


def test_transition_anchor_is_identity():
    A = MatrixSchedule.constant([[0.3, -0.2], [0.1, 0.4]])
    assert np.array_equal(_transition(A, 0.7, 1.0, 10).eval(0.7), np.eye(2))
    assert np.array_equal(_transition(A, 0.0, 0.7, 10, backward=True).eval(0.7, side=-1),
                          np.eye(2))


def test_transition_of_negated_transpose():
    A = MatrixSchedule.constant([[0.0, 0.0], [-1.0, 0.0]])
    assert np.allclose(_transition(A, 0.0, 1.0, 200).eval(1.0),
                       [[1.0, 0.0], [-1.0, 1.0]], atol=1e-12)


def test_transition_cocycle_property():
    rng = np.random.default_rng(5)
    A = MatrixSchedule.sampled_linear(
        [0.0, 0.5, 1.0], [rng.normal(size=(3, 3)) * 0.8 for _ in range(3)])
    r, s, t = 0.1, 0.45, 0.9
    lhs = _transition(A, s, t, 400).eval(t) @ _transition(A, r, s, 400).eval(s)
    rhs = _transition(A, r, t, 400).eval(t)
    assert np.max(np.abs(lhs - rhs)) < 1e-7


def test_dense_eval_exact_at_nodes():
    ts = np.linspace(0.0, 1.0, 11)
    vals = np.sin(ts)[:, None, None]
    derivs = np.cos(ts)[:, None, None]
    sol = DenseSolution.from_nodes(ts, vals, derivs)
    for k, t in enumerate(ts):
        assert np.array_equal(sol.eval(t), vals[k])


def test_dense_eval_exact_on_cubics():
    ts = np.linspace(0.0, 1.0, 10)
    sol = DenseSolution.from_nodes(ts, (ts ** 2)[:, None, None], (2 * ts)[:, None, None])
    mids = 0.5 * (ts[:-1] + ts[1:])
    for t in mids:
        assert sol.eval(t)[0, 0] == pytest.approx(t * t, abs=1e-14)


def test_dense_eval_constant_everywhere():
    ts = np.linspace(0.0, 2.0, 5)
    sol = DenseSolution.from_nodes(ts, np.full((5, 1), 3.25), np.zeros((5, 1)))
    assert sol.eval(1.234)[0] == 3.25


def test_dense_eval_out_of_range_raises():
    ts = np.linspace(0.0, 1.0, 5)
    sol = DenseSolution.from_nodes(ts, np.zeros((5, 1)), np.zeros((5, 1)))
    with pytest.raises(DomainError):
        sol.eval(1.1)
    sol.eval(1.0 + 1e-13)  # tiny slack tolerated


def test_one_sided_values_at_jump_node():
    # two intervals, control jumps at t = 0.5
    times = np.array([0.0, 0.5, 1.0])
    v_start = np.array([[1.0], [2.0]])
    v_end = np.array([[1.0], [2.0]])
    zeros = np.zeros((2, 1))
    sol = DenseSolution(times, v_start, v_end, zeros, zeros)
    assert sol.eval(0.5, side=1)[0] == 2.0
    assert sol.eval(0.5, side=-1)[0] == 1.0
    assert np.allclose(sol.jump_nodes(), [0.5])
    smooth = DenseSolution.from_nodes(times, np.ones((3, 1)), np.zeros((3, 1)))
    assert smooth.jump_nodes().size == 0


def test_deriv_matches_analytic_interior():
    ts = np.linspace(0.0, 1.0, 40)
    sol = DenseSolution.from_nodes(ts, np.exp(ts)[:, None], np.exp(ts)[:, None])
    for t in (0.21, 0.63):
        assert sol.deriv(t)[0] == pytest.approx(math.exp(t), rel=1e-6)


def test_integrate_values_immutable():
    sol = _constant_flow(np.eye(2), np.eye(2), 10)
    with pytest.raises(ValueError):
        sol.times[0] = -1.0
