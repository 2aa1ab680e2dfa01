import math

import numpy as np
import pytest

from lqkernel import riccati
from lqkernel.errors import DegenerateProblemError, InfeasibleInterpolationError
from lqkernel.kernel import minimal_control
from lqkernel.model import LQProblem, MatrixSchedule
from lqkernel.ode import DenseSolution
from lqkernel.problems import random_problem, random_trajectory, rollout
from lqkernel.solver import (evaluate_cost, solve_feedback, solve_kernel,
                             solve_multipoint)


def test_kernel_route_scalar_energy(p1, operator_cache):
    res = solve_kernel(p1, [1.0], operator=operator_cache(p1, 700))
    assert res.value == pytest.approx(0.5, abs=1e-8)
    assert res.covectors[0][1][0] == pytest.approx(0.5, abs=1e-8)
    assert res.trajectory.x.eval(1.0)[0] == pytest.approx(0.5, abs=1e-8)
    assert np.max(np.abs(res.trajectory.u.values + 0.5)) < 1e-7
    assert res.method == "kernel"


def test_kernel_route_unit_cost(p2, operator_cache):
    res = solve_kernel(p2, [1.0], operator=operator_cache(p2, 700))
    assert res.value == pytest.approx(1.0, abs=1e-9)
    for s in (0.25, 0.8):
        assert res.trajectory.x.eval(s)[0] == pytest.approx(math.exp(-s), abs=1e-8)


def test_kernel_route_zero_state(p1, operator_cache):
    res = solve_kernel(p1, [0.0], operator=operator_cache(p1, 700))
    assert res.value == 0.0
    assert np.max(np.abs(res.trajectory.x.values)) == 0.0


def test_feedback_matches_kernel_route(p1, operator_cache):
    op = operator_cache(p1, 700)
    rk = solve_kernel(p1, [1.0], operator=op)
    rf = solve_feedback(p1, [1.0], operator=op)
    ts = rk.trajectory.x.times
    gap = np.max(np.abs(rk.trajectory.x.eval_many(ts) - rf.trajectory.x.eval_many(ts)))
    assert gap < 1e-6
    assert rf.value == pytest.approx(rk.value, abs=1e-8)


def test_feedback_value_unit_cost(p2):
    assert solve_feedback(p2, [1.0], 600).value == pytest.approx(1.0, abs=1e-9)


def test_feedback_zero_state(p2):
    res = solve_feedback(p2, [0.0], 300)
    assert res.value == 0.0
    assert np.max(np.abs(res.trajectory.u.values)) == 0.0


def test_feedback_solves_no_dual_riccati(dint, monkeypatch):
    calls = []
    original = riccati.solve_dual_riccati

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(riccati, "solve_dual_riccati", counted)
    res = solve_feedback(dint, [1.0, 0.0], 300)
    assert calls == []
    assert res.value > 0.0


def test_route_agreement_random(random_problems, operator_cache):
    for p in random_problems[:2]:
        op = operator_cache(p, 1200)
        x0 = np.ones(p.state_dim)
        rk = solve_kernel(p, x0, operator=op)
        rf = solve_feedback(p, x0, operator=op)
        assert abs(rk.value - rf.value) <= 1e-6 * (1.0 + rf.value)
        ts = rk.trajectory.x.times
        gap = np.max(np.abs(rk.trajectory.x.eval_many(ts)
                            - rf.trajectory.x.eval_many(ts)))
        assert gap <= 1e-5 * (1.0 + np.linalg.norm(x0))


def test_cost_of_solution_equals_value(p2, dint, operator_cache):
    for p in (p2, dint):
        res = solve_kernel(p, np.ones(p.state_dim), operator=operator_cache(p, 1200))
        cost = evaluate_cost(p, res.trajectory, 1000)
        assert cost == pytest.approx(res.value, rel=1e-5)


def test_multipoint_single_constraint_reduces_to_kernel_route(p1, operator_cache):
    res = solve_multipoint(p1, [(0.0, [1.0])], 700)
    assert res.value == pytest.approx(0.5, abs=1e-7)
    assert res.method == "multipoint"


def test_multipoint_two_point_ramp(p1):
    res = solve_multipoint(p1, [(0.0, [0.0]), (1.0, [1.0])], 800)
    assert res.value == pytest.approx(2.0, abs=1e-6)
    assert res.covectors[0][1][0] == pytest.approx(-1.0, abs=1e-6)
    assert res.covectors[1][1][0] == pytest.approx(2.0, abs=1e-6)
    for s in (0.2, 0.5, 0.9):
        assert res.trajectory.x.eval(s)[0] == pytest.approx(s, abs=1e-6)
    assert np.max(np.abs(res.trajectory.u.values - 1.0)) < 1e-5


def test_multipoint_with_already_optimal_terminal_pin(p1):
    res = solve_multipoint(p1, [(0.0, [1.0]), (1.0, [0.5])], 800)
    assert res.value == pytest.approx(0.5, abs=1e-6)
    for s in (0.3, 0.7):
        assert res.trajectory.x.eval(s)[0] == pytest.approx((2 - s) / 2, abs=1e-6)


def test_multipoint_requires_sorted_distinct_times(p1):
    with pytest.raises(ValueError):
        solve_multipoint(p1, [(0.5, [1.0]), (0.2, [0.0])], 200)
    with pytest.raises(ValueError):
        solve_multipoint(p1, [(1.5, [1.0])], 200)


def test_multipoint_infeasible_constraints_raise(zero_drive):
    # with B = 0 only constant trajectories exist; pinning two different
    # values is inconsistent with the (rank-deficient) Gram range
    with pytest.raises(InfeasibleInterpolationError):
        solve_multipoint(zero_drive, [(0.0, [1.0, 0.0]), (1.0, [2.0, 0.0])], 300)


def test_multipoint_consistent_constraint_in_rank_deficient_gram(zero_drive):
    # constants ARE reachable: pinning the same value twice succeeds
    res = solve_multipoint(zero_drive, [(0.0, [1.0, 1.0]), (1.0, [1.0, 1.0])], 300)
    assert res.trajectory.x.eval(0.5) == pytest.approx([1.0, 1.0], abs=1e-8)
    # value = x' J_T x for the constant trajectory (J_T = diag(1, 2))
    assert res.value == pytest.approx(3.0, abs=1e-6)


# Feasible targets read off a random trajectory, on problems whose Gram
# system is ill conditioned.  An explicit pseudoinverse, pinv(G) @ c, refused
# all three: (1, 6, 4, 1) and (5, 8, 5, 1) by a pin error above 1e-6, and
# (8, 8, 5, 2) by the range residual.
@pytest.mark.parametrize("seed, n, k, m", [(1, 6, 4, 1), (5, 8, 5, 1), (8, 8, 5, 2)])
def test_multipoint_accepts_ill_conditioned_feasible_targets(seed, n, k, m):
    rng = np.random.default_rng([seed, 7])
    p = random_problem(rng, n, m)
    traj = random_trajectory(p, rng)
    times = np.linspace(p.t0, p.T, k)
    targets = traj.x.eval_many(times)
    res = solve_multipoint(p, list(zip(times, targets)), 1000)
    for t, c in zip(times, targets):
        err = np.linalg.norm(res.trajectory.x.eval(t) - c)
        assert err <= 1e-6 * (1.0 + np.linalg.norm(c))
    # the minimal-norm interpolant costs no more than the trajectory it pins
    assert res.value <= evaluate_cost(p, traj) * (1.0 + 1e-6)


def test_recover_control_linear_ramp(p1):
    ts = np.linspace(0.0, 1.0, 51)
    x = DenseSolution.from_nodes(ts, ts[:, None], np.ones((51, 1)))
    u = minimal_control(p1, x)
    assert np.max(np.abs(u.values - 1.0)) < 1e-12


def test_recover_control_double_integrator(dint):
    ts = np.linspace(0.0, 1.0, 51)
    states = np.stack([ts ** 2 / 2, ts], axis=1)
    derivs = np.stack([ts, np.ones_like(ts)], axis=1)
    x = DenseSolution.from_nodes(ts, states, derivs)
    u = minimal_control(dint, x)
    assert np.max(np.abs(u.values - 1.0)) < 1e-12


def test_recover_control_zero_for_homogeneous_motion(dint):
    # x = (1 + s, 1) solves x' = A x exactly, so the control is zero
    ts = np.linspace(0.0, 1.0, 41)
    states = np.stack([1 + ts, np.ones_like(ts)], axis=1)
    derivs = np.stack([np.ones_like(ts), np.zeros_like(ts)], axis=1)
    u = minimal_control(dint, DenseSolution.from_nodes(ts, states, derivs))
    assert np.max(np.abs(u.values)) < 1e-8


def test_evaluate_cost_examples(p1):
    ts = np.linspace(0.0, 1.0, 101)
    x = DenseSolution.from_nodes(ts, ts[:, None], np.ones((101, 1)))
    u = DenseSolution.from_nodes(ts, np.ones((101, 1)), np.zeros((101, 1)))
    from lqkernel.model import ControlledTrajectory
    assert evaluate_cost(p1, ControlledTrajectory(x, u), 400) == pytest.approx(2.0, abs=1e-10)
    zero = ControlledTrajectory(
        DenseSolution.from_nodes(ts, np.zeros((101, 1)), np.zeros((101, 1))),
        DenseSolution.from_nodes(ts, np.zeros((101, 1)), np.zeros((101, 1))))
    assert evaluate_cost(p1, zero, 100) == 0.0


def test_multipoint_adding_satisfied_constraint_keeps_value(p2, operator_cache):
    op = operator_cache(p2, 900)
    base = solve_kernel(p2, [1.0], operator=op)
    mid = base.trajectory.x.eval(0.5)
    res = solve_multipoint(p2, [(0.0, [1.0]), (0.5, mid)], 900)
    assert res.value == pytest.approx(base.value, rel=1e-6)


def test_degenerate_kernel_diagonal_raises():
    # a terminal weight spanning 15 orders of magnitude clips to singular
    c = MatrixSchedule.constant
    p = LQProblem(2, 1, 0.0, 1.0, c(np.zeros((2, 2))), c(np.zeros((2, 1))),
                  c(np.zeros((2, 2))), c([[1.0]]), np.diag([1.0, 1e15]))
    with pytest.raises(DegenerateProblemError):
        solve_kernel(p, [0.0, 1.0], 150)


def test_rollout_helper_respects_control_pieces(p2):
    edges = np.array([0.0, 0.4, 1.0])
    vals = np.array([[1.0], [-2.0]])
    traj = rollout(p2, [0.0], edges, vals, steps=300)
    assert traj.u.eval(0.4, side=1)[0] == -2.0
    assert traj.u.eval(0.4, side=-1)[0] == 1.0
    assert np.allclose(traj.u.jump_nodes(), [0.4])
    # x(t) = t on the first piece (x' = u = 1 from 0)
    assert traj.x.eval(0.3)[0] == pytest.approx(0.3, abs=1e-10)
