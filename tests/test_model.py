import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqkernel.errors import HorizonMismatchError, ScheduleDomainError
from lqkernel.model import (ControlledTrajectory, MatrixSchedule, LQProblem,
                            dynamics_defect, validate_problem)
from lqkernel.problems import random_trajectory
from dense_nodes import dense_from_nodes


def test_constant_schedule_value():
    s = MatrixSchedule.constant([[2.0]])
    assert np.array_equal(s.eval_many([0.3])[0], [[2.0]])


def test_sampled_linear_midpoint():
    s = MatrixSchedule.sampled_linear([0.0, 1.0], [[[0.0]], [[2.0]]])
    assert np.allclose(s.eval_many([0.5])[0], [[1.0]])


def test_pwc_right_continuous_at_breakpoint():
    s = MatrixSchedule.piecewise_constant([0.5], [[[1.0]], [[3.0]]])
    assert np.array_equal(s.eval_many([0.5])[0], [[3.0]])
    assert np.array_equal(s.eval_many([0.5], -1)[0], [[1.0]])
    assert np.array_equal(s.eval_many([0.49])[0], [[1.0]])


def test_sampled_schedule_exact_at_sample_times():
    times = np.array([0.0, 0.3, 1.0])
    mats = [np.array([[0.1, 0.2], [0.3, 0.4]]) * k for k in (1, 2, 3)]
    s = MatrixSchedule.sampled_linear(times, mats)
    for t, m in zip(times, mats):
        assert np.array_equal(s.eval_many([t])[0], m)


def test_polynomial_uses_powers_of_shifted_time():
    s = MatrixSchedule.polynomial([[[1.0]], [[2.0]], [[3.0]]], origin=0.5)
    t = 0.9
    x = t - 0.5
    assert s.eval_many([t])[0, 0, 0] == pytest.approx(1.0 + 2.0 * x + 3.0 * x * x, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(t=st.floats(0.0, 1.0, allow_nan=False))
def test_eval_schedule_deterministic(t):
    s = MatrixSchedule.sampled_linear([0.0, 0.4, 1.0],
                                      [[[1.0, 2.0]], [[0.5, -1.0]], [[3.0, 0.0]]])
    a = s.eval_many([t])[0]
    b = s.eval_many([t])[0]
    assert np.array_equal(a, b)


def test_eval_many_matches_scalar_eval():
    s = MatrixSchedule.piecewise_constant([0.25, 0.75], [[[1.0]], [[2.0]], [[4.0]]])
    ts = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    batch = s.eval_many(ts)
    for t, m in zip(ts, batch):
        assert np.array_equal(s.eval_many([t])[0], m)


def test_eval_many_matches_the_out_of_place_formulas_bit_for_bit():
    rng = np.random.default_rng(21)
    ts = np.concatenate([np.sort(rng.uniform(0.0, 2.0, 500)), [0.0, 0.6, 1.1, 2.0]])
    coeffs = rng.normal(size=(5, 4, 3))
    x = ts - 0.4
    want = np.zeros((ts.size, 4, 3))
    for coeff in coeffs[::-1]:
        want = want * x[:, None, None] + coeff
    got = MatrixSchedule.polynomial(coeffs, origin=0.4).eval_many(ts)
    assert got.tobytes() == want.tobytes()
    knots, mats = np.array([0.0, 0.6, 1.1, 2.0]), rng.normal(size=(4, 4, 3))
    idx = np.clip(np.searchsorted(knots, ts, side="right") - 1, 0, knots.size - 2)
    w = ((ts - knots[idx]) / (knots[idx + 1] - knots[idx]))[:, None, None]
    want = (1.0 - w) * mats[idx] + w * mats[idx + 1]
    got = MatrixSchedule.sampled_linear(knots, mats).eval_many(ts)
    assert got.tobytes() == want.tobytes()


def test_samples_outside_domain_raises():
    s = MatrixSchedule.sampled_linear([0.0, 1.0], [[[0.0]], [[2.0]]])
    with pytest.raises(ScheduleDomainError):
        s.eval_many([1.5])


def test_schedule_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        MatrixSchedule.piecewise_constant([0.5], [[[1.0]], [[1.0, 2.0]]])
    with pytest.raises(ValueError):
        MatrixSchedule.sampled_linear([0.5, 0.2], [[[1.0]], [[2.0]]])  # decreasing


def _scalar_problem(**over):
    c = MatrixSchedule.constant
    base = dict(state_dim=1, input_dim=1, t0=0.0, T=1.0,
                A=c([[0.0]]), B=c([[1.0]]), Q=c([[0.0]]), R=c([[1.0]]),
                J_T=np.array([[1.0]]))
    base.update(over)
    return LQProblem(**base)


def test_validate_accepts_standard_problem():
    assert validate_problem(_scalar_problem()).valid


def test_validate_flags_semidefinite_r():
    report = validate_problem(_scalar_problem(R=MatrixSchedule.constant([[0.0]])))
    assert not report.valid
    assert any("R not uniformly positive definite" in v.message for v in report.violations)
    v = report.violations[0]
    assert v.eigenvalue == pytest.approx(0.0, abs=1e-12)


def test_validate_flags_zero_terminal_weight():
    report = validate_problem(_scalar_problem(J_T=np.array([[0.0]])))
    assert not report.valid
    assert any("J_T not positive definite" in v.message for v in report.violations)


def test_validate_flags_indefinite_q_with_time():
    q = MatrixSchedule.sampled_linear([0.0, 1.0], [[[1.0]], [[-1.0]]])
    report = validate_problem(_scalar_problem(Q=q))
    bad = [v for v in report.violations if "Q" in v.message]
    assert bad and bad[0].time is not None and bad[0].time > 0.5


def test_problem_requires_increasing_horizon():
    with pytest.raises(ValueError):
        _scalar_problem(t0=1.0, T=0.0)


def test_problem_requires_domain_coverage():
    short = MatrixSchedule.sampled_linear([0.0, 0.5], [[[0.0]], [[1.0]]])
    with pytest.raises(ValueError):
        _scalar_problem(A=short)


def test_problem_breakpoints_union():
    p = _scalar_problem(
        A=MatrixSchedule.piecewise_constant([0.3], [[[0.0]], [[1.0]]]),
        Q=MatrixSchedule.sampled_linear([0.0, 0.6, 1.0], [[[0.0]], [[1.0]], [[0.0]]]))
    assert np.allclose(p.breakpoints(), [0.3, 0.6])


def test_restricted_problem_shifts_start():
    p = _scalar_problem()
    sub = p.restricted(0.25)
    assert sub.t0 == 0.25 and sub.T == p.T
    assert p.restricted(-0.5).t0 == -0.5  # constant schedules reach back before t0
    with pytest.raises(HorizonMismatchError):
        p.restricted(1.5)


def test_trajectory_horizon_mismatch_rejected():
    ts1 = np.linspace(0, 1, 11)
    ts2 = np.linspace(0, 2, 11)
    mk = lambda ts: dense_from_nodes(ts, np.zeros((ts.size, 1)), np.zeros((ts.size, 1)))
    with pytest.raises(HorizonMismatchError):
        ControlledTrajectory(mk(ts1), mk(ts2))


def test_dynamics_defect_small_for_rolled_out_trajectory(p2):
    rng = np.random.default_rng(3)
    traj = random_trajectory(p2, rng, steps=400)
    assert dynamics_defect(p2, traj) < 1e-6


def test_dynamics_defect_large_for_inconsistent_pair(p2):
    ts = np.linspace(0, 1, 21)
    x = dense_from_nodes(ts, ts[:, None] ** 2, 2 * ts[:, None])
    u = dense_from_nodes(ts, np.zeros((21, 1)), np.zeros((21, 1)))
    assert dynamics_defect(p2, ControlledTrajectory(x, u)) > 0.1


def test_problem_is_frozen(p1):
    with pytest.raises(dataclasses.FrozenInstanceError):
        p1.t0 = 0.5
    assert not p1.J_T.flags.writeable
