import math
import tracemalloc

import numpy as np
import pytest

from lqkernel import kernel, riccati
from lqkernel.errors import DegenerateProblemError, InfeasibleInterpolationError
from lqkernel.kernel import KernelOperator, kernel_trajectory
from lqkernel.model import LQProblem, MatrixSchedule, dynamics_defect
from lqkernel.ode import build_grid
from lqkernel.problems import random_problem, random_trajectory, rollout
from lqkernel.solver import (evaluate_cost, solve_feedback, solve_kernel,
                             solve_multipoint)
from dense_nodes import dense_from_nodes


def test_kernel_route_scalar_energy(p1, operator_cache):
    res = solve_kernel(operator_cache(p1, 700), [1.0])
    assert res.value == pytest.approx(0.5, abs=1e-8)
    assert res.covectors[0][1][0] == pytest.approx(0.5, abs=1e-8)
    assert res.trajectory.x.eval(1.0)[0] == pytest.approx(0.5, abs=1e-8)
    assert np.max(np.abs(res.trajectory.u.values + 0.5)) < 1e-7
    assert res.method == "kernel"


def test_kernel_route_unit_cost(p2, operator_cache):
    res = solve_kernel(operator_cache(p2, 700), [1.0])
    assert res.value == pytest.approx(1.0, abs=1e-9)
    for s in (0.25, 0.8):
        assert res.trajectory.x.eval(s)[0] == pytest.approx(math.exp(-s), abs=1e-8)


def test_kernel_route_zero_state(p1, operator_cache):
    res = solve_kernel(operator_cache(p1, 700), [0.0])
    assert res.value == 0.0
    assert np.max(np.abs(res.trajectory.x.values)) == 0.0


def test_feedback_matches_kernel_route(p1, operator_cache):
    op = operator_cache(p1, 700)
    rk = solve_kernel(op, [1.0])
    rf = solve_feedback(op, [1.0])
    ts = rk.trajectory.x.times
    gap = np.max(np.abs(rk.trajectory.x.eval_many(ts) - rf.trajectory.x.eval_many(ts)))
    assert gap < 1e-6
    assert rf.value == pytest.approx(rk.value, abs=1e-8)


def test_solves_on_a_shared_operator_match_fresh_solves_bit_for_bit(dint):
    x0 = [1.0, -0.4]
    fresh = [solve(KernelOperator(dint, 300), x0) for solve in (solve_kernel, solve_feedback)]
    op = KernelOperator(dint, 300)
    shared = [solve(op, x0) for solve in (solve_kernel, solve_feedback)]
    for a, b in zip(fresh, shared):
        assert a.value == b.value
        for sol in ("x", "u"):
            for f in ("v_start", "v_end", "d_start", "d_end"):
                assert np.array_equal(getattr(getattr(a.trajectory, sol), f),
                                      getattr(getattr(b.trajectory, sol), f))


def test_feedback_value_unit_cost(p2):
    assert solve_feedback(KernelOperator(p2, 600), [1.0]).value == pytest.approx(1.0, abs=1e-9)


def test_feedback_zero_state(p2):
    res = solve_feedback(KernelOperator(p2, 300), [0.0])
    assert res.value == 0.0
    assert np.max(np.abs(res.trajectory.u.values)) == 0.0


def test_feedback_solves_no_dual_riccati(dint, monkeypatch):
    calls = []
    original = kernel._dual_riccati_on

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(kernel, "_dual_riccati_on", counted)
    op = KernelOperator(dint, 300)
    res = solve_feedback(op, [1.0, 0.0])
    assert calls == []
    assert res.value > 0.0
    assert op.M is op.M
    assert len(calls) == 1


def test_route_agreement_random(random_problems, operator_cache):
    for p in random_problems[:2]:
        op = operator_cache(p, 1200)
        x0 = np.ones(p.state_dim)
        rk = solve_kernel(op, x0)
        rf = solve_feedback(op, x0)
        assert abs(rk.value - rf.value) <= 1e-6 * (1.0 + rf.value)
        ts = rk.trajectory.x.times
        gap = np.max(np.abs(rk.trajectory.x.eval_many(ts)
                            - rf.trajectory.x.eval_many(ts)))
        assert gap <= 1e-5 * (1.0 + np.linalg.norm(x0))


def test_routes_start_from_x0_under_ill_conditioned_riccati_value():
    # an uncontrolled, fast-decaying mode, rotated into both coordinates, makes
    # J(t0) nearly singular; both solves roll the closed loop from t0, so the
    # feedback start is x0 itself and the kernel route stays close to it.
    # Reading either off the section K(., t0) would invert J(t0) and lose both.
    c = MatrixSchedule.constant
    rot = np.array([[math.cos(0.6), -math.sin(0.6)], [math.sin(0.6), math.cos(0.6)]])
    p = LQProblem(2, 1, 0.0, 1.0, c(rot @ np.diag([0.3, -9.3]) @ rot.T),
                  c(rot @ [[1.0], [0.0]]), c(rot @ np.diag([1.0, 0.0]) @ rot.T),
                  c([[1.0]]), np.eye(2))
    op = KernelOperator(p, 800)
    assert np.linalg.cond(op.J.eval(0.0)) > 1e8
    x0 = np.array([1.0, -0.5])
    xk = solve_kernel(op, x0).trajectory.x
    xf = solve_feedback(op, x0).trajectory.x
    assert np.linalg.norm(xf.eval(0.0) - x0) <= 1e-15 * np.linalg.norm(x0)
    assert np.max(np.abs(xk.values - xf.values)) <= 1e-7


def test_cost_of_solution_equals_value(p2, dint, operator_cache):
    for p in (p2, dint):
        res = solve_kernel(operator_cache(p, 1200), np.ones(p.state_dim))
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


def _rendezvous(n, m, k):
    rng = np.random.default_rng(101)
    p = random_problem(rng, n, m)
    traj = random_trajectory(p, rng)
    times = np.linspace(p.t0, p.T, k)
    return p, list(zip(times, traj.x.eval_many(times)))


def test_multipoint_caches_no_section_and_builds_one_table(monkeypatch):
    import lqkernel.kernel as kernel_module
    import lqkernel.riccati as riccati_module
    import lqkernel.solver as solver_module

    built, operators = [], []
    original = riccati_module._hamiltonian_table

    def counting(problem, grid):
        built.append(grid.size - 1)
        return original(problem, grid)

    class Recorded(KernelOperator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            operators.append(self)

    for module in (kernel_module, riccati_module):
        monkeypatch.setattr(module, "_hamiltonian_table", counting)
    monkeypatch.setattr(solver_module, "KernelOperator", Recorded)
    solve_multipoint(*_rendezvous(4, 2, 3), 400)
    (op,) = operators
    assert built == [op.grid.size - 1]


def _traced_peak(run) -> float:
    """The tracemalloc peak of `run()`, in bytes above what was traced before."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def test_multipoint_peak_memory():
    # tracemalloc peak of one solve at (N, m, k) = (8, 4, 5), 2000 steps:
    # 18.5 MB with one Hamiltonian table, held by the operator, and no
    # closed-loop or J-derivative tables (18.5 MB too when the flows
    # dropped H and kept those), 31.3 MB with separate A, S, Q and W tables
    # beside H and five cached N x N sections
    problem, constraints = _rendezvous(8, 4, 5)
    peak = _traced_peak(lambda: solve_multipoint(problem, constraints, 2000))
    assert peak < 25e6, f"peak {peak / 1e6:.1f} MB"


def test_dual_riccati_peak_memory():
    # tracemalloc peak of M at (N, m) = (8, 4), 2000 steps, with the H table
    # it is solved on: 18.5 MB when the sweep swaps H's blocks one block of
    # intervals at a time and H stays with the operator, 24.6 MB with a
    # block-swapped copy of the whole table beside H, 16.4 MB when M owned
    # H and dropped each slot once swapped, 24.7 MB with A, S and Q tables
    # kept beside a dual table built from them
    problem = random_problem(np.random.default_rng(101), 8, 4)
    peak = _traced_peak(lambda: KernelOperator(problem, 2000).M)
    assert peak < 21e6, f"peak {peak / 1e6:.1f} MB"


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


def _control_problem(kind):
    """N = 2 problems whose B is wide, has equal columns, or is zero."""
    c = MatrixSchedule.constant
    A = MatrixSchedule.polynomial([[[0.0, 1.0], [-1.0, 0.2]], [[0.3, 0.0], [0.5, -0.4]]])
    if kind == "wide_B":
        rng = np.random.default_rng(3)
        B = rng.normal(size=(2, 3))
        Ls = rng.normal(size=(2, 3, 3))
        R = MatrixSchedule.sampled_linear([0.0, 1.0], Ls @ np.swapaxes(Ls, 1, 2) + 0.5 * np.eye(3))
    elif kind == "duplicate_columns":
        B, R = np.array([[0.0, 0.0], [1.0, 1.0]]), c(np.diag([1.0, 4.0]))
    else:
        B, R = np.zeros((2, 1)), c([[1.0]])
    return LQProblem(2, B.shape[1], 0.0, 1.0, A, c(B), c([[1.0, 0.2], [0.2, 0.5]]), R,
                     np.eye(2))


def _reference_control(p, ts, side, x, xd):
    """R^{-1/2} pinv(B R^{-1/2}) (x' - A x), one-sided toward `side`."""
    w, V = np.linalg.eigh(p.R.eval_many(ts, side))
    Rm12 = (V / np.sqrt(w)[:, None, :]) @ np.swapaxes(V, 1, 2)
    resid = xd - np.einsum("kij,kj->ki", p.A.eval_many(ts, side), x)
    pinv = np.linalg.pinv(p.B.eval_many(ts, side) @ Rm12)
    return np.einsum("kij,kjl,kl->ki", Rm12, pinv, resid)


# the controls read off the costate are the minimal-R-norm controls of the
# kernel's trajectories, and a section's control jumps by -R^{-1} B' p at t,
# also at each interior time of a sum of sections
@pytest.mark.parametrize("kind", ["wide_B", "duplicate_columns", "zero_B"])
def test_costate_controls_are_minimal_r_norm_controls(kind):
    p = _control_problem(kind)
    op = KernelOperator(p, 600, extra_nodes=[0.61234])  # 0.5 is a uniform node
    pvec, x0 = np.array([0.7, -0.4]), np.array([1.0, -0.5])
    target = random_trajectory(p, np.random.default_rng(5))
    times = [0.25, 0.61234, 1.0]
    trajs = {t: kernel_trajectory(op, [(t, pvec)]) for t in (0.0, 0.5, 0.61234, 1.0)}
    multi = [(0.0, -pvec), (0.5, pvec[::-1]), (0.61234, 2.0 * pvec)]
    trajs["sum"] = kernel_trajectory(op, multi)
    trajs["kernel"] = solve_kernel(op, x0).trajectory
    trajs["feedback"] = solve_feedback(op, x0).trajectory
    trajs["multipoint"] = solve_multipoint(
        p, list(zip(times, target.x.eval_many(times))), 600).trajectory
    for key, tr in trajs.items():
        assert dynamics_defect(p, tr) <= 1e-10, key
        x, u = tr.x, tr.u
        for ts, side, xv, xd, uv in ((x.times[:-1], 1, x.v_start, x.d_start, u.v_start),
                                     (x.times[1:], -1, x.v_end, x.d_end, u.v_end)):
            ref = _reference_control(p, ts, side, xv, xd)
            assert np.max(np.abs(uv - ref)) <= 1e-10 * np.max(np.abs(ref)), key
    for t, u, q in ((0.5, trajs[0.5].u, pvec), (0.61234, trajs[0.61234].u, pvec),
                    *((t, trajs["sum"].u, q) for t, q in multi[1:])):
        W = np.linalg.solve(p.R.eval_many([t])[0], p.B.eval_many([t])[0].T)
        jump = u.eval(t, side=1) - u.eval(t, side=-1)
        assert np.max(np.abs(jump + W @ q)) <= 1e-10 * (1.0 + np.max(np.abs(W @ q)))
        assert t in u.jump_nodes() or kind == "zero_B"


def test_evaluate_cost_examples(p1):
    ts = np.linspace(0.0, 1.0, 101)
    x = dense_from_nodes(ts, ts[:, None], np.ones((101, 1)))
    u = dense_from_nodes(ts, np.ones((101, 1)), np.zeros((101, 1)))
    from lqkernel.model import ControlledTrajectory
    assert evaluate_cost(p1, ControlledTrajectory(x, u), 400) == pytest.approx(2.0, abs=1e-10)
    zero = ControlledTrajectory(
        dense_from_nodes(ts, np.zeros((101, 1)), np.zeros((101, 1))),
        dense_from_nodes(ts, np.zeros((101, 1)), np.zeros((101, 1))))
    assert evaluate_cost(p1, zero, 100) == 0.0


def test_multipoint_adding_satisfied_constraint_keeps_value(p2, operator_cache):
    op = operator_cache(p2, 900)
    base = solve_kernel(op, [1.0])
    mid = base.trajectory.x.eval(0.5)
    res = solve_multipoint(p2, [(0.0, [1.0]), (0.5, mid)], 900)
    assert res.value == pytest.approx(base.value, rel=1e-6)


def test_degenerate_kernel_diagonal_raises():
    # a terminal weight spanning 15 orders of magnitude clips to singular
    c = MatrixSchedule.constant
    p = LQProblem(2, 1, 0.0, 1.0, c(np.zeros((2, 2))), c(np.zeros((2, 1))),
                  c(np.zeros((2, 2))), c([[1.0]]), np.diag([1.0, 1e15]))
    with pytest.raises(DegenerateProblemError):
        solve_kernel(KernelOperator(p, 150), [0.0, 1.0])


def test_rollout_helper_respects_control_pieces(p2):
    edges = np.array([0.0, 0.4, 1.0])
    vals = np.array([[1.0], [-2.0]])
    traj = rollout(p2, [0.0], edges, vals, steps=300)
    assert traj.u.eval(0.4, side=1)[0] == -2.0
    assert traj.u.eval(0.4, side=-1)[0] == 1.0
    assert np.allclose(traj.u.jump_nodes(), [0.4])
    # x(t) = t on the first piece (x' = u = 1 from 0)
    assert traj.x.eval(0.3)[0] == pytest.approx(0.3, abs=1e-10)


_FIELDS = ("v_start", "v_end", "d_start", "d_end")


def test_rollout_runs_a_family_of_trajectories_as_one_sweep():
    rng = np.random.default_rng([5, 3])
    p = random_problem(rng)
    n, m = p.state_dim, p.input_dim
    edges = np.linspace(p.t0, p.T, 7)
    x0, vals = rng.normal(size=(n, 10)), rng.normal(size=(6, m, 10))
    family = rollout(p, x0, edges, vals, 500)
    assert family.x.v_start.shape[1:] == (n, 10) and family.u.v_start.shape[1:] == (m, 10)
    # one column is the vector call bit for bit; ten match it within roundoff
    one = rollout(p, x0[:, :1], edges, vals[:, :, :1], 500)
    for c in range(10):
        single = rollout(p, x0[:, c], edges, vals[:, :, c], 500)
        for fam, col, sol in ((family.x, one.x, single.x), (family.u, one.u, single.u)):
            assert np.array_equal(fam.times, sol.times)
            for f in _FIELDS:
                want = getattr(sol, f)
                if c == 0:
                    assert np.array_equal(getattr(col, f)[..., 0], want)
                got = getattr(fam, f)[..., c]
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
