import dataclasses
import json
import math
import pathlib
import re

import numpy as np
import pytest

from lqkernel import riccati
from lqkernel.cli import load_problem_file, main, problem_to_dict
from lqkernel.errors import HorizonMismatchError, IntegrationBlowupError, PositivityLostError
from lqkernel.kernel import KernelOperator
from lqkernel.linalg import spd_inverse
from lqkernel.model import LQProblem, MatrixSchedule
from lqkernel.ode import _rk4_maps, build_grid, schedule_stage_table
from lqkernel.problems import random_problem
from lqkernel.riccati import solve_adjoint
from lqkernel.solver import solve_feedback, solve_kernel
from dense_nodes import dense_from_nodes
from rk4_reference import rk4_increment, stage_slot, stagewise_rk4

BUNDLED = sorted((pathlib.Path(__file__).resolve().parents[1]
                  / "scripts" / "problems").glob("*.json"))


def test_riccati_scalar_closed_form(p1):
    # -J' = -J^2 with J(1) = 1 gives J(t) = 1/(2-t)
    J = KernelOperator(p1, 1000).J
    assert J.eval(0.0)[0, 0] == pytest.approx(0.5, abs=1e-8)
    assert J.eval(0.5)[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-8)


def test_riccati_fixed_point(p2):
    J = KernelOperator(p2, 500).J
    assert np.max(np.abs(J.values - 1.0)) < 1e-10


def test_riccati_zero_rhs_constant(zero_drive):
    J = KernelOperator(zero_drive, 200).J
    assert np.max(np.abs(J.values - zero_drive.J_T)) < 1e-13


def test_dual_riccati_scalar_closed_form(p1):
    M = KernelOperator(p1, 1000).M
    assert M.eval(0.0)[0, 0] == pytest.approx(2.0, abs=1e-8)
    assert M.eval(0.25)[0, 0] == pytest.approx(1.75, abs=1e-8)


def test_dual_riccati_fixed_point(p2):
    M = KernelOperator(p2, 500).M
    assert np.max(np.abs(M.values - 1.0)) < 1e-10


def test_dual_riccati_zero_rhs(zero_drive):
    M = KernelOperator(zero_drive, 200).M
    assert np.max(np.abs(M.values - spd_inverse(zero_drive.J_T))) < 1e-13


def test_terminal_conditions_exact(p1):
    op = KernelOperator(p1, 300)
    assert np.array_equal(op.J.values[-1], p1.J_T)
    assert np.array_equal(op.M.values[-1], spd_inverse(p1.J_T))


def test_solutions_symmetric_and_positive(random_problems):
    for p in random_problems[:3]:
        op = KernelOperator(p, 800)
        for sol in (op.J, op.M):
            vals = sol.values
            assert np.max(np.abs(vals - np.swapaxes(vals, 1, 2))) < 1e-9
            assert np.min(np.linalg.eigvalsh(vals)[:, 0]) > 0
        assert op.max_asymmetry_J >= 0.0


def test_duality_along_grid(p1, p2, dint, random_problems):
    for p in [p1, p2, dint] + list(random_problems[:2]):
        op = KernelOperator(p, 1500)
        assert op.duality_defects().max() < 1e-6


def test_feedback_gain_values(p1, p2, zero_drive):
    # u = -R^{-1} B' J x: gain -J(0) = -0.5 on p1, -1 along p2, 0 without B
    u1 = solve_feedback(KernelOperator(p1, 500), [1.0]).trajectory.u
    assert u1.eval(0.0)[0] == pytest.approx(-0.5, abs=1e-8)
    traj2 = solve_feedback(KernelOperator(p2, 500), [1.0]).trajectory
    assert traj2.u.eval(0.3)[0] == pytest.approx(-traj2.x.eval(0.3)[0], abs=1e-9)
    uz = solve_feedback(KernelOperator(zero_drive, 100), [1.0, -1.0]).trajectory.u
    assert np.array_equal(uz.values, np.zeros((101, 1)))


def test_riccati_value_examples(p1, p2):
    # the feedback route's value is the cost-to-go x0' J(t0) x0
    assert solve_feedback(KernelOperator(p1, 800), [1.0]).value == pytest.approx(0.5, abs=1e-8)
    assert solve_feedback(KernelOperator(p2, 400), [2.0]).value == pytest.approx(4.0, abs=1e-9)
    assert solve_feedback(KernelOperator(p1, 800), [0.0]).value == 0.0


def test_adjoint_constant_costate(p1):
    # optimal trajectory from x0 = 1 is (2-s)/2; A = Q = 0 keeps p constant
    ts = np.linspace(0.0, 1.0, 201)
    xbar = dense_from_nodes(ts, ((2 - ts) / 2)[:, None], np.full((201, 1), -0.5))
    p = solve_adjoint(p1, xbar)
    assert np.max(np.abs(p.values + 0.5)) < 1e-12


def test_adjoint_exponential_costate(p2):
    ts = np.linspace(0.0, 1.0, 301)
    xbar = dense_from_nodes(ts, np.exp(-ts)[:, None], -np.exp(-ts)[:, None])
    p = solve_adjoint(p2, xbar)
    expected = -np.exp(-p.times)[:, None]
    assert np.max(np.abs(p.values - expected)) < 1e-8


def test_adjoint_zero_state(p2):
    ts = np.linspace(0.0, 1.0, 51)
    xbar = dense_from_nodes(ts, np.zeros((51, 1)), np.zeros((51, 1)))
    p = solve_adjoint(p2, xbar)
    assert np.max(np.abs(p.values)) == 0.0


def test_adjoint_rejects_a_trajectory_off_the_horizon(p2):
    # the adjoint runs on xbar's own grid, so that grid must be the horizon
    for hi in (0.5, 2.0):
        ts = np.linspace(0.0, hi, 51)
        xbar = dense_from_nodes(ts, np.ones((51, 1)), np.zeros((51, 1)))
        with pytest.raises(HorizonMismatchError):
            solve_adjoint(p2, xbar)


def test_costate_is_negative_hessian_times_state(dint, random_problems):
    # p(t) = -J(t) xbar(t) along the optimal trajectory
    for p in [dint, random_problems[0]]:
        op = KernelOperator(p, 1200)
        res = solve_kernel(op, np.ones(p.state_dim))
        J = op.J
        pa = solve_adjoint(p, res.trajectory.x)
        resid = pa.values + np.einsum(
            "kij,kj->ki", J.eval_many(pa.times), res.trajectory.x.eval_many(pa.times))
        scale = 1.0 + np.linalg.norm(np.ones(p.state_dim))
        assert np.max(np.linalg.norm(resid, axis=1)) < 1e-6 * scale


def test_value_monotone_in_state_cost(random_problems):
    for p in random_problems[:2]:
        bumped = dataclasses.replace(p, Q=_bump(p.Q, 0.1))
        x0 = np.ones(p.state_dim)
        v0 = solve_feedback(KernelOperator(p, 800), x0).value
        v1 = solve_feedback(KernelOperator(bumped, 800), x0).value
        assert v1 >= v0 - 1e-10


def _bump(Q: MatrixSchedule, eps: float) -> MatrixSchedule:
    eye = np.eye(Q.rows)
    mats = Q.matrices + (eps * eye if Q.kind != "poly" else 0.0)
    if Q.kind == "poly":
        mats = Q.matrices.copy()
        mats[0] = mats[0] + eps * eye
    return MatrixSchedule(Q.kind, Q.rows, Q.cols, mats, Q.knots, Q.origin)


def test_positivity_loss_detected():
    # J' = J^2 + 1.2 crosses zero near t = 0.325 without leaving float range
    c = MatrixSchedule.constant
    bad = LQProblem(1, 1, 0.0, 1.0, c([[0.0]]), c([[1.0]]),
                    c([[-1.2]]), c([[1.0]]), [[1.0]])
    with pytest.raises(PositivityLostError) as exc:
        KernelOperator(bad, 400).J
    assert exc.value.time == pytest.approx(0.3247, abs=0.02)


# -- J from the Hamiltonian flow, and M, against stage-wise RK4 --------------

def _stage_coefficients(p, steps):
    """The grid, and (A, S, Q) on interval k at a stage slot, one at a time."""
    grid = build_grid(p.t0, p.T, steps, p.breakpoints())
    A, B, R, Q = (schedule_stage_table(s, grid) for s in (p.A, p.B, p.R, p.Q))

    def coefficients(k, slot):
        b = B[slot][k]
        return A[slot][k], b @ np.linalg.solve(R[slot][k], b.T), Q[slot][k]

    return grid, coefficients


def _direct_riccati(p, steps):
    """Reference: RK4 straight on -J' = A'J + JA - J S J + Q."""
    grid, coefficients = _stage_coefficients(p, steps)

    def stage(k, slot, J):
        a, S, q = coefficients(k, slot)
        return J @ S @ J - a.T @ J - J @ a - q

    return stagewise_rk4(stage, grid, p.J_T, backward=True)


def _dual_equation(p, steps):
    """The grid, and M' = AM + MA' - S + MQM on interval k at a stage slot."""
    grid, coefficients = _stage_coefficients(p, steps)

    def stage(k, slot, M):
        a, S, q = coefficients(k, slot)
        return a @ M + M @ a.T - S + M @ q @ M

    return grid, stage


def _direct_dual_riccati(p, steps):
    """Reference: RK4 on the dual equation, stage by stage."""
    grid, stage = _dual_equation(p, steps)
    return stagewise_rk4(stage, grid, spd_inverse(p.J_T), backward=True)


def _relative_gaps(J, ref):
    assert np.array_equal(J.times, ref.times)
    return (np.linalg.norm(J.values - ref.values, axis=(1, 2))
            / np.linalg.norm(ref.values, axis=(1, 2)))


def _parity_problems():
    params = [pytest.param(load_problem_file(str(path))[0], id=path.stem)
              for path in BUNDLED]
    rng = np.random.default_rng(30303)
    params += [pytest.param(random_problem(rng, state_dim=n), id=f"random-N{n}")
               for n in (1, 2, 3, 4, 5, 6)]
    return params


@pytest.mark.parametrize("problem", _parity_problems())
def test_hamiltonian_route_matches_direct_riccati(problem):
    J = KernelOperator(problem, 4000).J
    ref = _direct_riccati(problem, 4000)
    assert np.max(_relative_gaps(J, ref)) <= 1e-10
    for got, want in ((J.d_start, ref.d_start), (J.d_end, ref.d_end)):
        assert np.max(np.abs(got - want)) <= 1e-10 * (1.0 + np.max(np.abs(want)))


@pytest.mark.parametrize("problem", _parity_problems())
def test_dual_riccati_loop_matches_stagewise_rk4(problem):
    # M runs Magnus-Pade steps on a Hamiltonian flow, and must be at least as
    # accurate as the stage-wise RK4 loop on the dual equation at the same
    # steps; that loop at 4x the steps is the truth.  At 1000 steps the errors
    # are truncation errors, except on the scalar problems that both methods
    # solve exactly, where the floor covers roundoff
    M = KernelOperator(problem, 1000).M
    rk4 = _direct_dual_riccati(problem, 1000)
    truth = _direct_dual_riccati(problem, 4000).eval_many(M.times)
    err_M, err_rk4 = (np.max(np.linalg.norm(s.values - truth, axis=(1, 2))) for s in (M, rk4))
    assert err_M <= err_rk4 + 1e-15 * np.max(np.linalg.norm(truth, axis=(1, 2)))
    # the node derivatives are the dual equation at the node values
    grid, stage = _dual_equation(problem, 1000)
    assert np.array_equal(grid, M.times)
    for got, slot, vals in ((M.d_start, 0, M.v_start), (M.d_end, 2, M.v_end)):
        want = np.stack([stage(k, slot, v) for k, v in enumerate(vals)])
        assert np.max(np.abs(got - want)) <= 1e-13 * (1.0 + np.max(np.abs(want)))


@pytest.mark.parametrize("problem", [p for p in _parity_problems()
                                     if p.id in {f"random-N{n}" for n in range(2, 7)}])
def test_duality_defect_is_a_discretization_gap(problem):
    # J (RK4) and M (Magnus-Pade) share stage tables but no step map, so
    # J M - I shows their truncation errors at a coarse grid; an M read off
    # J's own discrete flow would leave only roundoff
    assert np.max(KernelOperator(problem, 250).duality_defects()) > 1e-11


def _stress_problem(a, d):
    # Hamiltonian growth rates near a and d over a horizon of 10
    c = MatrixSchedule.constant
    return LQProblem(2, 1, 0.0, 10.0, c([[a, 1.0], [0.0, d]]), c([[0.0], [1.0]]),
                     c(np.eye(2)), c([[1.0]]), np.eye(2))


def _steady_gap(problem):
    """Worst relative gap to the direct flow on [0, 5], off the terminal layer
    where the two discretizations differ by their own truncation errors."""
    ref = _direct_riccati(problem, 4000)
    J = KernelOperator(problem, 4000).J
    return np.max(_relative_gaps(J, ref)[ref.times <= 5.0])


@pytest.mark.parametrize("a, d", [(30.0, 30.0), (30.0, 0.0), (200.0, 0.0)])
def test_reanchored_flow_matches_direct_riccati_under_fast_growth(a, d):
    assert _steady_gap(_stress_problem(a, d)) <= 1e-10


@pytest.mark.parametrize("a, d, block, bound", [
    (30.0, 30.0, 49, 2e-12), (30.0, 0.0, 51, 5e-10), (200.0, 0.0, 7, 2.5e-8)])
def test_restarted_dual_flow_keeps_duality_under_fast_growth(a, d, block, bound):
    # J M - I on [0, 5] was 7.2e-13, 1.6e-10 and 7.7e-9 with M run on H
    # block-swapped; M run without restarts left 1.1e-11 at (30, 30) and
    # blew up at the other two
    op = KernelOperator(_stress_problem(a, d), 4000)
    assert op._J_flow.block == block
    assert np.max(op.duality_defects()[op.grid <= 5.0]) <= bound


@pytest.mark.parametrize("a", [30.0, 200.0])
def test_unbroken_flow_fails_under_mixed_growth_rates(a, monkeypatch):
    # with growth rates a and 1, the fast modes swamp the columns of X
    monkeypatch.setattr(riccati, "_REANCHOR_LOG_GROWTH", 1e300)
    try:
        gap = _steady_gap(_stress_problem(a, 0.0))
    except (IntegrationBlowupError, PositivityLostError):
        gap = math.inf
    assert gap > 1e-10


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_rk4_maps_bit_for_bit_on_bundled_hamiltonians(path):
    p = load_problem_file(str(path))[0]
    grid = build_grid(p.t0, p.T, 600, p.breakpoints())
    (H_lo, H_mid, H_hi), _ = riccati._hamiltonian_table(p, grid)
    h = np.diff(grid)[:, None, None]
    for step, H1, H3 in ((h, H_lo, H_hi), (-h, H_hi, H_lo)):  # forward, backward
        D = _rk4_maps(step, H1, H_mid, H3, None, None, None)[0]
        assert np.array_equal(D, rk4_increment(step, H1, H_mid, H3))


def test_positivity_check_names_the_node_met_first():
    times = np.linspace(0.0, 1.0, 6)
    R = np.tile(np.eye(2), (6, 1, 1))
    riccati._check_positive(times, R, "J")  # every node positive definite
    R[1] = np.diag([1.0, -0.5])
    R[3] = [[1.0, 2.0], [2.0, 1.0]]  # eigenvalues -1 and 3
    with pytest.raises(PositivityLostError) as exc:
        riccati._check_positive(times, R, "J")
    # backward integration meets t = 0.6 first
    assert exc.value.time == times[3]
    assert str(exc.value) == f"J lost positive definiteness at t={times[3]} (min eigenvalue -1.000e+00)"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_positivity_check_rejects_non_finite_nodes(bad):
    # Cholesky passes NaN silently; a non-finite node is a blow-up, named
    # at the largest offending time like a loss of positivity
    times = np.linspace(0.0, 1.0, 6)
    R = np.tile(np.eye(2), (6, 1, 1))
    R[4, 1, 1] = bad
    with pytest.raises(IntegrationBlowupError) as exc:
        riccati._check_positive(times, R, "M")
    assert exc.value.time == times[4]
    R[5] = -np.eye(2)
    with pytest.raises(PositivityLostError) as lost:
        riccati._check_positive(times, R, "M")
    assert lost.value.time == times[5]


def test_escape_through_zero_is_positivity_loss():
    # J' = J^2 + 10 from J(1) = 1 crosses zero at t = 0.903 and escapes to
    # -inf at t = 0.406; the Hamiltonian flow passes the pole, so the first
    # failure met backward is the loss of positivity
    c = MatrixSchedule.constant
    bad = LQProblem(1, 1, 0.0, 1.0, c([[0.0]]), c([[1.0]]),
                    c([[-10.0]]), c([[1.0]]), [[1.0]])
    with pytest.raises(PositivityLostError) as exc:
        KernelOperator(bad, 400).J
    assert exc.value.time == pytest.approx(0.903, abs=0.01)


def test_singular_hamiltonian_state_is_blowup():
    # J' = J^2 from J(2) = -1 is J = 1/(1 - t) = Y/X with Y = -1, X = t - 1;
    # RK4 is exact on this linear flow, so X vanishes exactly at the node t = 1
    c = MatrixSchedule.constant
    bad = LQProblem(1, 1, 0.0, 2.0, c([[0.0]]), c([[1.0]]),
                    c([[0.0]]), c([[1.0]]), [[-1.0]])
    with pytest.raises(IntegrationBlowupError) as exc:
        KernelOperator(bad, 4).J
    assert exc.value.time == 1.0


def _dual_pole(t0):
    # M' = -M^2 from M(2) = 1 is M = 1/(t - 1), with its pole at t = 1
    c = MatrixSchedule.constant
    return LQProblem(1, 1, t0, 2.0, c([[0.0]]), c([[0.0]]),
                     c([[-1.0]]), c([[1.0]]), [[1.0]])


def test_dual_riccati_blowup_reports_time():
    # M = X Y^{-1} with X = 1, Y = t - 1 on a nilpotent flow, where the Pade
    # step is exact, so Y vanishes exactly at the node t = 1
    grid = build_grid(0.0, 2.0, 40)
    H_tab = riccati._hamiltonian_table(_dual_pole(0.0), grid)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationBlowupError) as direct:
            riccati._reanchored_flow(grid, H_tab, np.eye(1),
                                     riccati._reanchor_block(grid, H_tab[1]),
                                     backward=True, dual=True)
        # the diagonal of the problem restarted at 0 solves M on [0, 2]
        with pytest.raises(IntegrationBlowupError) as restart:
            KernelOperator(_dual_pole(1.5).restricted(0.0), 40).diagonal(0.0)
    assert direct.value.time == restart.value.time == 1.0


def _fast_scalar(a):
    """x' = a x + u with Q = R = J_T = 1 on [0, 1], and J(0) in closed form:
    with l = sqrt(a^2 + 1), r = a +- l and C = (1 - r1) / (1 - r2),
    J(0) = (r1 - r2 C e^{-2 l}) / (1 - C e^{-2 l})."""
    c = MatrixSchedule.constant
    problem = LQProblem(1, 1, 0.0, 1.0, c([[a]]), c([[1.0]]), c([[1.0]]), c([[1.0]]), [[1.0]])
    lam = math.sqrt(a * a + 1.0)
    r1, r2 = a + lam, a - lam
    decay = (1.0 - r1) / (1.0 - r2) * math.exp(-2.0 * lam)
    return problem, (r1 - r2 * decay) / (1.0 - decay)


def _resolving_steps(message):
    return int(re.search(r"; (\d+) steps resolve it$", message).group(1))


def test_riccati_refuses_a_step_that_rk4_cannot_resolve(tmp_path, capsys):
    # h a = 160 at 200 steps, where J(0) was off by 0.74 and the command exited 0
    problem, J0 = _fast_scalar(32000.0)
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(problem_to_dict(problem)))
    rc = main(["riccati", str(path), "--steps", "200", "--out", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err.strip()
    assert rc == 3
    assert err.startswith("numerical failure: integration blew up at t=0.995")
    J = KernelOperator(problem, _resolving_steps(err)).J_nodes[0, 0, 0]
    assert J == pytest.approx(J0, rel=1e-12)


def test_dual_flow_refuses_a_step_that_pade_cannot_resolve():
    # h a = 400 at 200 steps, where M(0) J(0) - 1 was 0.98
    problem, J0 = _fast_scalar(80000.0)
    with pytest.raises(IntegrationBlowupError, match=r"^integration blew up at t=0\.995") as exc:
        KernelOperator(problem, 200).M
    assert exc.value.time == 0.995
    M = KernelOperator(problem, _resolving_steps(str(exc.value))).M.values[0, 0, 0]
    assert M * J0 == pytest.approx(1.0, abs=1e-12)


def test_non_normal_fast_coefficients_are_not_refused():
    # h |H|_inf = 50 flags every interval, but H is nilpotent (rho(H) = 0),
    # so a guard on h |H|_inf alone would refuse it; J was within 7.4e-13
    # relative of a 20000-step run at every node
    c = MatrixSchedule.constant
    problem = LQProblem(2, 1, 0.0, 1.0, c([[0.0, 1e4], [0.0, 0.0]]), c([[0.0], [1.0]]),
                        c(np.zeros((2, 2))), c([[1.0]]), np.eye(2))
    op = KernelOperator(problem, 200)
    ref = KernelOperator(problem, 20000).J_nodes[::100]
    gap = np.abs(op.J_nodes - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
    assert np.max(gap) <= 1e-12


def _mixed_kind_problems():
    """Bundled and random problems, and one of poly A, pwc B, samples Q and
    a pwc R whose breakpoint lies within the time tolerance after B's, so
    that the grid merges it into B's node."""
    rng = np.random.default_rng(44)
    mixed = LQProblem(
        2, 1, 0.0, 1.5,
        MatrixSchedule.polynomial(rng.normal(size=(3, 2, 2)) * 0.5, origin=0.2),
        MatrixSchedule.piecewise_constant([0.7], [[[1.0], [0.5]], [[0.2], [1.0]]]),
        MatrixSchedule.sampled_linear([0.0, 0.9, 1.5], [np.eye(2), 2.0 * np.eye(2), np.eye(2)]),
        MatrixSchedule.piecewise_constant([0.7 + 1e-13], [[[1.0]], [[3.0]]]),
        np.eye(2))
    return ([load_problem_file(str(path))[0] for path in BUNDLED] + [mixed]
            + [random_problem(np.random.default_rng([s, 45])) for s in range(8)])


def test_coefficient_tables_match_the_per_slot_evaluation_bit_for_bit():
    for p in _mixed_kind_problems():
        n = p.state_dim
        grid = build_grid(p.t0, p.T, 60, p.breakpoints())
        H_tab, W = riccati._hamiltonian_table(p, grid)
        for slot, H in enumerate(H_tab):
            A = stage_slot(p.A, grid, slot)
            B = stage_slot(p.B, grid, slot)
            R_inv = np.linalg.inv(stage_slot(p.R, grid, slot))
            BT = np.swapaxes(B, 1, 2)
            want = {"A": A, "-S": -(B @ R_inv @ BT), "-Q": -stage_slot(p.Q, grid, slot),
                    "-A'": -np.swapaxes(A, 1, 2)}
            got = {"A": H[:, :n, :n], "-S": H[:, :n, n:], "-Q": H[:, n:, :n],
                   "-A'": H[:, n:, n:]}
            if slot != 1:
                want["W"], got["W"] = R_inv @ BT, W[slot // 2]
                with pytest.raises(ValueError):
                    got["W"][0] = 0.0
            for name in want:
                assert got[name].tobytes() == want[name].tobytes(), (name, slot)
