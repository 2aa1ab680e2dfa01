"""Acceptance suite: one test per exit criterion, each printing a status line.

Run with `pytest tests/test_acceptance.py -v -s` to see the measured defects.
Problem set: the two scalar benchmarks with known closed forms, the double
integrator, and five seeded random problems (N <= 4).  Criteria that pin a
step count use it exactly; section-heavy checks run at 2000 steps where no
count is pinned.  c12 runs the whole `verify` checklist on 26 seeded random
problems of its own.
"""

import math

import numpy as np
import pytest

from lqkernel.cli import run_verification
from lqkernel.kernel import (KernelOperator, lq_inner_product, reproducing_residual,
                             shooting_diagonal)
from lqkernel.model import MatrixSchedule
from lqkernel.ode import build_grid, rk4_affine, schedule_stage_table
from lqkernel.oracle import discrete_value
from lqkernel.problems import random_problem
from lqkernel.riccati import solve_adjoint
from lqkernel.solver import evaluate_cost, solve_feedback, solve_kernel, solve_multipoint

STEPS = 4000
SECTION_STEPS = 2000


@pytest.fixture(scope="session")
def problem_set(p1, p2, dint, random_problems):
    named = [("scalar-energy", p1), ("scalar-unit", p2), ("double-integrator", dint)]
    named += [(f"random-{k}", p) for k, p in enumerate(random_problems)]
    return named


@pytest.fixture(scope="session")
def section_problems(p1, p2, dint, random_problems):
    return [("scalar-energy", p1), ("scalar-unit", p2),
            ("double-integrator", dint), ("random-0", random_problems[0])]


def _x0(problem):
    n = problem.state_dim
    return np.ones(n) / math.sqrt(n)


def _report(criterion, label, defect, tol, passed=None):
    ok = (defect <= tol) if passed is None else passed
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion} ({label}): "
          f"defect {defect:.3e} vs tolerance {tol:g}")
    return ok


def test_c01_kernel_diagonal_inverts_value_hessian(problem_set, operator_cache):
    worst = 0.0
    for name, p in problem_set:
        op = operator_cache(p, STEPS)
        eye = np.eye(p.state_dim)
        queries = np.concatenate([
            [p.t0], p.t0 + (p.T - p.t0) * np.array([0.25, 0.5, 0.75]), [p.T]])
        for tq in queries:
            defect = np.linalg.norm(op.J.eval(float(tq))
                                    @ op.diagonal(float(tq)) - eye)
            worst = max(worst, defect)
    assert _report(1, "kernel diagonal vs inverse Riccati, 5 query times", worst, 1e-5)
    assert worst <= 1e-5


def test_c01b_restarted_bvp_diagonal_inverts_value_hessian(section_problems,
                                                           operator_cache):
    # K_t(t, t) from the shooting BVP of the problem restarted at t: a route
    # that solves no Riccati equation
    worst = 0.0
    for name, p in section_problems:
        J = operator_cache(p, SECTION_STEPS).J
        eye = np.eye(p.state_dim)
        for frac in (0.0, 0.25, 0.5, 0.75):
            tq = p.t0 + frac * (p.T - p.t0)
            K_tt = shooting_diagonal(KernelOperator(p.restricted(tq), SECTION_STEPS), tq)
            worst = max(worst, np.linalg.norm(J.eval(tq) @ K_tt - eye))
    assert _report("1b", "restarted BVP diagonal vs inverse Riccati, 4 query times",
                   worst, 1e-5)
    assert worst <= 1e-5


def test_c01c_full_space_bvp_diagonal_inverts_j_plus_p(section_problems,
                                                       operator_cache):
    # on the whole space K(t, t) = (J(t) + P(t))^{-1}, with P the forward
    # arrival cost; the operator reads its sections off that inverse, and
    # the shooting BVP with the costate jump at t solves no Riccati equation
    worst = 0.0
    for name, p in section_problems:
        op = operator_cache(p, SECTION_STEPS)
        eye = np.eye(p.state_dim)
        for frac in (0.25, 0.5, 0.75):
            tq = p.t0 + frac * (p.T - p.t0)
            J_plus_P = np.linalg.inv(op.entry(tq, tq))
            K_tt = shooting_diagonal(KernelOperator(p, SECTION_STEPS, extra_nodes=[tq]), tq)
            worst = max(worst, np.linalg.norm(K_tt @ J_plus_P - eye))
    assert _report("1c", "full-space BVP diagonal vs inverse of J + P, 3 query times",
                   worst, 1e-5)
    assert worst <= 1e-5


def test_c02_riccati_duality_along_grid(problem_set, operator_cache):
    worst = 0.0
    for name, p in problem_set:
        worst = max(worst, float(operator_cache(p, STEPS).duality_defects().max()))
    assert _report(2, "J(t) M(t) = I at every grid node", worst, 1e-6)
    assert worst <= 1e-6


def test_c03_closed_forms(p1, p2, operator_cache):
    op1 = operator_cache(p1, STEPS)
    op2 = operator_cache(p2, STEPS)
    defects = []

    defects.append(abs(op1.J.eval(0.0)[0, 0] - 0.5))
    for t in (0.0, 0.25, 0.6, 1.0):
        defects.append(abs(op1.M.eval(t)[0, 0] - (2.0 - t)))
    defects.append(abs(solve_kernel(op1, [1.0]).value - 0.5))
    for s, t in ((0.5, 0.25), (0.3, 0.9), (1.0, 1.0), (0.0, 0.5)):
        want = (2.0 - s) * (2.0 - t) / (2.0 - min(s, t))
        defects.append(abs(op1.entry(s, t)[0, 0] - want))

    defects.append(float(np.max(np.abs(op2.J.values - 1.0))))
    for s, t in ((0.5, 1.0), (0.25, 0.7), (0.0, 0.0), (0.8, 0.2)):
        want = math.exp(-max(s, t)) * math.cosh(min(s, t))
        defects.append(abs(op2.entry(s, t)[0, 0] - want))

    worst = max(defects)
    assert _report(3, "scalar closed forms for J, M, V, K", worst, 1e-6)
    assert worst <= 1e-6


def test_c04_value_triple_agreement(problem_set, operator_cache):
    worst_kf, worst_oracle = 0.0, 0.0
    for name, p in problem_set:
        op = operator_cache(p, STEPS)
        x0 = _x0(p)
        vk = solve_kernel(op, x0).value
        vf = solve_feedback(op, x0).value
        worst_kf = max(worst_kf, abs(vk - vf) / (1.0 + vf))
        v_h = discrete_value(p, x0, 2000)
        v_h2 = discrete_value(p, x0, 4000)
        extrapolated = 2.0 * v_h2 - v_h
        worst_oracle = max(worst_oracle, abs(extrapolated - vf) / (1.0 + abs(vf)))
    ok1 = _report(4, "kernel vs feedback value", worst_kf, 1e-6)
    ok2 = _report(4, "Richardson oracle vs feedback value", worst_oracle, 1e-4)
    assert ok1 and ok2


def test_c05_reproducing_property(section_problems, operator_cache):
    from lqkernel.problems import random_trajectory

    rng = np.random.default_rng(50501)
    worst = 0.0
    for name, p in section_problems:
        pool = np.sort(rng.uniform(p.t0, p.T, size=5))
        op = operator_cache(p, SECTION_STEPS, extra_nodes=pool)  # column times are nodes
        for _ in range(10):
            traj = random_trajectory(p, rng, steps=1000)
            xnorm = math.sqrt(max(lq_inner_product(p, traj, traj, 2000), 0.0))
            for _ in range(3):
                t = float(pool[rng.integers(0, pool.size)])
                pv = rng.normal(size=p.state_dim)
                r = reproducing_residual(op, traj, t, pv, quad_intervals=2000)
                worst = max(worst, r / (1.0 + xnorm * np.linalg.norm(pv)))
    assert _report(5, "reproducing property on random trajectories", worst, 1e-4)
    assert worst <= 1e-4


def test_c06_hermitian_symmetry_and_gram_psd(section_problems, operator_cache):
    rng = np.random.default_rng(60606)
    worst_sym, worst_psd = 0.0, 0.0
    for name, p in section_problems:
        pool = np.sort(rng.uniform(p.t0, p.T, size=5))
        op = operator_cache(p, SECTION_STEPS, extra_nodes=pool)  # column times are nodes
        for _ in range(20):
            i, j = rng.integers(0, pool.size, size=2)
            Kst = op.entry(float(pool[i]), float(pool[j]))
            Kts = op.entry(float(pool[j]), float(pool[i]))
            worst_sym = max(worst_sym, np.linalg.norm(Kst - Kts.T)
                            / (1.0 + np.linalg.norm(Kst)))
        gram, _ = op.gram(pool[:4])
        min_eig = float(np.linalg.eigvalsh(gram)[0])
        worst_psd = max(worst_psd, -min_eig / np.trace(gram))
    ok1 = _report(6, "Hermitian symmetry on random pairs", worst_sym, 1e-5)
    ok2 = _report(6, "4-point Gram min eigenvalue (relative)", worst_psd, 1e-7)
    assert ok1 and ok2


def test_c07_adjoint_identity(problem_set, operator_cache):
    worst = 0.0
    for name, p in problem_set:
        op = operator_cache(p, STEPS)
        x0 = _x0(p)
        xbar = solve_kernel(op, x0).trajectory.x
        costate = solve_adjoint(p, xbar)
        J_vals = op.J.eval_many(costate.times)
        resid = costate.values + np.einsum("kij,kj->ki", J_vals,
                                           xbar.eval_many(costate.times))
        sup = float(np.max(np.linalg.norm(resid, axis=1)))
        worst = max(worst, sup / (1.0 + np.linalg.norm(x0)))
    assert _report(7, "costate equals -J times optimal state", worst, 1e-6)
    assert worst <= 1e-6


def test_c08_optimality_against_feasible_perturbations(dint, operator_cache):
    from lqkernel.problems import random_trajectory

    rng = np.random.default_rng(80808)
    op = operator_cache(dint, STEPS)
    x0 = np.array([1.0, 0.0])
    opt = solve_kernel(op, x0)
    opt_cost = evaluate_cost(dint, opt.trajectory, 1000)
    margin = 0.0
    for _ in range(100):
        pert = random_trajectory(dint, rng, steps=1000, zero_start=True)
        # the cost is the squared norm: cost(x + d) = cost(x) + 2<x, d> + cost(d)
        cost = (opt_cost + 2.0 * lq_inner_product(dint, opt.trajectory, pert, 1000)
                + evaluate_cost(dint, pert, 1000))
        margin = max(margin, opt.value - cost)
    assert _report(8, "optimal cost below 100 perturbed costs", margin, 1e-7)
    assert margin <= 1e-7


def test_c09_multipoint_representer(p1):
    res = solve_multipoint(p1, [(0.0, [0.0]), (1.0, [1.0])], STEPS)
    d_value = abs(res.value - 2.0)
    d_cov = max(abs(res.covectors[0][1][0] + 1.0), abs(res.covectors[1][1][0] - 2.0))
    ts = np.linspace(0.0, 1.0, 401)
    d_traj = float(np.max(np.abs(res.trajectory.x.eval_many(ts)[:, 0] - ts)))
    ok = (_report(9, "two-point value", d_value, 1e-5)
          and _report(9, "two-point covectors", d_cov, 1e-5)
          and _report(9, "two-point trajectory sup-norm", d_traj, 1e-5))
    assert ok


def test_c10_integrator_orders():
    one = MatrixSchedule.constant([[1.0]])

    def rk4_err(steps):
        # Y' = Y from Y(0) = 1 on [0, 1]
        grid = build_grid(0.0, 1.0, steps)
        sol = rk4_affine(grid, schedule_stage_table(one, grid), np.array([[1.0]]))
        return abs(sol.eval(1.0)[0, 0] - math.e)

    errors = {s: rk4_err(s) for s in (50, 100, 200, 400)}
    ratios = [errors[s] / errors[2 * s] for s in (50, 100, 200)]
    ok_rk4 = all(14.0 <= r <= 18.0 for r in ratios)
    _report(10, f"RK4 halving ratios {[f'{r:.1f}' for r in ratios]}",
            max(abs(r - 16.0) for r in ratios), 2.0, passed=ok_rk4)

    from lqkernel.problems import double_integrator_problem
    p = double_integrator_problem()
    x0 = np.array([1.0, 0.0])
    v1 = discrete_value(p, x0, 500)
    v2 = discrete_value(p, x0, 1000)
    v4 = discrete_value(p, x0, 2000)
    ratio = abs(v1 - v2) / abs(v2 - v4)
    ok_oracle = 1.7 <= ratio <= 2.3
    _report(10, f"oracle Richardson halving ratio {ratio:.2f}",
            abs(ratio - 2.0), 0.3, passed=ok_oracle)
    assert ok_rk4 and ok_oracle


# both generators, each a contiguous block of seeds and the seeds whose
# oracle check once failed at the verify tolerance, taken whole
C12_PROBLEMS = ([([s, 2], 2) for s in (*range(10), 13, 22, 38)]
                + [([s, 3], None) for s in (*range(10), 11, 21, 73)])


def test_c12_verify_certifies_random_problems():
    worst, failed = 0.0, []
    for seed, dim in C12_PROBLEMS:
        report = run_verification(random_problem(np.random.default_rng(seed), dim), 0, STEPS)
        failed += [(seed, c["name"]) for c in report["checks"] if not c["passed"]]
        worst = max(worst, *(c["defect"] / c["tolerance"] for c in report["checks"]))
    ok = _report(12, f"verify on {len(C12_PROBLEMS)} random problems, worst defect "
                 "over tolerance", worst, 1.0, passed=not failed)
    assert ok, failed
