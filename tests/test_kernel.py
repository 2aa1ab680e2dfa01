import math
import pathlib

import numpy as np
import pytest

from lqkernel.cli import load_problem_file
from lqkernel.errors import BvpDegenerateError, HorizonMismatchError
from lqkernel.kernel import (KernelOperator, lq_inner_product,
                             kernel_trajectory, reproducing_residual,
                             restarted_diagonals, shooting_diagonal)
from lqkernel.linalg import _symmetrized, spd_inverse
from lqkernel.model import ControlledTrajectory, LQProblem, MatrixSchedule
from lqkernel.ode import DenseSolution
from lqkernel.problems import random_problem, random_trajectory, rollout
from lqkernel.solver import solve_feedback, solve_kernel
from dense_nodes import dense_from_nodes


def k_scalar_energy(s, t):
    """Closed form for the terminal-weighted scalar integrator."""
    return (2.0 - s) * (2.0 - t) / (2.0 - min(s, t))


def k_scalar_unit(s, t):
    """Closed form with unit state cost: exp(-max) cosh(min)."""
    return math.exp(-max(s, t)) * math.cosh(min(s, t))


# -- diagonal -----------------------------------------------------------------

def test_diagonal_matches_inverse_riccati_closed_form(p1):
    op = KernelOperator(p1, 800)
    assert op.diagonal(0.0)[0, 0] == pytest.approx(2.0, abs=1e-8)
    assert op.diagonal(0.5)[0, 0] == pytest.approx(1.5, abs=1e-8)


def test_diagonal_fixed_point(p2):
    op = KernelOperator(p2, 400)
    for tq in (0.0, 0.3, 0.9):
        assert op.diagonal(tq)[0, 0] == pytest.approx(1.0, abs=1e-10)


def test_diagonal_at_terminal_time(p1):
    assert np.array_equal(KernelOperator(p1, 100).diagonal(1.0), spd_inverse(p1.J_T))


def test_diagonal_rejects_queries_after_terminal(p1):
    with pytest.raises(HorizonMismatchError):
        KernelOperator(p1, 100).diagonal(1.5)


def test_diagonal_extends_before_problem_start(p1):
    # the diagonal map lives on ]-inf, T]; constant schedules extend freely,
    # so the problem restarted before t0 reads it there
    assert KernelOperator(p1.restricted(-0.5), 600).diagonal(-0.5)[0, 0] == pytest.approx(
        2.5, abs=1e-8)


def test_diagonal_rejects_queries_before_schedule_domain():
    # sampled schedules are defined on their knots only, so no restart
    # before t0 can evaluate them
    p = random_problem(np.random.default_rng(100), 2)
    with pytest.raises(HorizonMismatchError, match="B domain"):
        p.restricted(p.t0 - 0.1)


def test_diagonal_symmetric_positive(dint, operator_cache):
    K00 = operator_cache(dint, 900).diagonal(dint.t0)
    assert np.max(np.abs(K00 - K00.T)) < 1e-10
    assert np.min(np.linalg.eigvalsh(K00)) > 0


# -- first column -------------------------------------------------------------

def _first_column(op):
    """K(., t0) = Phi_cl(., t0) K(t0, t0), from the value K(t0, t0) at t0."""
    t0 = op.problem.t0
    return op.trajectory([(t0, op.diagonal(t0))]).x


def _section(op, t):
    """The whole section K(., t): the identity family of `kernel_trajectory`."""
    return kernel_trajectory(op, [(t, np.eye(op.problem.state_dim))]).x


def test_column_closed_form(p1):
    col = _first_column(KernelOperator(p1, 800))
    assert col.eval(0.5)[0, 0] == pytest.approx(1.5, abs=1e-8)


def test_column_exponential_decay(p2):
    col = _first_column(KernelOperator(p2, 800))
    assert col.eval(1.0)[0, 0] == pytest.approx(math.exp(-1.0), abs=1e-8)


def test_column_start_equals_diagonal(p1):
    op = KernelOperator(p1, 600)
    assert np.allclose(_first_column(op).eval(0.0), op.diagonal(0.0), atol=1e-10)


# -- full entries from the J and P flows --------------------------------------

def test_full_entry_unit_cost_closed_form(p2):
    got = KernelOperator(p2, 800).entry(0.5, 1.0)[0, 0]
    assert got == pytest.approx(k_scalar_unit(0.5, 1.0), abs=1e-6)


def test_full_entry_energy_closed_form(p1):
    got = KernelOperator(p1, 800).entry(0.5, 0.25)[0, 0]
    assert got == pytest.approx(1.5, abs=1e-6)


def test_full_entry_consistent_with_diagonal(p1):
    op = KernelOperator(p1, 600)
    assert abs(op.entry(0.0, 0.0)[0, 0] - op.diagonal(0.0)[0, 0]) < 1e-6


def test_full_grid_of_closed_form_values(p1, p2, operator_cache):
    op1 = operator_cache(p1, 700)
    op2 = operator_cache(p2, 700)
    for s in (0.0, 0.3, 0.8):
        for t in (0.15, 0.6, 1.0):
            assert op1.entry(s, t)[0, 0] == pytest.approx(k_scalar_energy(s, t), abs=1e-7)
            assert op2.entry(s, t)[0, 0] == pytest.approx(k_scalar_unit(s, t), abs=1e-7)


def test_full_agrees_with_column_route(dint, operator_cache):
    op = operator_cache(dint, 900)
    col = _first_column(op)
    sec = _section(op, dint.t0)
    rng = np.random.default_rng(11)
    for s in rng.uniform(0.0, 1.0, size=10):
        assert np.max(np.abs(sec.eval(float(s)) - col.eval(float(s)))) < 1e-6


def test_full_hermitian_symmetry(random_problems, operator_cache):
    rng = np.random.default_rng(13)
    for p in random_problems[:2]:
        pool = np.sort(rng.uniform(p.t0, p.T, size=4))
        op = operator_cache(p, 800, extra_nodes=pool)
        for _ in range(6):
            i, j = rng.integers(0, pool.size, size=2)
            Kst = op.entry(float(pool[i]), float(pool[j]))
            Kts = op.entry(float(pool[j]), float(pool[i]))
            assert (np.linalg.norm(Kst - Kts.T)
                    <= 1e-5 * (1.0 + np.linalg.norm(Kst)))


def test_kernel_section_stays_in_trajectory_space(dint, operator_cache):
    # dynamics residual of K(., t) p must lie in range(B) away from s = t
    op = operator_cache(dint, 900)
    t, pvec = 0.4, np.array([1.0, -0.5])
    sec = kernel_trajectory(op, [(t, pvec)]).x
    ts = sec.times[(np.abs(sec.times - t) > 1e-9)][::40]
    A = dint.A.eval_many(ts)
    B = dint.B.eval_many(ts)
    resid = sec.deriv_many(ts) - np.einsum("kij,kj->ki", A, sec.eval_many(ts))
    for k in range(ts.size):
        Bp = B[k] @ np.linalg.pinv(B[k])
        off_range = resid[k] - Bp @ resid[k]
        assert np.linalg.norm(off_range) < 1e-6


def test_section_derivative_jump_at_column_time(p1, operator_cache):
    # u = k' jumps by -p at s = t for the scalar energy problem
    op = operator_cache(p1, 700)
    sec = _section(op, 0.5)
    left, right = sec.deriv_many([0.5, 0.5], [-1, 1])[:, 0, 0]
    assert left == pytest.approx(0.0, abs=1e-8)
    assert right == pytest.approx(-1.0, abs=1e-8)


def test_sections_share_one_set_of_flow_tables(dint, monkeypatch):
    import lqkernel.kernel as kernel_module
    import lqkernel.riccati as riccati_module

    built = []
    original = riccati_module._hamiltonian_table

    def counting(problem, grid):
        built.append(grid.size - 1)
        return original(problem, grid)

    for module in (kernel_module, riccati_module):
        monkeypatch.setattr(module, "_hamiltonian_table", counting)
    times = [0.2, 0.45, 0.7, 0.9]
    op = KernelOperator(dint, 300, extra_nodes=times)
    for t in times:
        _section(op, t)
    op.trajectory([(dint.t0, np.ones(2))])
    # the solves and both shooting routes read the same table
    solve_kernel(op, [1.0, -0.4])
    solve_feedback(op, [1.0, -0.4])
    shooting_diagonal(op, 0.45)
    restarted_diagonals(op, [0.0, 0.45])
    assert np.array_equal(op.J.times, op.grid)
    assert built == [op.grid.size - 1]


@pytest.mark.parametrize("n", range(1, 9))
def test_gram_and_kernel_trajectory_match_the_cached_sections(n):
    rng = np.random.default_rng([n, 19])
    p = random_problem(rng, state_dim=n)
    pins = np.sort(rng.uniform(p.t0, p.T, 3))
    op = KernelOperator(p, 300, extra_nodes=pins)
    gram, _ = op.gram(pins)
    raw = np.hstack([_section(op, t).eval_many(pins).reshape(-1, n) for t in pins])
    want = 0.5 * (raw + raw.T)
    assert np.max(np.abs(gram - want)) <= 1e-13 * np.max(np.abs(want))
    # a sum of terms is the sum of its one-term trajectories: terms at the
    # pins, at t0 and T, two on one node, and families of two covectors
    t = [float(s) for s in pins]
    for times, shape in ((t, (n,)), ([p.t0, t[1], p.T], (n,)),
                         ([t[0], t[0], t[2]], (n,)), (t, (n, 2))):
        terms = [(s, rng.normal(size=shape)) for s in times]
        tr = kernel_trajectory(op, terms)
        parts = [kernel_trajectory(op, [term]) for term in terms]
        assert np.array_equal(tr.x.v_end[:-1], tr.x.v_start[1:])
        # u's slopes are chords, (u_end - u_start) / h, so only its values
        for sol, fields in (("x", ("v_start", "v_end", "d_start", "d_end")),
                            ("u", ("v_start", "v_end"))):
            for field in fields:
                ref = sum(getattr(getattr(part, sol), field) for part in parts)
                got = getattr(getattr(tr, sol), field)
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), (sol, field)


def test_kernel_trajectory_walks_each_half_of_the_grid_once(monkeypatch):
    # a 5-term sum at N = 8 carries along F and along G once each, not once
    # per term
    from lqkernel import riccati
    p = random_problem(np.random.default_rng([8, 31]), state_dim=8)
    pins = np.linspace(p.t0, p.T, 7)[1:-1]
    op = KernelOperator(p, 400, extra_nodes=pins)
    carried = []
    original = riccati._Flow.carry

    def counting(flow, k, value, nodes):
        out = original(flow, k, value, nodes)
        carried.append(out.shape[0])
        return out

    monkeypatch.setattr(riccati._Flow, "carry", counting)
    kernel_trajectory(op, [(float(t), np.ones(8)) for t in pins])
    assert 0 < sum(carried) <= 2 * (op.grid.size - 1)


def test_column_times_must_be_grid_nodes(dint):
    # every reader of a column or read time rejects one off the grid and
    # names the way to put it there
    op = KernelOperator(dint, 300)
    off = 0.5 * float(op.grid[7] + op.grid[8])
    for read in (lambda: op.entry(0.3, off), lambda: kernel_trajectory(op, [(off, np.ones(2))]),
                 lambda: op.trajectory([(float(op.grid[7]), np.ones(2)), (off, np.ones(2))])):
        with pytest.raises(ValueError, match="extra_nodes"):
            read()
    with pytest.raises(HorizonMismatchError):
        op.entry(0.3, dint.T + 1.0)
    with pytest.raises(ValueError, match="extra_nodes"):
        op.entry(off, 0.3)
    assert np.all(np.isfinite(KernelOperator(dint, 300, extra_nodes=[off]).entry(0.3, off)))


# -- independent collocation oracle for the t = t0 system ---------------------

def test_bvp_against_scipy_collocation_oracle():
    from scipy.integrate import solve_bvp

    from lqkernel.model import LQProblem, MatrixSchedule

    # smooth 2-state problem so the collocation mesh converges quickly
    rng = np.random.default_rng(2718)
    n = 2
    A_mats = [rng.normal(size=(n, n)) * 0.6, rng.normal(size=(n, n)) * 0.4]
    Qc = rng.normal(size=(n, n)) * 0.7
    Jc = rng.normal(size=(n, n)) * 0.6
    p = LQProblem(
        n, 1, 0.0, 1.0,
        MatrixSchedule.polynomial(A_mats, origin=0.0),
        MatrixSchedule.constant(rng.normal(size=(n, 1))),
        MatrixSchedule.constant(Qc @ Qc.T / n),
        MatrixSchedule.constant([[0.8]]),
        Jc @ Jc.T / n + 0.4 * np.eye(n),
    )

    def rhs(ts, Z):
        A = p.A.eval_many(ts)
        B = p.B.eval_many(ts)
        Q = p.Q.eval_many(ts)
        S = B @ np.linalg.inv(p.R.eval_many(ts)) @ np.swapaxes(B, 1, 2)
        K = Z[:n * n].T.reshape(-1, n, n)
        P = Z[n * n:].T.reshape(-1, n, n)
        top = A @ K + S @ P
        bot = Q @ K - np.swapaxes(A, 1, 2) @ P
        return np.concatenate([top.reshape(-1, n * n).T, bot.reshape(-1, n * n).T])

    def bc(z0, zT):
        K_T = zT[:n * n].reshape(n, n)
        P_0 = z0[n * n:].reshape(n, n)
        P_T = zT[n * n:].reshape(n, n)
        return np.concatenate([
            (P_0 + np.eye(n)).ravel(),
            (P_T + p.J_T @ K_T).ravel(),
        ])

    ts = np.linspace(p.t0, p.T, 80)
    guess = np.zeros((2 * n * n, ts.size))
    guess[n * n:] = -np.eye(n).ravel()[:, None]
    oracle = solve_bvp(rhs, bc, ts, guess, tol=1e-9, max_nodes=20000)
    assert oracle.success

    op = KernelOperator(p, 1200)
    for s in (p.t0, 0.4 * p.T, p.T):
        K_oracle = oracle.sol(s)[:n * n].reshape(n, n)
        assert np.max(np.abs(op.entry(float(s), p.t0) - K_oracle)) < 1e-6


# -- a long unstable horizon ---------------------------------------------------

def _unstable_problem(a):
    """x1' = a x1 + x2, x2' = u on [0, 10]: single shooting integrates the
    unstable mode e^(a s) across the whole horizon."""
    c = MatrixSchedule.constant
    return LQProblem(2, 1, 0.0, 10.0, c([[a, 1.0], [0.0, 0.0]]), c([[0.0], [1.0]]),
                     c(np.eye(2)), c([[1.0]]), np.eye(2))


# single shooting is off by 2.0e-5 (diagonal) and 4.4e-4 (Hermitian defect)
# at a = 3.6 and raises from a = 4; the J and P flows restart before either
# grows by more than e^4
@pytest.mark.parametrize("a", [3.0, 3.6, 4.0, 10.0, 30.0])
def test_operator_accuracy_on_unstable_horizon(a):
    times = [2.5, 5.0, 7.5]
    op = KernelOperator(_unstable_problem(a), 4000, extra_nodes=times)
    diag = np.linalg.norm(op.J.eval(0.0) @ op.entry(0.0, 0.0) - np.eye(2))
    gram, defect = op.gram(times)
    assert diag <= 1e-5
    assert defect / np.max(np.abs(gram)) <= 1e-5


def _stiff_scalar():
    # x' = 800 x + u, Q = 0, R = 1, J_T = 1; at 200 steps h * a = 4.  J is
    # 1600 up to e^(-800) away from T, so K(t, t) = 1/1600 there and 1 at T,
    # and K(s, t) decays like e^(-800 |s - t|)
    c = MatrixSchedule.constant
    return LQProblem(1, 1, 0.0, 1.0, c([[800.0]]), c([[1.0]]), c([[0.0]]), c([[1.0]]),
                     np.eye(1))


def test_stiff_scalar_sections():
    times = [0.0, 0.5, 1.0]
    gram, _ = KernelOperator(_stiff_scalar(), 200, extra_nodes=times).gram(times)
    assert np.allclose(gram, np.diag([1 / 1600, 1 / 1600, 1.0]), rtol=1e-12, atol=1e-100)


def test_stiff_scalar_diagonal():
    # the dual flow M under A-stable Magnus-Pade steps, where RK4 on the dual
    # equation overflowed
    op = KernelOperator(_stiff_scalar(), 200)
    for t in (0.0, 0.5):
        assert op.diagonal(t)[0, 0] == pytest.approx(1 / 1600, rel=1e-12)


def test_single_shooting_degeneracy_is_reported():
    with pytest.raises(BvpDegenerateError):
        shooting_diagonal(KernelOperator(_unstable_problem(4.0), 4000), 0.0)


def test_restarted_diagonals_degeneracy_is_reported():
    # the t0 carrier integrates e^(4 s) over the whole horizon, as
    # `shooting_diagonal` at t0 does
    with pytest.raises(BvpDegenerateError, match=r"column time 0\.0 "):
        restarted_diagonals(KernelOperator(_unstable_problem(4.0), 4000), [0.0, 2.5, 5.0, 7.5])


# -- restarted shooting diagonals ---------------------------------------------

_SWITCHED = (pathlib.Path(__file__).resolve().parents[1]
             / "scripts" / "problems" / "switched_tracking.json")


@pytest.mark.parametrize("seed", [None, 2, 5, 7])
def test_restarted_diagonals_match_restarted_single_shooting(seed):
    # one forward sweep of the operator's grid against one restarted
    # single-shooting solve per time, each on its own grid: the gaps are
    # 1.1e-15 (switched_tracking) to 3.9e-15 ([7, 3]) of max |K|
    p = (load_problem_file(str(_SWITCHED))[0] if seed is None
         else random_problem(np.random.default_rng([seed, 3])))
    times = p.t0 + (p.T - p.t0) * np.array([0.0, 0.25, 0.5, 0.75])
    got = restarted_diagonals(KernelOperator(p, 4000, extra_nodes=times), times)
    want = np.stack([shooting_diagonal(KernelOperator(p.restricted(t), 4000), t)
                     for t in map(float, times)])
    assert np.max(np.abs(got - want)) <= 2e-14 * np.max(np.abs(want))
    # at t0 the carrier of `shooting_diagonal` is the identity: the same solve
    op = KernelOperator(p, 4000)
    assert np.array_equal(restarted_diagonals(op, [p.t0])[0], shooting_diagonal(op, p.t0))


def test_shooting_diagonal_refuses_times_off_the_operators_grid(p1):
    # a time outside the horizon [0, 1] raises, as `KernelOperator.diagonal` does
    op = KernelOperator(p1, 100)
    for t in (1.5, -0.5):
        with pytest.raises(HorizonMismatchError):
            shooting_diagonal(op, t)
    with pytest.raises(ValueError, match="not a grid node"):
        shooting_diagonal(op, 0.505)
    K = shooting_diagonal(KernelOperator(p1, 100, extra_nodes=[0.505]), 0.505)
    assert K[0, 0] == pytest.approx(k_scalar_energy(0.505, 0.505), abs=1e-9)


def test_restarted_diagonals_take_times_in_any_order(p1):
    # K_t(t, t) = M(t) = 2 - t on the scalar energy problem; T gives J_T^{-1}
    op = KernelOperator(p1, 400)
    got = restarted_diagonals(op, [0.5, 0.0, 0.5, 1.0])
    assert got.shape == (4, 1, 1)
    assert got[:, 0, 0] == pytest.approx([1.5, 2.0, 1.5, 1.0], abs=1e-10)
    assert np.array_equal(got[0], got[2])
    with pytest.raises(HorizonMismatchError, match="outside"):
        restarted_diagonals(op, [0.5, 1.5])
    with pytest.raises(ValueError, match="not a grid node"):
        restarted_diagonals(op, [0.5, 0.3001])


# -- Gram matrices ------------------------------------------------------------

def _gram(problem, times, steps):
    return KernelOperator(problem, steps, extra_nodes=times).gram(times)[0]


def test_gram_scalar_unit_cost(p2):
    got = _gram(p2, [0.0, 1.0], 800)
    want = np.array([[k_scalar_unit(0, 0), k_scalar_unit(0, 1)],
                     [k_scalar_unit(1, 0), k_scalar_unit(1, 1)]])
    assert np.max(np.abs(got - want)) < 1e-6


def test_gram_scalar_energy(p1):
    got = _gram(p1, [0.0, 1.0], 800)
    assert np.max(np.abs(got - np.array([[2.0, 1.0], [1.0, 1.0]]))) < 1e-6


def test_gram_single_time_is_diagonal(p1):
    got = _gram(p1, [0.0], 600)
    assert np.max(np.abs(got - KernelOperator(p1, 600).diagonal(0.0))) < 1e-6


def test_gram_positive_semidefinite(dint, random_problems, operator_cache):
    rng = np.random.default_rng(17)
    for p in [dint, random_problems[1]]:
        times = np.sort(rng.uniform(p.t0, p.T, size=3))
        op = operator_cache(p, 800, extra_nodes=times)
        gram, defect = op.gram(times)
        assert defect < 1e-7 * (1.0 + np.trace(gram))
        eigs = np.linalg.eigvalsh(gram)
        assert eigs[0] >= -1e-7 * np.trace(gram)


# -- inner product and reproducing property -----------------------------------

def _traj_from_formulas(ts, x_fn, xd_fn, u_fn, ud_fn):
    x = dense_from_nodes(ts, x_fn(ts)[:, None], xd_fn(ts)[:, None])
    u = dense_from_nodes(ts, u_fn(ts)[:, None], ud_fn(ts)[:, None])
    return ControlledTrajectory(x, u)


def test_inner_product_exponential_pair(p2):
    ts = np.linspace(0.0, 1.0, 401)
    tr = _traj_from_formulas(ts, lambda t: np.exp(-t), lambda t: -np.exp(-t),
                             lambda t: -np.exp(-t), lambda t: np.exp(-t))
    # terminal e^{-2} plus integral of 2 e^{-2s} over [0, 1] is exactly 1
    assert lq_inner_product(p2, tr, tr, 800) == pytest.approx(1.0, abs=1e-8)


def test_inner_product_zero_trajectory(p2):
    ts = np.linspace(0.0, 1.0, 51)
    zero = _traj_from_formulas(ts, lambda t: 0 * t, lambda t: 0 * t,
                               lambda t: 0 * t, lambda t: 0 * t)
    other = _traj_from_formulas(ts, lambda t: t, lambda t: 1 + 0 * t,
                                lambda t: 1 + 0 * t, lambda t: 0 * t)
    assert lq_inner_product(p2, zero, other, 200) == 0.0


def test_inner_product_linear_ramp(p1):
    ts = np.linspace(0.0, 1.0, 101)
    tr = _traj_from_formulas(ts, lambda t: t, lambda t: 1 + 0 * t,
                             lambda t: 1 + 0 * t, lambda t: 0 * t)
    assert lq_inner_product(p1, tr, tr, 400) == pytest.approx(2.0, abs=1e-12)


def test_inner_product_rejects_horizon_mismatch(p1):
    ts = np.linspace(0.0, 0.5, 21)
    short = _traj_from_formulas(ts, lambda t: t, lambda t: 1 + 0 * t,
                                lambda t: 1 + 0 * t, lambda t: 0 * t)
    with pytest.raises(HorizonMismatchError):
        lq_inner_product(p1, short, short, 100)


def _copy(traj):
    return ControlledTrajectory(*(
        DenseSolution(*(np.array(getattr(sol, f)) for f in
                        ("times", "v_start", "v_end", "d_start", "d_end")))
        for sol in (traj.x, traj.u)))


def test_inner_product_of_a_trajectory_with_itself_matches_its_copy():
    for s in range(4):
        rng = np.random.default_rng([s, 46])
        p = random_problem(rng)
        traj = random_trajectory(p, rng, steps=300)
        assert lq_inner_product(p, traj, traj, 500) == lq_inner_product(p, traj, _copy(traj), 500)


def test_inner_product_locates_the_points_once_per_trajectory_grid(monkeypatch):
    # one locate per grid (x and u share theirs); a trajectory passed twice
    # is evaluated once
    rng = np.random.default_rng(47)
    p = random_problem(rng, state_dim=2)
    traj = random_trajectory(p, rng, steps=300)
    op = KernelOperator(p, 400, extra_nodes=[0.3])
    section = kernel_trajectory(op, [(0.3, np.array([1.0, -0.5]))])
    located, combined = [], []

    def counting(original, calls):
        def counted(sol, *args, **kwargs):
            calls.append(sol.times.size)
            return original(sol, *args, **kwargs)
        return counted

    for name, calls in (("_locate", located), ("_combine", combined)):
        monkeypatch.setattr(DenseSolution, name, counting(getattr(DenseSolution, name), calls))
    lq_inner_product(p, traj, traj, 200)
    assert located == [traj.x.times.size]
    assert len(combined) == 2  # x and u, once each
    located.clear()
    lq_inner_product(p, traj, section, 200)
    assert located == [traj.x.times.size, section.x.times.size]


def test_reproducing_on_optimal_trajectory(p2, operator_cache):
    ts = np.linspace(0.0, 1.0, 401)
    tr = _traj_from_formulas(ts, lambda t: np.exp(-t), lambda t: -np.exp(-t),
                             lambda t: -np.exp(-t), lambda t: np.exp(-t))
    op = operator_cache(p2, 1000)
    r = reproducing_residual(op, tr, 0.0, [1.0], quad_intervals=1000)
    assert r <= 1e-5


def test_reproducing_zero_covector(p1, operator_cache):
    ts = np.linspace(0.0, 1.0, 101)
    tr = _traj_from_formulas(ts, lambda t: t, lambda t: 1 + 0 * t,
                             lambda t: 1 + 0 * t, lambda t: 0 * t)
    op = operator_cache(p1, 700)
    assert reproducing_residual(op, tr, 0.3, [0.0], quad_intervals=400) == 0.0


def test_reproducing_ramp_against_kinked_section(p1, operator_cache):
    ts = np.linspace(0.0, 1.0, 101)
    tr = _traj_from_formulas(ts, lambda t: t, lambda t: 1 + 0 * t,
                             lambda t: 1 + 0 * t, lambda t: 0 * t)
    op = operator_cache(p1, 700)
    r = reproducing_residual(op, tr, 0.5, [1.0], quad_intervals=1000)
    assert r <= 1e-5


def test_reproducing_random_trajectories(random_problems, operator_cache):
    p = random_problems[2]
    rng = np.random.default_rng(23)
    pool = np.sort(rng.uniform(p.t0, p.T, size=3))
    op = operator_cache(p, 900, extra_nodes=pool)
    for _ in range(3):
        tr = random_trajectory(p, rng, steps=700)
        t = float(pool[rng.integers(0, pool.size)])
        pv = rng.normal(size=p.state_dim)
        r = reproducing_residual(op, tr, t, pv, quad_intervals=900)
        xnorm = math.sqrt(max(lq_inner_product(p, tr, tr, 900), 0.0))
        assert r <= 1e-4 * (1.0 + xnorm * np.linalg.norm(pv))


def _family(p, rng, b, steps):
    edges = np.linspace(p.t0, p.T, 5)
    return rollout(p, rng.normal(size=(p.state_dim, b)), edges,
                   rng.normal(size=(4, p.input_dim, b)), steps)


@pytest.mark.parametrize("seed", range(3))
def test_family_inner_products_and_residuals_match_the_column_calls(seed):
    rng = np.random.default_rng([seed, 53])
    p = random_problem(rng)
    op = KernelOperator(p, 600)
    trajs = _family(p, rng, 4, 400)
    t = float(p.t0 + 0.37 * (p.T - p.t0))  # a uniform node of the operator's 600-step grid
    P = rng.normal(size=(p.state_dim, 4))
    norms = lq_inner_product(p, trajs, trajs, 300)
    residuals = reproducing_residual(op, trajs, t, P, 300)
    sections = kernel_trajectory(op, [(t, P)])
    cross = lq_inner_product(p, trajs, sections, 300)
    assert norms.shape == residuals.shape == cross.shape == (4,)
    for c in range(4):
        tr = trajs.columns(c)
        # the same Simpson points and data: the quadrature is exact per column
        assert norms[c] == lq_inner_product(p, tr, tr, 300)
        # the section family is carried as N x 4, the column alone as N x 1
        section = kernel_trajectory(op, [(t, P[:, c])])
        assert abs(cross[c] - lq_inner_product(p, tr, section, 300)) <= 1e-14 * abs(cross[c])
        assert abs(residuals[c] - reproducing_residual(op, tr, t, P[:, c], 300)) <= 1e-14
        assert residuals[c] <= 1e-6 * (1.0 + math.sqrt(norms[c]) * np.linalg.norm(P[:, c]))


@pytest.mark.parametrize("seed", range(3))
def test_residuals_at_one_time_per_column(seed):
    rng = np.random.default_rng([seed, 59])
    p = random_problem(rng)
    times = p.t0 + (p.T - p.t0) * np.array([0.2, 0.37, 0.81])
    op = KernelOperator(p, 600, extra_nodes=times)
    trajs = _family(p, rng, 4, 400)
    P = rng.normal(size=(p.state_dim, 4))
    # every column at one time: the scalar-time call, bit for bit
    assert np.array_equal(reproducing_residual(op, trajs, np.full(4, times[1]), P, 300),
                          reproducing_residual(op, trajs, times[1], P, 300))
    # mixed times: one section family with a term per time against the
    # column calls, whose sections carry and break the quadrature at their
    # own time only; the gap was at most 2.1e-16 of 1 + |x| |p| over seeds 0-19
    ts = times[[0, 1, 0, 2]]
    residuals = reproducing_residual(op, trajs, ts, P, 300)
    norms = lq_inner_product(p, trajs, trajs, 300)
    for c in range(4):
        single = reproducing_residual(op, trajs.columns(c), ts[c], P[:, c], 300)
        scale = 1.0 + math.sqrt(norms[c]) * np.linalg.norm(P[:, c])
        assert abs(residuals[c] - single) <= 1e-14 * scale
        assert residuals[c] <= 1e-6 * scale


def test_family_jump_nodes_are_the_union_of_its_columns(monkeypatch):
    # column 0 jumps by 1e-3 at 0.2, column 1 by 1e7 at 0.6: against the
    # family's largest value the first jump would pass for roundoff
    times = np.linspace(0.0, 1.0, 6)
    v = np.zeros((5, 1, 2))
    v[:, 0, 0] = [1.0, 1.001, 1.001, 1.001, 1.001]
    v[:, 0, 1] = [1e7, 1e7, 1e7, 2e7, 2e7]
    family = DenseSolution(times, v, v, 0 * v, 0 * v)
    columns = [DenseSolution(times, v[..., c], v[..., c], 0 * v[..., c], 0 * v[..., c])
               for c in range(2)]
    assert [list(col.jump_nodes()) for col in columns] == [[times[1]], [times[3]]]
    assert list(family.jump_nodes()) == [times[1], times[3]]
    # the Simpson breaks of two families are every column's jump nodes
    import lqkernel.kernel as kernel_module
    breaks = []
    original = kernel_module._simpson_points

    def recorded(problem, extra_breaks, quad_intervals):
        breaks.append(np.asarray(extra_breaks))
        return original(problem, extra_breaks, quad_intervals)

    monkeypatch.setattr(kernel_module, "_simpson_points", recorded)
    p = random_problem(np.random.default_rng([1, 53]))
    op = KernelOperator(p, 300)
    trajs = _family(p, np.random.default_rng(53), 3, 200)
    P = np.random.default_rng(54).normal(size=(p.state_dim, 3))
    sections = kernel_trajectory(op, [(p.t0 + 0.4 * (p.T - p.t0), P)])
    lq_inner_product(p, trajs, sections, 100)
    union = {float(t) for fam in (trajs, sections) for c in range(3)
             for t in fam.columns(c).u.jump_nodes()}
    assert set(breaks[0].tolist()) == union and len(union) == 4


@pytest.mark.parametrize("case", ["random", "restarted"])
def test_entries_and_gram_are_the_section_values_bit_for_bit(case):
    if case == "random":
        p = random_problem(np.random.default_rng([2, 29]))
        steps, inner = 300, np.sort(np.random.default_rng(29).uniform(p.t0, p.T, 3))
    else:  # many restart blocks, so the carries enter blocks on both sides
        p, steps, inner = _unstable_problem(30.0), 4000, np.array([2.5, 3.3, 7.5])
    times = np.concatenate([[p.t0], inner, [p.T]])
    n, k = p.state_dim, times.size
    ops = [KernelOperator(p, steps, extra_nodes=times)]
    if case == "restarted":  # its times are nodes of the default grid too
        ops.append(KernelOperator(p, steps))
    for op in ops:
        if case == "restarted":
            assert op._J_flow.block < op.grid.size // 10
        # the reference is the whole carried section, read where asked
        want = np.stack([_section(op, float(t)).eval_many(times) for t in times], axis=1)
        assert np.array_equal(op.entries(times), want)
        assert np.array_equal([[op.entry(s, t) for t in times] for s in times], want)
        gram, defect = op.gram(times)
        want_gram, want_defect = _symmetrized(want.transpose(0, 2, 1, 3).reshape(k * n, k * n))
        assert np.array_equal(gram, want_gram) and defect == want_defect


def test_section_trajectory_control_is_minimal(dint, operator_cache):
    op = operator_cache(dint, 900)
    sec = kernel_trajectory(op, [(0.35, np.array([0.7, -0.2]))])
    # recovered control must reproduce the section's own dynamics residual
    ts = sec.x.times[::60]
    B = dint.B.eval_many(ts)
    lhs = sec.x.deriv_many(ts) - np.einsum(
        "kij,kj->ki", dint.A.eval_many(ts), sec.x.eval_many(ts))
    rhs = np.einsum("kij,kj->ki", B, sec.u.eval_many(ts))
    assert np.max(np.abs(lhs - rhs)) < 1e-6
