import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lqkernel.errors import (DomainError, HorizonMismatchError, IntegrationBlowupError,
                             ScheduleDomainError)
from lqkernel.kernel import KernelOperator, kernel_trajectory, lq_inner_product
from lqkernel.model import ControlledTrajectory, MatrixSchedule, dynamics_defect
from lqkernel.ode import (DenseSolution, _affine_sweep, _pade_maps, _rk4_maps, build_grid,
                          rk4_affine, schedule_stage_table)
from lqkernel.problems import rollout, unit_scalar_problem
from lqkernel.solver import check_constraint_times
from dense_nodes import dense_from_nodes
from rk4_reference import rk4_increment, stage_slot, stagewise_rk4


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


def _time_tol(lo, hi):
    """The one time rule: times this close are the same node."""
    return 1e-12 * max(1.0, hi - lo)


def test_build_grid_merges_snaps_closer_than_the_time_tolerance():
    # a sample knot and a control edge one ulp apart (random_problem seed
    # [6, 2]) are one node, the first of the run
    T, knot, edge = 0.8462298896808423, 0.42311494484042117, 0.4231149448404211
    g = build_grid(0.0, T, 1000, snap=[knot, edge, 0.2817090934011437])
    near = g[np.abs(g - knot) <= _time_tol(0.0, T)]
    assert near.tolist() == [edge]


@settings(max_examples=200, deadline=None)
@given(lo=st.floats(-10.0, 10.0), span=st.floats(1e-9, 100.0),
       steps=st.integers(1, 300),
       fracs=st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=6),
       ulps=st.lists(st.integers(-3000, 3000), min_size=1, max_size=6))
def test_build_grid_intervals_exceed_the_time_tolerance(lo, span, steps, fracs, ulps):
    hi = lo + span
    tol = _time_tol(lo, hi)
    assume(hi > lo and (hi - lo) / steps > 4.0 * tol)
    # runs of snaps a few ulps to a few tolerances apart, near the ends too
    base = [lo + f * (hi - lo) for f in fracs] + [lo, hi]
    snap = [b + u * 1e-15 * max(1.0, abs(b)) for b in base for u in ulps]
    g = build_grid(lo, hi, steps, snap)
    assert g[0] == lo and g[-1] == hi
    assert np.all(np.diff(g) > tol)


def _scalar_on(t0, T, **over):
    return dataclasses.replace(unit_scalar_problem(), t0=t0, T=T, **over)


def _dense_eval(t0, T, t):
    ts = np.linspace(t0, T, 5)
    dense_from_nodes(ts, ts[:, None], np.ones((5, 1))).eval(t)


def _samples_eval(t0, T, t):
    MatrixSchedule.sampled_linear([t0, T], [[[1.0]], [[2.0]]]).eval_many([t])


def _domain_cover(t0, T, t):
    # R sampled on [t0, T] for a horizon reaching out to t
    R = MatrixSchedule.sampled_linear([t0, T], [[[1.0]], [[2.0]]])
    _scalar_on(min(t, t0), max(t, T), R=R)


def _section(t0, T, t):
    kernel_trajectory(KernelOperator(_scalar_on(t0, T), 20), [(t, np.eye(1))])


def _constraint_times(t0, T, t):
    check_constraint_times(_scalar_on(t0, T), np.array([t]))


def _diagonal(t0, T, t):
    KernelOperator(_scalar_on(t0, T), 20).diagonal(t)


def _zero_on(lo, hi):
    return dense_from_nodes(np.linspace(lo, hi, 5), np.zeros((5, 1)), np.zeros((5, 1)))


def _trajectory_pair(t0, T, t):
    # a control reaching out to t beside a state on [t0, T]
    ControlledTrajectory(_zero_on(t0, T), _zero_on(min(t, t0), max(t, T)))


def _inner_product(t0, T, t):
    # a trajectory on [t0, T] under a problem whose horizon reaches out to t
    traj = ControlledTrajectory(_zero_on(t0, T), _zero_on(t0, T))
    lq_inner_product(_scalar_on(min(t, t0), max(t, T)), traj, traj, 20)


_HORIZON_CHECKS = [  # (entry point, ends it checks, error, message)
    (_dense_eval, ("t0", "T"), DomainError, "outside"),
    (_samples_eval, ("t0", "T"), ScheduleDomainError, "outside schedule domain"),
    (_domain_cover, ("t0", "T"), ValueError, "does not cover"),
    (_section, ("t0", "T"), HorizonMismatchError, "time .* outside"),
    (_constraint_times, ("t0", "T"), ValueError, "must lie in the horizon"),
    (_diagonal, ("t0", "T"), HorizonMismatchError, "time .* outside"),
    (_trajectory_pair, ("t0", "T"), HorizonMismatchError, "different horizons"),
    (_inner_product, ("t0", "T"), HorizonMismatchError, "does not match horizon"),
]


@pytest.mark.parametrize("t0, T", [(0.0, 0.5), (1.0, 4.0)])
@pytest.mark.parametrize("call, end, error, message", [
    pytest.param(call, end, error, message, id=f"{call.__name__[1:]}-{end}")
    for call, ends, error, message in _HORIZON_CHECKS for end in ends])
def test_time_rule_at_every_horizon_check(call, end, error, message, t0, T):
    # half the time tolerance outside an end is inside up to roundoff; ten
    # times it is outside
    tol = _time_tol(t0, T)
    edge, out = (t0, -1.0) if end == "t0" else (T, 1.0)
    call(t0, T, edge + out * 0.5 * tol)
    with pytest.raises(error, match=message):
        call(t0, T, edge + out * 10.0 * tol)


# a sample knot at 1/2 and a jump one ulp to either side of it are one grid
# node, the first of the two; after the knot, the jump lies just after the
# node and must still act on the interval that starts there
_ULP_SIDES = pytest.mark.parametrize("jump", [np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)],
                                     ids=["before_knot", "after_knot"])


def _knot_at_half(B_jump=None, R_jump=None):
    Q = MatrixSchedule.sampled_linear([0.0, 0.5, 1.0], [[[1.0]], [[2.0]], [[1.0]]])
    pwc = MatrixSchedule.piecewise_constant
    over = {"Q": Q}
    if B_jump is not None:
        over["B"] = pwc([B_jump], [[[1.0]], [[3.0]]])
    if R_jump is not None:
        over["R"] = pwc([R_jump], [[[1.0]], [[4.0]]])
    return _scalar_on(0.0, 1.0, **over)


@_ULP_SIDES
def test_rollout_keeps_the_control_jump_at_a_merged_node(jump):
    p = _knot_at_half()
    vals = np.array([[1.0], [-2.0]])
    near = rollout(p, [1.0], [0.0, jump, 1.0], vals, 100)
    exact = rollout(p, [1.0], [0.0, 0.5, 1.0], vals, 100)
    node = near.u.times[np.abs(near.u.times - 0.5) <= _time_tol(0.0, 1.0)]
    assert node.size == 1 and node[0] in near.u.jump_nodes()
    assert near.u.eval(node[0], -1) == vals[0] and near.u.eval(node[0], 1) == vals[1]
    assert np.max(np.abs(near.x.values - exact.x.values)) <= 1e-14
    assert dynamics_defect(p, near) <= 1e-12


@_ULP_SIDES
def test_pwc_jump_one_ulp_from_a_sample_knot_acts_at_the_merged_node(jump):
    # B and R jumping one ulp off the Q knot give what they give jumping at it
    near, exact = _knot_at_half(jump, jump), _knot_at_half(0.5, 0.5)
    rn, re = KernelOperator(near, 200), KernelOperator(exact, 200)
    for name in ("J", "M"):
        a, b = getattr(rn, name).values, getattr(re, name).values
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), name
    args = ([1.0], [0.0, 0.3, 1.0], [[1.0], [-1.0]], 200)
    tn, te = rollout(near, *args), rollout(exact, *args)
    assert np.max(np.abs(tn.x.values - te.x.values)) <= 1e-14
    assert dynamics_defect(near, tn) <= 1e-12
    ip_near, ip_exact = lq_inner_product(near, tn, tn), lq_inner_product(exact, te, te)
    assert abs(ip_near - ip_exact) <= 1e-13 * abs(ip_exact)


def _constant_flow(H, y0, steps, backward=False):
    """RK4 on Y' = H Y over [0, 1] for a constant matrix H."""
    grid = build_grid(0.0, 1.0, steps)
    table = schedule_stage_table(MatrixSchedule.constant(H), grid)
    return rk4_affine(grid, table, np.asarray(y0, dtype=float), backward=backward)


@pytest.mark.parametrize("width", [8, 10, 12, 14, 16])
def test_rk4_maps_are_the_textbook_formula_bit_for_bit(width):
    # the increments are built in reused buffers; each sum keeps its order
    rng = np.random.default_rng(width)
    h = rng.uniform(-0.02, 0.02, size=(300, 1, 1))
    H1, Hm, H3 = (rng.normal(size=(300, width, width)) for _ in range(3))
    D, c = _rk4_maps(h, H1, Hm, H3, None, None, None)
    assert c is None
    assert np.array_equal(D, rk4_increment(h, H1, Hm, H3))


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
        assert np.max(np.abs(sol.deriv_many(t)[0] - (C * t - exact))) < 1e-10


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

    def stagefn(k, slot, Y):
        return H_tab[slot][k] @ Y + F_tab[slot][k]

    ref = stagewise_rk4(stagefn, grid, y0, backward=backward)
    sol = rk4_affine(grid, H_tab, y0, F_tab, backward=backward)
    scale = np.max(np.abs(ref.values))
    for name in ("v_start", "v_end", "d_start", "d_end"):
        assert np.max(np.abs(getattr(sol, name) - getattr(ref, name))) <= 1e-12 * scale


@pytest.mark.parametrize("steps", [1, 2, 15, 16, 17, 255, 256, 257, 513])
def test_affine_scan_matches_stagewise_rk4_at_chunk_edges(steps):
    # step counts on either side of a scan chunk (16 steps) and of a block
    # of step maps (256 intervals)
    rng = np.random.default_rng(steps)
    H = MatrixSchedule.sampled_linear(
        [0.0, 0.4, 1.0], [rng.normal(size=(3, 3)) for _ in range(3)])
    F = MatrixSchedule.polynomial([rng.normal(size=(3, 2)) for _ in range(3)])
    grid = build_grid(0.0, 1.0, steps)
    H_tab, F_tab = schedule_stage_table(H, grid), schedule_stage_table(F, grid)
    y0 = rng.normal(size=(3, 2))
    for forcing in (None, F_tab):
        def stagefn(k, slot, Y):
            return H_tab[slot][k] @ Y + (0.0 if forcing is None else forcing[slot][k])

        for backward in (False, True):
            ref = stagewise_rk4(stagefn, grid, y0, backward=backward)
            sol = rk4_affine(grid, H_tab, y0, forcing, backward=backward)
            scale = np.max(np.abs(ref.values))
            for name in ("v_start", "v_end", "d_start", "d_end"):
                assert (np.max(np.abs(getattr(sol, name) - getattr(ref, name)))
                        <= 1e-12 * scale), (forcing is None, backward, name)


def test_pade_step_is_a_stable_contraction_on_a_stiff_decay():
    # h * lambda = -4 at 200 steps: the Pade map is R(-4) = 1/13 per step,
    # where the RK4 factor is 1 - 4 + 8 - 32/3 + 32/3 = 5
    stiff = MatrixSchedule.constant([[-800.0]])
    grid = build_grid(0.0, 1.0, 200)
    y = _affine_sweep(grid, schedule_stage_table(stiff, grid), np.eye(1),
                      step=_pade_maps)[:, 0, 0]
    assert np.all(np.isfinite(y))
    assert np.max(np.abs(y - 13.0 ** -np.arange(201))) <= 1e-12
    rk4 = rk4_affine(grid[:2], schedule_stage_table(stiff, grid[:2]), np.array([1.0]))
    assert rk4.values[1, 0] == pytest.approx(5.0, rel=1e-14)


def test_pade_step_is_fourth_order_on_a_constant_hamiltonian():
    from scipy.linalg import expm

    H = np.array([[0.5, -1.0], [-2.0, -0.5]])
    y0 = np.array([[1.0, 0.3], [0.2, 1.0]])
    errs = []
    for steps in (10, 20, 40, 80):
        grid = build_grid(0.0, 1.0, steps)
        for backward in (False, True):
            y = _affine_sweep(grid, schedule_stage_table(MatrixSchedule.constant(H), grid),
                              y0, backward=backward, step=_pade_maps)
            start = grid[-1] if backward else grid[0]
            exact = np.stack([expm(H * (t - start)) @ y0 for t in grid])
            errs.append(np.max(np.abs(y - exact)))
    ratios = np.asarray(errs[:-2]) / np.asarray(errs[2:])
    assert np.all((15.0 < ratios) & (ratios < 17.0)), ratios


def test_affine_blowup_reports_time():
    # h * lambda = 4 at 200 steps: the values stay finite up to 1.4e307, but
    # the node stage 800 x overflows one node before the end
    stiff = MatrixSchedule.constant([[800.0]])
    for steps, node in ((200, 199), (210, 207)):
        grid = build_grid(0.0, 1.0, steps)
        with pytest.raises(IntegrationBlowupError) as exc:
            rk4_affine(grid, schedule_stage_table(stiff, grid), np.array([1.0]))
        assert exc.value.time == grid[node] == pytest.approx(node / steps, abs=1e-15)


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
    # random matrix data per interval, so every interior node is a genuine
    # jump of values and derivatives: a time within the tolerance of a node
    # reads the stored one-sided data, the side picking which
    rng = np.random.default_rng(12)
    ts = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2.0, 9)), [2.0]])
    n = ts.size - 1
    v_start, v_end, d_start, d_end = (rng.normal(size=(n, 2, 3)) for _ in range(4))
    sol = DenseSolution(ts, v_start, v_end, d_start, d_end)
    assert np.all(v_end[:-1] != v_start[1:]) and np.all(d_end[:-1] != d_start[1:])
    stored = {  # per node: the one-sided data, clipped at the two ends
        (1, "eval_many"): np.concatenate([v_start, v_end[-1:]]),
        (-1, "eval_many"): np.concatenate([v_start[:1], v_end]),
        (1, "deriv_many"): np.concatenate([d_start, d_end[-1:]]),
        (-1, "deriv_many"): np.concatenate([d_start[:1], d_end]),
    }
    tol = _time_tol(0.0, 2.0)
    for (side, read), want in stored.items():
        for off in (0.0, -0.5 * tol, 0.5 * tol):
            assert np.array_equal(getattr(sol, read)(ts + off, side), want), (read, side, off)
    mixed = np.where(np.arange(n + 1) % 2 == 0, 1, -1)
    want = np.where((mixed > 0)[:, None, None], stored[1, "eval_many"], stored[-1, "eval_many"])
    assert np.array_equal(sol.eval_many(ts, mixed), want)
    for j, t in enumerate(ts):
        assert np.array_equal(sol.eval(t, side=-1), stored[-1, "eval_many"][j])
    # a sampled schedule returns its stored matrices at its knots
    mats = rng.normal(size=(ts.size, 2, 3))
    sched = MatrixSchedule.sampled_linear(ts, mats)
    for side in (1, -1):
        assert np.array_equal(sched.eval_many(ts, side), mats)


def test_dense_eval_exact_on_cubics():
    ts = np.linspace(0.0, 1.0, 10)
    sol = dense_from_nodes(ts, (ts ** 2)[:, None, None], (2 * ts)[:, None, None])
    mids = 0.5 * (ts[:-1] + ts[1:])
    for t in mids:
        assert sol.eval(t)[0, 0] == pytest.approx(t * t, abs=1e-14)


def test_dense_eval_constant_everywhere():
    ts = np.linspace(0.0, 2.0, 5)
    sol = dense_from_nodes(ts, np.full((5, 1), 3.25), np.zeros((5, 1)))
    assert sol.eval(1.234)[0] == 3.25


def test_dense_eval_out_of_range_raises():
    ts = np.linspace(0.0, 1.0, 5)
    sol = dense_from_nodes(ts, np.zeros((5, 1)), np.zeros((5, 1)))
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
    smooth = dense_from_nodes(times, np.ones((3, 1)), np.zeros((3, 1)))
    assert smooth.jump_nodes().size == 0


def test_deriv_matches_analytic_interior():
    ts = np.linspace(0.0, 1.0, 40)
    sol = dense_from_nodes(ts, np.exp(ts)[:, None], np.exp(ts)[:, None])
    for t in (0.21, 0.63):
        assert sol.deriv_many(t)[0, 0] == pytest.approx(math.exp(t), rel=1e-6)


def test_integrate_values_immutable():
    sol = _constant_flow(np.eye(2), np.eye(2), 10)
    with pytest.raises(ValueError):
        sol.times[0] = -1.0


# -- stage tables: one evaluation per node ------------------------------------

def _schedules_of_every_kind(rng, shape=(2, 3)):
    """A grid on [0, 2] with a node at 0.5, and one schedule of every kind on
    it, with a pwc schedule whose first breakpoint lies within the time
    tolerance after that node (merged into it)."""
    tol = _time_tol(0.0, 2.0)
    grid = build_grid(0.0, 2.0, 40, snap=[0.5, 0.5 + 0.5 * tol])
    return grid, {
        "constant": MatrixSchedule.constant(rng.normal(size=shape)),
        "poly": MatrixSchedule.polynomial(rng.normal(size=(3,) + shape), origin=0.3),
        "samples": MatrixSchedule.sampled_linear([0.0, 0.77, 1.3, 2.0],
                                                 rng.normal(size=(4,) + shape)),
        "pwc": MatrixSchedule.piecewise_constant([0.5 + 0.5 * tol, 1.3],
                                                 rng.normal(size=(3,) + shape)),
    }


def test_stage_table_matches_the_per_slot_evaluation_bit_for_bit():
    # as read, and with a function (R inverted) applied to every evaluation
    rng = np.random.default_rng(31)
    for f, shape in ((None, (2, 3)), (np.linalg.inv, (3, 3))):
        grid, schedules = _schedules_of_every_kind(rng, shape)
        for kind, schedule in schedules.items():
            table = schedule_stage_table(schedule, grid, f)
            for slot in range(3):
                want = stage_slot(schedule, grid, slot)
                want = want if f is None else f(want)
                assert table[slot].shape == want.shape, (kind, slot)
                assert table[slot].tobytes() == want.tobytes(), (kind, slot)
                with pytest.raises(ValueError):
                    table[slot][0] = 0.0
    # lo and hi of a node-evaluated schedule share one node array
    lo, _, hi = schedule_stage_table(schedules["poly"], grid)
    assert np.shares_memory(lo, hi)


def test_stage_tables_are_read_only():
    grid, schedules = _schedules_of_every_kind(np.random.default_rng(32))
    for kind, schedule in schedules.items():
        for slot, values in enumerate(schedule_stage_table(schedule, grid)):
            with pytest.raises(ValueError):
                values[0] = 0.0
