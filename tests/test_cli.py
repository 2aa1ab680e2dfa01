import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqkernel.cli import (load_problem_file, main, parse_problem_dict,
                          problem_to_dict, run_verification)
from lqkernel.errors import ProblemFileError
from lqkernel.problems import (double_integrator_problem, random_problem,
                               random_trajectory)


_BUNDLED = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "problems"


def _scalar_doc(q=0.0, **over):
    doc = {
        "state_dim": 1, "input_dim": 1, "t0": 0.0, "T": 1.0,
        "A": {"kind": "constant", "matrix": [[0.0]]},
        "B": {"kind": "constant", "matrix": [[1.0]]},
        "Q": {"kind": "constant", "matrix": [[q]]},
        "R": {"kind": "constant", "matrix": [[1.0]]},
        "J_T": [[1.0]],
        "x0": [1.0],
    }
    doc.update(over)
    return doc


@pytest.fixture
def p1_file(tmp_path):
    path = tmp_path / "p1.json"
    path.write_text(json.dumps(_scalar_doc(q=0.0)))
    return str(path)


@pytest.fixture
def p2_file(tmp_path):
    path = tmp_path / "p2.json"
    path.write_text(json.dumps(_scalar_doc(q=1.0)))
    return str(path)


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.array([[float(v) for v in line.split(",")] for line in fh])
    return header, rows


def test_solve_both_reports_value_and_gap(p1_file, tmp_path, capsys):
    out = str(tmp_path / "traj.csv")
    rc = main(["solve", p1_file, "--method", "both", "--steps", "800", "--out", out])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == pytest.approx(0.5, abs=1e-6)
    assert doc["trajectory_gap"] <= 1e-5
    header, rows = _read_csv(out)
    assert header == ["t", "x_1", "u_1"]
    assert np.all(np.diff(rows[:, 0]) > 0)
    assert rows[0, 1] == 1.0 and rows[-1, 1] == pytest.approx(0.5, abs=1e-6)
    assert np.max(np.abs(rows[:, 2] + 0.5)) < 1e-6
    rc = main(["solve", p1_file, "--method", "feedback", "--steps", "800", "--out", out])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["value"] == doc["value_feedback"]


def test_solve_multipoint_constraints(p1_file, tmp_path, capsys):
    out = str(tmp_path / "mp.csv")
    rc = main(["solve", p1_file, "--method", "multipoint", "--steps", "800",
               "--constraints", "[[0,[0]],[1,[1]]]", "--out", out])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == pytest.approx(2.0, abs=1e-5)
    assert [c["vector"][0] for c in doc["covectors"]] == pytest.approx([-1.0, 2.0], abs=1e-5)


def test_solve_multipoint_on_a_horizon_below_the_node_tolerance(tmp_path, capsys):
    # T - t0 = 1e-300 is far below the 1e-12 relative tolerance under which
    # nodes count as equal; the solution must keep every grid node
    doc = problem_to_dict(double_integrator_problem(), {"x0": [1.0, 0.0]})
    doc["T"] = 1e-300
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    rc = main(["solve", str(path), "--method", "multipoint", "--steps", "20",
               "--constraints", "[[0, [1, 0]]]", "--out", str(tmp_path / "mp.csv")])
    assert rc == 0
    rows = _read_csv(str(tmp_path / "mp.csv"))[1]
    assert rows.shape[0] == 21
    assert rows[0, 1:3] == pytest.approx([1.0, 0.0], abs=1e-12)


def test_solve_missing_x0_is_input_error(tmp_path, capsys):
    path = tmp_path / "nox0.json"
    doc = _scalar_doc()
    del doc["x0"]
    path.write_text(json.dumps(doc))
    rc = main(["solve", str(path), "--method", "kernel",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "x0" in capsys.readouterr().err


def test_riccati_csv_columns(p1_file, tmp_path, capsys):
    out = str(tmp_path / "r.csv")
    rc = main(["riccati", p1_file, "--steps", "500", "--out", out])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["t", "J_11", "M_11", "duality_defect"]
    assert rows[0, 0] == 0.0
    assert rows[0, 1] == pytest.approx(0.5, abs=1e-8)
    assert rows[0, 2] == pytest.approx(2.0, abs=1e-8)
    assert np.max(rows[:, 3]) <= 1e-8


def test_riccati_constant_hessian(p2_file, tmp_path, capsys):
    out = str(tmp_path / "r2.csv")
    assert main(["riccati", p2_file, "--steps", "300", "--out", out]) == 0
    _, rows = _read_csv(out)
    assert np.max(np.abs(rows[:, 1] - 1.0)) < 1e-10


def test_riccati_zero_problem_keeps_terminal_weight(tmp_path, capsys):
    doc = _scalar_doc()
    doc["B"] = {"kind": "constant", "matrix": [[0.0]]}
    doc["J_T"] = [[3.0]]
    path = tmp_path / "z.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "z.csv")
    assert main(["riccati", str(path), "--steps", "200", "--out", out]) == 0
    _, rows = _read_csv(out)
    assert np.max(np.abs(rows[:, 1] - 3.0)) < 1e-12


def test_kernel_grid_csv(p2_file, p1_file, tmp_path, capsys):
    out = str(tmp_path / "k.csv")
    rc = main(["kernel", p2_file, "--grid-count", "3", "--steps", "600", "--out", out])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["s", "t", "K_11"]
    assert rows.shape[0] == 9
    by_pair = {(r[0], r[1]): r[2] for r in rows}
    assert by_pair[(0.0, 1.0)] == pytest.approx(math.exp(-1.0), abs=1e-6)
    assert by_pair[(1.0, 0.0)] == pytest.approx(math.exp(-1.0), abs=1e-6)

    # diagonal entry agrees with the dual Riccati CSV at the initial time
    rout = str(tmp_path / "rk.csv")
    main(["riccati", p2_file, "--steps", "600", "--out", rout])
    _, rrows = _read_csv(rout)
    assert by_pair[(0.0, 0.0)] == pytest.approx(rrows[0, 2], abs=1e-6)

    out1 = str(tmp_path / "k1.csv")
    assert main(["kernel", p1_file, "--grid-count", "5", "--steps", "600",
                 "--out", out1]) == 0
    _, rows1 = _read_csv(out1)
    pair = {(r[0], r[1]): r[2] for r in rows1}
    assert pair[(0.5, 0.25)] == pytest.approx(1.5, abs=1e-6)


@pytest.mark.parametrize("name", ["switched_tracking", "double_integrator"])
def test_kernel_csv_is_the_entries_bit_for_bit(name, tmp_path, capsys):
    from lqkernel.kernel import KernelOperator
    path = str(_BUNDLED / f"{name}.json")
    out = str(tmp_path / "k.csv")
    assert main(["kernel", path, "--grid-count", "7", "--steps", "37", "--out", out]) == 0
    _, rows = _read_csv(out)
    problem, _ = load_problem_file(path)
    grid = np.linspace(problem.t0, problem.T, 7)
    op = KernelOperator(problem, 37, extra_nodes=grid)
    want = [[s, t, *op.entry(float(s), float(t)).ravel()] for s in grid for t in grid]
    assert np.array_equal(rows, np.array(want))


def test_verify_passes_on_valid_problem(p1_file, capsys):
    rc = main(["verify", p1_file, "--seed", "42", "--steps", "1200"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert {"duality", "kernel_diagonal_identity", "kernel_diagonal_bvp",
            "hermitian_symmetry", "reproducing", "value_agreement",
            "trajectory_agreement", "adjoint_identity", "oracle_richardson"} <= names


def test_verify_reproducing_across_snaps_one_ulp_apart():
    # the R sample knot 0.42311494484042117 and a control edge
    # 0.4231149448404211 of the random trajectories are one node; kept as
    # two, a Simpson cell ending at the edge read the control past its jump
    # (defect 7.8e-5)
    problem = random_problem(np.random.default_rng([6, 2]), state_dim=2)
    report = run_verification(problem, 6, 4000)
    defects = {c["name"]: c["defect"] for c in report["checks"]}
    assert defects["reproducing"] <= 1e-9
    assert report["passed"] is True


def _recording(monkeypatch, module, name, calls):
    """Replace module.name by a wrapper that appends its arguments to `calls`."""
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)


def test_verify_draws_replay_random_trajectory(monkeypatch):
    # each of the ten rounds draws x0, the control values, t and p in the
    # order of a random_trajectory call followed by t and p
    from lqkernel import cli, problems
    from lqkernel.kernel import KernelOperator
    p = random_problem(np.random.default_rng([4, 3]))
    rollouts, residuals = [], []
    _recording(monkeypatch, cli, "rollout", rollouts)
    _recording(monkeypatch, cli, "reproducing_residual", residuals)
    run_verification(p, 11, 300)
    [(_, x0s, edges, vals, steps)] = rollouts
    assert x0s.shape == (p.state_dim, 10) and vals.shape == (6, p.input_dim, 10)

    singles = []
    _recording(monkeypatch, problems, "rollout", singles)
    rng = np.random.default_rng(11)
    grid, draws = KernelOperator(p, 300).grid, rng.uniform(p.t0, p.T, size=5)
    pool = np.sort(grid[np.argmin(np.abs(grid[:, None] - draws), axis=0)])  # nearest nodes
    for _ in range(20):  # the Hermitian-symmetry pairs
        rng.integers(0, pool.size, size=2)
    want = []
    for c in range(10):
        random_trajectory(p, rng, steps=steps)
        _, x0, single_edges, single_vals, _ = singles[c]
        assert np.array_equal(x0, x0s[:, c]) and np.array_equal(single_vals, vals[..., c])
        assert np.array_equal(single_edges, edges)
        want.append((float(pool[rng.integers(0, pool.size)]), *rng.normal(size=p.state_dim)))
    # one call, the ten columns at their own times in the order drawn
    [(_, _, ts, pv, _)] = residuals
    assert [(float(ts[c]), *pv[:, c]) for c in range(10)] == want


def test_verify_solves_the_flows_once(monkeypatch):
    # the pool times are grid nodes, so no column time re-solves the J and P flows
    from lqkernel import kernel
    calls = []
    _recording(monkeypatch, kernel, "_solve_flows", calls)
    run_verification(random_problem(np.random.default_rng([4, 3])), 11, 300)
    assert len(calls) == 1


def test_verify_builds_one_shooting_table_and_sweeps_its_grid_once(monkeypatch):
    # the J and P flows, M and the four restarted shooting diagonals read
    # the operator's one H table, and the diagonals take one forward sweep
    # of its grid: 1 table build, where a table per reader made 3 and a
    # shooting call per time 6
    from lqkernel import kernel, riccati
    from lqkernel.kernel import KernelOperator
    problem, _ = load_problem_file(str(_BUNDLED / "switched_tracking.json"))
    tables, sweeps = [], []
    for module in (kernel, riccati):
        _recording(monkeypatch, module, "_hamiltonian_table", tables)
    _recording(monkeypatch, kernel, "_affine_sweep", sweeps)
    run_verification(problem, 0, 4000)
    assert len(tables) == 1
    grid = KernelOperator(problem, 4000).grid
    assert sum(args[0].size - 1 for args in sweeps) == grid.size - 1


@pytest.mark.parametrize("method", ["kernel", "feedback", "both", "multipoint"])
def test_solve_builds_one_table_and_never_j_derivatives(method, tmp_path, capsys,
                                                        monkeypatch):
    # every solve route reads J and M at nodes only, so J's node derivatives
    # (`_riccati_solution`) are never built, and the one Hamiltonian table
    # of the operator serves the flows, M and the trajectory
    from lqkernel import kernel, riccati
    tables, dense_J = [], []
    for module in (kernel, riccati):
        _recording(monkeypatch, module, "_hamiltonian_table", tables)
    _recording(monkeypatch, kernel, "_riccati_solution", dense_J)
    pins = ["--constraints", "[[0, [1, 0]], [0.6, [0, 1]], [1.2, [-1, 0]]]"]
    rc = main(["solve", str(_BUNDLED / "switched_tracking.json"), "--method", method,
               "--steps", "400", "--out", str(tmp_path / "traj.csv"),
               *(pins if method == "multipoint" else [])])
    assert rc == 0, capsys.readouterr()
    assert len(tables) == 1
    assert dense_J == []


@pytest.mark.parametrize("seed", [None, 5])
def test_verify_kernel_diagonal_bvp_is_a_discretization_gap(seed):
    # forward RK4 of the shooting carriers against J's backward, restarted
    # RK4 on the same grid: the gap falls about 32x per halving (7.9e-12,
    # 2.5e-13, 7.5e-15 on switched_tracking; 1.0e-10, 3.3e-12, 1.0e-13 on
    # [5, 3]).  A backward sweep of [J_T, -I] Phi(T, s) is J's own flow and
    # would sit at roundoff at every step count
    problem = (load_problem_file(str(_BUNDLED / "switched_tracking.json"))[0]
               if seed is None else random_problem(np.random.default_rng([seed, 3])))
    defects = [next(c["defect"] for c in run_verification(problem, 0, steps)["checks"]
                    if c["name"] == "kernel_diagonal_bvp") for steps in (100, 200, 400)]
    assert defects[0] > 1e-13
    assert all(coarse >= 12.0 * fine for coarse, fine in zip(defects, defects[1:]))


def test_verify_kernel_diagonal_identity_reads_the_query_times():
    # J and M are read at t0, 25, 50 and 75% of the horizon and T through
    # their interpolants, not at the nearest nodes: at 4001 steps the 25 and
    # 75% times are not grid nodes (50% is a schedule breakpoint)
    from lqkernel.kernel import KernelOperator
    problem, _ = load_problem_file(str(_BUNDLED / "switched_tracking.json"))
    op = KernelOperator(problem, 4001)
    queries = problem.t0 + (problem.T - problem.t0) * np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    assert not np.isin(queries[[1, 3]], op.grid).any()
    eye = np.eye(problem.state_dim)
    want = max(np.linalg.norm(J @ M - eye)
               for J, M in zip(op.J.eval_many(queries), op.M.eval_many(queries)))
    got = next(c["defect"] for c in run_verification(problem, 0, 4001)["checks"]
               if c["name"] == "kernel_diagonal_identity")
    assert got == want


def test_verify_runs_one_rollout_and_at_most_six_quadratures(monkeypatch):
    from lqkernel import cli, kernel, problems, solver
    problem, _ = load_problem_file(str(_BUNDLED / "switched_tracking.json"))
    rollouts, quadratures = [], []
    for module in (cli, problems):
        _recording(monkeypatch, module, "rollout", rollouts)
    for module in (cli, kernel, solver):
        _recording(monkeypatch, module, "lq_inner_product", quadratures)
    report = run_verification(problem, 0, 400)
    assert report["passed"] is True
    assert len(rollouts) == 1
    assert 2 <= len(quadratures) <= 6


def test_verify_rejects_invalid_problem(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_scalar_doc(J_T=[[0.0]])))
    rc = main(["verify", str(path), "--seed", "1"])
    assert rc == 2
    assert "J_T" in capsys.readouterr().err


def test_verify_report_well_formed_at_coarse_resolution(p1_file, capsys):
    rc = main(["verify", p1_file, "--seed", "7", "--steps", "10"])
    doc = json.loads(capsys.readouterr().out)
    assert rc in (0, 1)
    t2 = [c for c in doc["checks"] if c["name"] == "kernel_diagonal_identity"]
    assert len(t2) == 1 and np.isfinite(t2[0]["defect"])


def test_verify_deterministic_given_seed(p1_file, capsys):
    main(["verify", p1_file, "--seed", "42", "--steps", "400"])
    first = capsys.readouterr().out
    main(["verify", p1_file, "--seed", "42", "--steps", "400"])
    second = capsys.readouterr().out
    assert first == second


def test_verify_tolerance_override_can_fail(p1_file, capsys):
    rc = main(["verify", p1_file, "--seed", "3", "--steps", "400",
               "--tolerances", '{"duality": 1e-30}'])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["passed"] is False


def test_compare_outputs_five_values(p1_file, p2_file, capsys):
    rc = main(["compare", p1_file, "--steps", "800", "--oracle-steps", "1000"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    for key in ("value_kernel", "value_feedback", "value_oracle_h",
                "value_oracle_h2", "extrapolated"):
        assert key in doc
    assert abs(doc["extrapolated"] - doc["value_kernel"]) <= 1e-4
    rc = main(["compare", p2_file, "--steps", "800", "--oracle-steps", "1000"])
    doc2 = json.loads(capsys.readouterr().out)
    assert doc2["value_kernel"] == pytest.approx(1.0, abs=1e-6)


def test_compare_zero_state(tmp_path, capsys):
    path = tmp_path / "z0.json"
    path.write_text(json.dumps(_scalar_doc(x0=[0.0])))
    main(["compare", str(path), "--steps", "400", "--oracle-steps", "500"])
    doc = json.loads(capsys.readouterr().out)
    assert all(doc[k] == 0.0 for k in ("value_kernel", "value_feedback",
                                       "value_oracle_h", "value_oracle_h2",
                                       "extrapolated"))


def test_numerical_blowup_maps_to_exit_3(tmp_path, capsys):
    # h * a = 5e197: one step of the J flow overflows, at the first node met
    doc = _scalar_doc()
    doc["A"] = {"kind": "constant", "matrix": [[1e200]]}
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps(doc))
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["riccati", str(path), "--steps", "200",
                   "--out", str(tmp_path / "r.csv")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numerical failure: integration blew up at t=0.995")


def test_stiff_kernel_solve_matches_feedback(tmp_path, capsys):
    # h * a = 4 at 200 steps, where RK4 on the dual equation overflowed; the
    # kernel start reads K(t0, t0) = M(t0)
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps(_scalar_doc(q=1.0, A={"kind": "constant",
                                                       "matrix": [[800.0]]})))
    values = {}
    for method in ("kernel", "feedback"):
        rc = main(["solve", str(path), "--method", method, "--steps", "200",
                   "--out", str(tmp_path / f"{method}.csv")])
        assert rc == 0
        values[method] = json.loads(capsys.readouterr().out)["value"]
    assert values["kernel"] == pytest.approx(values["feedback"], rel=1e-9)


def test_numpy_linalg_failure_maps_to_exit_3(tmp_path, capsys):
    # R(t) = (t - 385/1024)^2 is positive at every validation point but
    # exactly zero at a node of the 1024-step grid, where numpy's inverse of R
    # raises
    doc = _scalar_doc(R={"kind": "poly", "origin": 385 / 1024,
                         "coefficients": [[[0.0]], [[0.0]], [[1.0]]]})
    path = tmp_path / "singular_r.json"
    path.write_text(json.dumps(doc))
    rc = main(["solve", str(path), "--steps", "1024", "--out", str(tmp_path / "s.csv")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")


def test_parse_error_names_offending_key(tmp_path):
    doc = _scalar_doc()
    doc["Q"] = {"kind": "samples", "times": [0.0, 1.0]}  # missing matrices
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ProblemFileError, match="'Q'"):
        load_problem_file(str(path))
    with pytest.raises(ProblemFileError, match="kind"):
        parse_problem_dict(_scalar_doc(A={"kind": "cubic", "matrix": [[0.0]]}))
    with pytest.raises(ProblemFileError, match="x0"):
        parse_problem_dict(_scalar_doc(x0=[1.0, 2.0]))


def test_round_trip_problem_document(tmp_path):
    doc = {
        "state_dim": 2, "input_dim": 1, "t0": 0.1, "T": 1.4,
        "A": {"kind": "pwc", "breakpoints": [0.7],
              "matrices": [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 1.0], [-1.0, 0.0]]]},
        "B": {"kind": "samples", "times": [0.1, 1.4],
              "matrices": [[[0.0], [1.0]], [[0.5], [1.0]]]},
        "Q": {"kind": "poly", "origin": 0.1,
              "coefficients": [[[1.0, 0.0], [0.0, 1.0]]]},
        "R": {"kind": "constant", "matrix": [[2.0]]},
        "J_T": [[1.0, 0.0], [0.0, 2.0]],
        "x0": [1.0, -1.0],
        "settings": {"steps": 500, "seed": 9},
    }
    p1, extras1 = parse_problem_dict(doc)
    dumped = problem_to_dict(p1, extras1)
    p2, extras2 = parse_problem_dict(json.loads(json.dumps(dumped)))
    assert p1.state_dim == p2.state_dim and p1.input_dim == p2.input_dim
    assert p1.t0 == p2.t0 and p1.T == p2.T
    assert np.array_equal(p1.J_T, p2.J_T)
    for name in ("A", "B", "Q", "R"):
        s1, s2 = getattr(p1, name), getattr(p2, name)
        assert s1.kind == s2.kind
        assert np.array_equal(s1.matrices, s2.matrices)
        assert np.array_equal(s1.knots, s2.knots)
        assert s1.origin == s2.origin
    assert np.array_equal(extras1["x0"], extras2["x0"])
    assert extras1["settings"] == extras2["settings"]


def test_csv_floats_are_full_precision(p1_file, tmp_path, capsys):
    out = str(tmp_path / "traj.csv")
    main(["solve", p1_file, "--method", "kernel", "--steps", "3", "--out", out])
    capsys.readouterr()
    with open(out) as fh:
        fh.readline()
        fh.readline()
        second = fh.readline().strip().split(",")
    # 17 significant digits survive a parse round-trip; t = 1/3 needs them all
    assert float(second[0]) == 1.0 / 3.0
    assert len(second[0].replace("-", "").replace(".", "").lstrip("0")) >= 15


def _fill(argv, doc, tmp):
    """argv with the {doc}, {out} and {missing} placeholders replaced by paths."""
    paths = {"{doc}": doc, "{out}": tmp / "out.csv", "{missing}": tmp / "missing" / "out.csv"}
    return [str(paths.get(a, a)) for a in argv]


_riccati = ["riccati", "{doc}", "--steps", "10", "--out", "{out}"]


def _multipoint(constraints):
    return ["solve", "{doc}", "--method", "multipoint", "--steps", "20",
            "--constraints", constraints, "--out", "{out}"]


def _deep(text):
    """`text` inside 100000 extra brackets, past the JSON parser's recursion limit."""
    return "[" * 100000 + text + "]" * 100000


# the double integrator document with J_T wrapped in extra brackets
_DEEP_DOC = json.dumps({**problem_to_dict(double_integrator_problem()), "J_T": "@"}).replace(
    '"@"', _deep("[[1, 0], [0, 1]]"))


@pytest.mark.parametrize("argv, doc_extra", [
    (["solve", "{doc}", "--x0", "1,2,3", "--out", "{out}"], {}),
    (["solve", "{doc}", "--x0", "1,x", "--out", "{out}"], {}),
    (["solve", "{doc}", "--steps", "0", "--out", "{out}"], {}),
    (["compare", "{doc}", "--oracle-steps", "5"], {}),
    (_multipoint("[[0, [1, 0]], [1, [1]]]"), {}),
    (_multipoint("[]"), {}),
    (_multipoint("[[1, [1, 0]], [0, [0, 0]]]"), {}),
    (_multipoint("[[0.5, [1, 0]], [0.5, [0, 0]]]"), {}),
    (_multipoint("[[5, [1, 0]]]"), {}),
    (["kernel", "{doc}", "--grid-count", "-1", "--out", "{out}"], {}),
    (["kernel", "{doc}", "--grid-count", "0", "--out", "{out}"], {}),
    (["verify", "{doc}", "--tolerances", "[1]"], {}),
    (["verify", "{doc}", "--tolerances", '{"duality": "x"}'], {}),
    (["verify", "{doc}", "--tolerances", '{"dualty": 1e-6}'], {}),
    (["verify", "{doc}", "--seed", "-1"], {}),
    (["verify", "{doc}"], {"settings": "fast"}),
    (["verify", "{doc}"], {"settings": {"seed": 1.5}}),
    (["verify", "{doc}"], {"settings": {"tolerances": {"duality": "x"}}}),
    (["solve", "{doc}", "--out", "{out}"], {"x0": "abc"}),
    (["riccati", "{doc}", "--steps", "10", "--out", "{missing}"], {}),
    (_riccati, {"r_min": 0.0}),
    (_riccati, {"T": math.inf}),
    (_riccati, {"A": {"kind": "pwc", "breakpoints": [], "matrices": []}}),
    (_riccati, {"Q": {"kind": "poly", "coefficients": [[[1e308, 0], [0, 1e308]]] * 2}}),
    (_riccati,
     {"R": {"kind": "pwc", "breakpoints": [0.5001, 0.5002], "matrices": [[[1]], [[0]], [[1]]]}}),
    (_riccati, {"t0": -1e308, "T": 1e308}),
    (_riccati, {"state_dim": 2.5}),
    (_riccati, {"input_dim": True}),
    (["riccati", "{missing}", "--out", "{out}"], {}),
    (_riccati, "{"),
    (_riccati, "[1, 2]"),
    (_riccati, b"\xff\xfe{"),
    (["solve", "{doc}", "--x0", "nan,0", "--out", "{out}"], {}),
    (_multipoint("[["), {}),
    (["solve", "{doc}", "--method", "multipoint", "--out", "{out}"], {}),
    (["compare", "{doc}"], {"x0": None}),
    (["verify", "{doc}", "--tolerances", "{"], {}),
    (_riccati, {"A": {"kind": "constant", "matrix": [[[0, 1], [0, 0]]]}}),
    (_riccati, {"Q": {"kind": "constant", "matrix": [[math.nan, 0], [0, 1]]}}),
    (_riccati, {"A": {"kind": "pwc", "breakpoints": [[0.5]],
                            "matrices": [[[0, 1], [0, 0]]] * 2}}),
    (_riccati, {"A": {"kind": "pwc", "breakpoints": [0.5],
                            "matrices": [[[0, 1], [0, 0]]]}}),
    (_riccati, {"B": {"kind": "samples", "times": [0.0], "matrices": [[[0], [1]]]}}),
    (_riccati, {"B": {"kind": "samples", "times": [0.0, 1.0],
                            "matrices": [[[0], [1]]] * 3}}),
    (_riccati, {"state_dim": 0}),
    (_riccati, {"J_T": [[1.0]]}),
    (_riccati, {"J_T": [[math.inf, 0], [0, 1]]}),
    (_riccati, {"J_T": [[1, 1], [0, 1]]}),
    (_riccati, {"Q": {"kind": "constant", "matrix": [[1, 1], [0, 1]]}}),
    (_riccati, {"T": "1"}),
    (_riccati, {"T": True}),
    (_riccati, {"r_min": True}),
    (_riccati, {"A": {"kind": "poly", "coefficients": [[[0, 1], [0, 0]]], "origin": True}}),
    (_riccati, {"A": {"kind": "constant", "matrix": [["0", 1], [0, 0]]}}),
    (_riccati, {"J_T": [[True, 0], [0, 1]]}),
    (["solve", "{doc}", "--out", "{out}"], {"x0": ["1", 0]}),
    (_riccati, {"A": {"kind": "pwc", "breakpoints": ["0.5"],
                            "matrices": [[[0, 1], [0, 0]]] * 2}}),
    (_multipoint('[["0", [1, 0]], [1, [0, 0]]]'), {}),
    (_multipoint("[[0, [true, 0]], [1, [0, 0]]]"), {}),
    (_riccati, _DEEP_DOC),
    (_multipoint(_deep("[0, [1, 0]], [1, [0, 0]]")), {}),
    (["verify", "{doc}", "--tolerances", _deep("")], {}),
    (_riccati, {"A": {"kind": "poly", "coefficients": [[[0, 1], [0, 0]]], "origin": math.nan}}),
    (["solve", "{doc}", "--out", "{out}"],
     {"A": {"kind": "poly", "coefficients": [[[0, 1], [0, 0]]], "origin": math.inf}}),
    (_riccati, {"A": {"kind": "pwc", "breakpoints": [math.nan],
                            "matrices": [[[0, 1], [0, 0]]] * 2}}),
    (_riccati, {"A": {"kind": "pwc", "breakpoints": [math.inf],
                            "matrices": [[[0, 1], [0, 0]]] * 2}}),
    (_riccati, {"B": {"kind": "samples", "times": [0.0, 1.0, math.inf],
                            "matrices": [[[0], [1]]] * 3}}),
    (_riccati, {"B": {"kind": "samples", "times": [-math.inf, 0.0, 1.0],
                            "matrices": [[[0], [1]]] * 3}}),
    (["verify", "{doc}", "--tolerances", '{"duality": Infinity}'], {}),
    (["verify", "{doc}", "--tolerances", '{"duality": NaN}'], {}),
    (["verify", "{doc}", "--tolerances", '{"duality": -1}'], {}),
    (["verify", "{doc}"], {"settings": {"tolerances": {"duality": math.inf}}}),
    (["verify", "{doc}", "--tolerances", '{"duality": 1%s}' % ("0" * 400)], {}),
], ids=["x0-length", "x0-not-a-number", "steps-zero", "oracle-steps-too-few",
        "constraint-length", "constraints-empty",
        "constraints-unsorted", "constraints-repeated", "constraint-outside-horizon",
        "grid-count-negative", "grid-count-zero", "tolerances-not-an-object",
        "tolerance-not-a-number", "tolerance-unknown-check", "seed-negative",
        "settings-not-an-object", "settings-seed-not-an-integer",
        "settings-tolerance-not-a-number", "file-x0-not-numbers", "out-unwritable",
        "r-min-zero", "horizon-infinite", "schedule-without-pieces", "Q-overflows",
        "R-singular-between-grid-points", "horizon-length-overflows",
        "state-dim-not-integral", "input-dim-boolean", "file-unreadable",
        "file-invalid-json", "file-not-an-object", "file-not-utf8", "x0-non-finite",
        "constraints-invalid-json", "multipoint-without-constraints", "compare-without-x0",
        "tolerances-invalid-json", "schedule-stack-shape", "schedule-non-finite",
        "knots-not-one-dimensional", "pwc-piece-count", "samples-too-few",
        "samples-mismatched", "state-dim-zero", "J_T-shape", "J_T-non-finite",
        "J_T-asymmetric", "Q-asymmetric", "T-string", "T-boolean", "r-min-boolean",
        "poly-origin-boolean", "matrix-entry-string", "J_T-entry-boolean",
        "file-x0-entry-string", "breakpoint-string", "constraint-time-string",
        "constraint-target-boolean", "file-nested-too-deeply",
        "constraints-nested-too-deeply", "tolerances-nested-too-deeply",
        "poly-origin-nan", "poly-origin-infinite", "breakpoint-nan", "breakpoint-infinite",
        "sample-time-infinite", "sample-time-minus-infinite", "tolerance-infinite",
        "tolerance-nan", "tolerance-negative", "settings-tolerance-infinite",
        "tolerance-beyond-float"])
def test_malformed_flags_are_input_errors(argv, doc_extra, tmp_path, capsys):
    # doc_extra: keys to set (None drops the key), or the file's whole text or bytes
    path = tmp_path / "dint.json"
    doc = problem_to_dict(double_integrator_problem(), {"x0": [1.0, 0.0]})
    if isinstance(doc_extra, bytes):
        path.write_bytes(doc_extra)
    elif isinstance(doc_extra, str):
        path.write_text(doc_extra)
    else:
        doc.update(doc_extra)
        path.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
    with np.errstate(over="ignore"):
        assert main(_fill(argv, path, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# -- fuzzing: malformed flags and documents never end in a traceback ----------

_ODD_TEXT = ["", "x", "-1", "0", "1", "1,0", "1,x", "nan,0", "1e999,0", "[]", "{}",
             "[1]", "[[0, [1, 0]]]", "[[0.5, [1]], [0.2, [0, 0]]]",
             '{"duality": 1e-3}', '{"duality": "x"}', '{"nope": 1}']
_JSON_LEAVES = (st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=2)
                | st.sampled_from([0.5, -1.0, 1e300, float("nan"), float("inf")]))
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.sampled_from(["kind", "matrix", "seed"]), kids,
                                    max_size=2)),
    max_leaves=6)
_SITES = ["state_dim", "input_dim", "t0", "T", "A", "B", "Q", "R", "J_T", "x0",
          "r_min", "settings", "A.kind", "A.matrix", "R.matrix", "settings.seed",
          "settings.tolerances"]
_FLAGS = {
    "solve": ["--x0", "--method", "--constraints"],
    "riccati": [],
    "kernel": ["--grid-count"],
    "verify": ["--seed", "--tolerances"],
    "compare": ["--x0", "--oracle-steps"],
}


@st.composite
def _cli_calls(draw):
    doc = problem_to_dict(double_integrator_problem(),
                          {"x0": [1.0, 0.0], "settings": {"seed": 1}})
    for site in draw(st.lists(st.sampled_from(_SITES), max_size=3)):
        *parents, key = site.split(".")
        node = doc
        for name in parents:
            node = node.get(name) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            continue
        if draw(st.booleans()):
            node.pop(key, None)
        else:
            node[key] = draw(_JSON)
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command, "{doc}", "--steps",
            draw(st.sampled_from(["x", "-1", "0"]) | st.integers(1, 20).map(str))]
    flags = draw(st.lists(st.sampled_from(_FLAGS[command]), unique=True)) if _FLAGS[command] else []
    for flag in flags:
        if flag == "--method":
            value = draw(st.sampled_from(["kernel", "feedback", "both", "multipoint", "x"]))
        elif flag in ("--grid-count", "--oracle-steps", "--seed"):
            value = draw(st.sampled_from(_ODD_TEXT) | st.integers(-2, 40).map(str))
        else:
            value = draw(st.sampled_from(_ODD_TEXT))
        argv += [flag, value]
    if command in ("solve", "riccati", "kernel"):
        argv += ["--out", draw(st.sampled_from(["{out}", "{missing}"]))]
    return doc, argv


@settings(max_examples=60, deadline=None)
@given(call=_cli_calls())
def test_fuzzed_cli_calls_exit_with_a_contract_code(call, tmp_path_factory):
    doc, argv = call
    root = tmp_path_factory.getbasetemp()
    path = root / "fuzz.json"
    path.write_text(json.dumps(doc))
    with np.errstate(all="ignore"):
        rc = main(_fill(argv, path, root))
    # 1 means "checks failed", which only verify reports (a 20-step grid may fail them)
    assert rc in ({0, 1, 2, 3} if argv[0] == "verify" else {0, 2, 3})
