"""Command-line interface: solve / riccati / kernel / verify / compare.

Problem files are JSON documents mapping one-to-one onto LQProblem; outputs
are CSVs with full-precision floats plus machine-readable JSON summaries.
Exit codes are a stable contract: 0 success, 1 verification failure,
2 input/parse error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import LQKernelError, NumericalError, ProblemFileError
from .kernel import (KernelOperator, lq_inner_product, reproducing_residual,
                     restarted_diagonals)
from .model import R_MIN_DEFAULT, LQProblem, MatrixSchedule, validate_problem
from .ode import DEFAULT_STEPS
from .oracle import MIN_ORACLE_STEPS, richardson_value
from .problems import _random_control, rollout
from .riccati import solve_adjoint
from .solver import (check_constraint_times, solve_feedback, solve_kernel,
                     solve_multipoint)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

_SCHEDULE_KEYS = ("A", "B", "Q", "R")


# -- problem file parsing ----------------------------------------------------

def _json_numbers(raw, what: str):
    """`raw` if it is a JSON number or nested lists of them, else a
    ProblemFileError naming `what`: booleans, strings and null are not numbers."""
    stack = [raw]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ProblemFileError(f"{what}: expected a number, got {item!r}")
    return raw


def _parse_schedule(doc, key: str, t0: float) -> MatrixSchedule:
    if not isinstance(doc, dict):
        raise ProblemFileError(f"key '{key}': expected a schedule object")
    kind = doc.get("kind")

    def num(field):
        return _json_numbers(doc[field], f"key '{key}.{field}'")

    try:
        if kind == "constant":
            return MatrixSchedule.constant(num("matrix"))
        if kind == "pwc":
            return MatrixSchedule.piecewise_constant(num("breakpoints"), num("matrices"))
        if kind == "samples":
            return MatrixSchedule.sampled_linear(num("times"), num("matrices"))
        if kind == "poly":
            origin = num("origin") if "origin" in doc else t0
            return MatrixSchedule.polynomial(num("coefficients"), origin=origin)
    except KeyError as exc:
        raise ProblemFileError(f"key '{key}': missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(f"key '{key}': {exc}") from exc
    raise ProblemFileError(
        f"key '{key}': unknown kind {kind!r} (expected constant|pwc|samples|poly)")


def _dimension(doc: dict, key: str) -> int:
    """doc[key] as a dimension: a JSON number with an integral value."""
    raw = _json_numbers(doc[key], f"key '{key}'")
    if isinstance(raw, list) or (isinstance(raw, float) and not raw.is_integer()):
        raise ProblemFileError(f"key '{key}': expected an integer, got {raw!r}")
    return int(raw)


def parse_problem_dict(doc: dict) -> tuple[LQProblem, dict]:
    """Build an LQProblem from a parsed JSON document.

    Returns the problem plus the extras dict (optional x0 and settings).
    """
    for field in ("state_dim", "input_dim", "t0", "T", *_SCHEDULE_KEYS, "J_T"):
        if field not in doc:
            raise ProblemFileError(f"key '{field}': missing")

    def num(key, default=None):
        return _json_numbers(doc.get(key, default), f"key '{key}'")

    try:
        t0 = float(num("t0"))
        scheds = {k: _parse_schedule(doc[k], k, t0) for k in _SCHEDULE_KEYS}
        problem = LQProblem(
            state_dim=_dimension(doc, "state_dim"), input_dim=_dimension(doc, "input_dim"),
            t0=t0, T=float(num("T")),
            A=scheds["A"], B=scheds["B"], Q=scheds["Q"], R=scheds["R"],
            J_T=np.asarray(num("J_T"), dtype=float), r_min=float(num("r_min", R_MIN_DEFAULT)),
        )
    except ProblemFileError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemFileError(str(exc)) from exc
    extras = {}
    if "x0" in doc:
        extras["x0"] = _state_vector(num("x0"), problem.state_dim, "key 'x0'")
    settings = doc.get("settings", {})
    if not isinstance(settings, dict):
        raise ProblemFileError("key 'settings': expected an object")
    extras["settings"] = dict(settings)
    return problem, extras


def _parse_json(text: str, what: str):
    """`text` as a JSON value.  Malformed text, or text nested deeper than
    the parser's recursion limit, raises ProblemFileError naming `what`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{what}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise ProblemFileError(f"{what}: JSON nested too deeply") from None


def load_problem_file(path: str) -> tuple[LQProblem, dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ProblemFileError(f"cannot read problem file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ProblemFileError(f"problem file is not UTF-8 text: {exc}") from None
    doc = _parse_json(text, "problem file")
    if not isinstance(doc, dict):
        raise ProblemFileError("problem file must hold a JSON object")
    return parse_problem_dict(doc)


def _schedule_to_dict(s: MatrixSchedule) -> dict:
    if s.kind == "constant":
        return {"kind": "constant", "matrix": s.matrices[0].tolist()}
    if s.kind == "pwc":
        return {"kind": "pwc", "breakpoints": s.knots.tolist(),
                "matrices": s.matrices.tolist()}
    if s.kind == "samples":
        return {"kind": "samples", "times": s.knots.tolist(),
                "matrices": s.matrices.tolist()}
    return {"kind": "poly", "origin": s.origin, "coefficients": s.matrices.tolist()}


def problem_to_dict(problem: LQProblem, extras: dict | None = None) -> dict:
    """Inverse of parse_problem_dict (round-trip exact for finite floats)."""
    doc = {
        "state_dim": problem.state_dim, "input_dim": problem.input_dim,
        "t0": problem.t0, "T": problem.T,
        "A": _schedule_to_dict(problem.A), "B": _schedule_to_dict(problem.B),
        "Q": _schedule_to_dict(problem.Q), "R": _schedule_to_dict(problem.R),
        "J_T": np.asarray(problem.J_T).tolist(),
        "r_min": problem.r_min,
    }
    if extras:
        if "x0" in extras:
            doc["x0"] = np.asarray(extras["x0"]).tolist()
        if extras.get("settings"):
            doc["settings"] = extras["settings"]
    return doc


# -- output helpers ----------------------------------------------------------

_CSV_ROWS = 256  # rows per formatting pass: bounds the strings and floats alive at once


def _write_csv(path: str, header: list[str], table: np.ndarray) -> None:
    """`header`, then one line per row of the 2-D `table`, every value at
    full precision (%.17g), one format operation per `_CSV_ROWS` rows."""
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise ProblemFileError(f"cannot write output: {exc}") from exc
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with fh:
        fh.write(",".join(header) + "\n")
        for k in range(0, len(table), _CSV_ROWS):
            rows = table[k:k + _CSV_ROWS]
            fh.write((row * len(rows)) % tuple(rows.ravel().tolist()))


def _print_json(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _open_problem(args) -> tuple[LQProblem, dict, int]:
    """The problem file, its extras and the step count; raises if the file
    does not load, then if the problem violates the standing assumptions,
    then if the step count is bad."""
    problem, extras = load_problem_file(args.problem_file)
    report = validate_problem(problem)
    if not report.valid:
        raise ProblemFileError(f"problem violates standing assumptions: {report.summary()}")
    if args.steps < 1:
        raise ProblemFileError(f"--steps: must be at least 1, got {args.steps}")
    return problem, extras, args.steps


def _state_vector(raw, n: int, what: str) -> np.ndarray:
    """`raw` as a vector of n finite floats, else a ProblemFileError naming `what`."""
    try:
        x = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemFileError(f"{what}: {exc}") from None
    if x.shape != (n,):
        raise ProblemFileError(f"{what}: expected {n} entries, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ProblemFileError(f"{what}: non-finite entries")
    return x


def _x0_from(args, extras: dict, n: int):
    """The initial state from the --x0 flag, else the problem file, else None."""
    if args.x0 is None:
        return extras.get("x0")
    return _state_vector(args.x0.split(","), n, "--x0")


def _constraints_from(text: str, problem: LQProblem) -> list:
    """Multipoint pins [(t, target), ...] from the --constraints JSON."""
    what = "key 'constraints'"
    doc = _parse_json(text, what)
    try:
        pins = [(float(_json_numbers(t, what)), _json_numbers(c, what)) for t, c in doc]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemFileError(f"{what}: {exc}") from exc
    try:
        check_constraint_times(problem, np.asarray([t for t, _ in pins]))
    except ValueError as exc:
        raise ProblemFileError(f"{what}: {exc}") from None
    return [(t, _state_vector(c, problem.state_dim, f"{what}: target at t={t}"))
            for t, c in pins]


# -- commands ----------------------------------------------------------------

def cmd_solve(args) -> int:
    problem, extras, steps = _open_problem(args)
    x0 = _x0_from(args, extras, problem.state_dim)
    method = args.method
    if method in ("kernel", "feedback", "both") and x0 is None:
        raise ProblemFileError(f"method {method!r} requires 'x0' (flag or problem file)")
    if method == "multipoint" and not args.constraints:
        raise ProblemFileError("method 'multipoint' requires 'constraints'")

    summary = {"method": method, "settings": {"steps": steps}}
    gap = None
    if method == "multipoint":
        result = solve_multipoint(problem, _constraints_from(args.constraints, problem), steps)
    else:
        op = KernelOperator(problem, steps)
        result = (solve_feedback if method == "feedback" else solve_kernel)(op, x0)
        if method == "both":
            fb = solve_feedback(op, x0)
            gap = float(np.max(np.abs(result.trajectory.x.values - fb.trajectory.x.values)))
            summary["value_feedback"] = fb.value

    traj = result.trajectory
    n, m = problem.state_dim, problem.input_dim
    header = (["t"] + [f"x_{i+1}" for i in range(n)] + [f"u_{j+1}" for j in range(m)])
    _write_csv(args.out, header,
               np.column_stack([traj.x.times, traj.x.values, traj.u.values]))

    summary["value"] = result.value
    summary["covectors"] = [
        {"time": t, "vector": np.asarray(p).tolist()} for t, p in result.covectors]
    summary["trajectory_csv"] = args.out
    if gap is not None:
        summary["trajectory_gap"] = gap
    _print_json(summary)
    return EXIT_OK


def cmd_riccati(args) -> int:
    problem, _, steps = _open_problem(args)
    op = KernelOperator(problem, steps)
    n = problem.state_dim
    header = (["t"]
              + [f"J_{i+1}{j+1}" for i in range(n) for j in range(n)]
              + [f"M_{i+1}{j+1}" for i in range(n) for j in range(n)]
              + ["duality_defect"])
    defects = op.duality_defects()
    nodes = op.grid.size
    _write_csv(args.out, header,
               np.column_stack([op.grid, op.J_nodes.reshape(nodes, -1),
                                op.M.values.reshape(nodes, -1), defects]))
    _print_json({
        "steps": steps,
        "rows": nodes,
        "max_duality_defect": float(np.max(defects)),
        "max_asymmetry": max(op.max_asymmetry_J, op.max_asymmetry_M),
        "csv": args.out,
    })
    return EXIT_OK


def cmd_kernel(args) -> int:
    problem, _, steps = _open_problem(args)
    if args.grid_count < 1:
        raise ProblemFileError(f"--grid-count: must be at least 1, got {args.grid_count}")
    grid = np.linspace(problem.t0, problem.T, args.grid_count)
    op = KernelOperator(problem, steps, extra_nodes=grid)
    n = problem.state_dim
    header = ["s", "t"] + [f"K_{i+1}{j+1}" for i in range(n) for j in range(n)]

    g = grid.size
    s, t = np.meshgrid(grid, grid, indexing="ij")
    _write_csv(args.out, header, np.column_stack(
        [s.ravel(), t.ravel(), op.entries(grid).reshape(g * g, n * n)]))
    _print_json({"steps": steps, "grid_count": args.grid_count, "csv": args.out})
    return EXIT_OK


def cmd_compare(args) -> int:
    problem, extras, steps = _open_problem(args)
    x0 = _x0_from(args, extras, problem.state_dim)
    if x0 is None:
        raise ProblemFileError("compare requires 'x0' (flag or problem file)")
    if args.oracle_steps < MIN_ORACLE_STEPS:
        raise ProblemFileError(
            f"--oracle-steps: must be at least {MIN_ORACLE_STEPS}, got {args.oracle_steps}")

    op = KernelOperator(problem, steps)
    vk = solve_kernel(op, x0).value
    vf = solve_feedback(op, x0).value
    rich = richardson_value(problem, x0, int(args.oracle_steps))
    ext = rich["extrapolated"]
    _print_json({
        "value_kernel": vk,
        "value_feedback": vf,
        "value_oracle_h": rich["value_h"],
        "value_oracle_h2": rich["value_h2"],
        "extrapolated": ext,
        "rel_gap_kernel_feedback": abs(vk - vf) / (1.0 + abs(vf)),
        "rel_gap_oracle_feedback": abs(ext - vf) / (1.0 + abs(vf)),
    })
    return EXIT_OK


_VERIFY_TOLERANCES = {
    "duality": 1e-6,
    "kernel_diagonal_identity": 1e-5,
    "kernel_diagonal_bvp": 1e-5,
    "hermitian_symmetry": 1e-5,
    "reproducing": 1e-4,
    "value_agreement": 1e-6,
    "trajectory_agreement": 1e-5,
    "adjoint_identity": 1e-6,
    "oracle_richardson": 1e-4,
}
_VERIFY_QUAD_INTERVALS = 1000
_VERIFY_ORACLE_STEPS = 2000


def run_verification(problem: LQProblem, seed: int, steps: int,
                     tolerances: dict | None = None) -> dict:
    """Run the full identity checklist; deterministic for a given seed.

    Checks: Riccati duality; the kernel-diagonal/Riccati-inverse identity at
    t0, 25, 50 and 75% of the horizon and T, with the diagonal read off the
    dual Riccati solution; the same identity at the grid nodes nearest to
    the first four with K_t(t, t) from the shooting BVP of the problem
    restarted at t, a route that solves no Riccati equation
    (`restarted_diagonals`: all four from one forward sweep on the
    operator's grid and table); Hermitian symmetry of the kernel; the
    reproducing property on random trajectories; kernel/feedback agreement
    in value and trajectory; the adjoint identity; and
    Richardson-extrapolated agreement with the discrete-time oracle.
    """
    tol = dict(_VERIFY_TOLERANCES)
    tol.update(tolerances or {})
    rng = np.random.default_rng(seed)
    p = problem
    n = p.state_dim
    op = KernelOperator(p, steps)
    checks = []

    def add(name, defect):
        checks.append({
            "name": name,
            "defect": float(defect),
            "tolerance": float(tol[name]),
            "passed": bool(defect <= tol[name]),
        })

    add("duality", np.max(op.duality_defects()))

    eye = np.eye(n)
    queries = np.concatenate([[p.t0], p.t0 + (p.T - p.t0) * np.array([0.25, 0.5, 0.75]), [p.T]])
    add("kernel_diagonal_identity", max(
        np.linalg.norm(J @ M - eye)
        for J, M in zip(op.J.eval_many(queries), op.M.eval_many(queries))))
    # the shooting sweep starts its carriers at grid nodes: the nearest ones
    at = op.nearest_nodes(queries[:-1])
    add("kernel_diagonal_bvp", max(
        np.linalg.norm(J @ K - eye)
        for J, K in zip(op.J_nodes[at], restarted_diagonals(op, op.grid[at]))))

    # five uniform draws, each snapped to its nearest grid node: column times are nodes
    pool = np.sort(op.grid[op.nearest_nodes(rng.uniform(p.t0, p.T, size=5))])
    table = op.entries(pool)  # K(pool_i, pool_j), bit for bit as `entry` reads it
    sym = 0.0
    for _ in range(20):
        i, j = rng.integers(0, pool.size, size=2)
        Kst, Kts = table[i, j], table[j, i]
        sym = max(sym, np.linalg.norm(Kst - Kts.T) / (1.0 + np.linalg.norm(Kst)))
    add("hermitian_symmetry", sym)

    # ten random trajectories run as one family, checked against one
    # section family (a term per distinct pool time) by one quadrature
    x0s, vals, ts, pvs = [], [], [], []
    for _ in range(10):
        x0, edges, v = _random_control(p, rng)
        x0s.append(x0)
        vals.append(v)
        ts.append(float(pool[rng.integers(0, pool.size)]))
        pvs.append(rng.normal(size=n))
    trajs = rollout(p, np.stack(x0s, axis=1), edges, np.stack(vals, axis=2), min(steps, 1000))
    xnorm = np.sqrt(np.maximum(lq_inner_product(p, trajs, trajs, _VERIFY_QUAD_INTERVALS), 0.0))
    pnorm = np.array(list(map(np.linalg.norm, pvs)))
    r = reproducing_residual(op, trajs, np.array(ts), np.stack(pvs, axis=1),
                             _VERIFY_QUAD_INTERVALS)
    add("reproducing", np.max(r / (1.0 + xnorm * pnorm)))

    x0 = np.ones(n) / np.sqrt(n)
    rk = solve_kernel(op, x0)
    rf = solve_feedback(op, x0)
    add("value_agreement", abs(rk.value - rf.value) / (1.0 + abs(rf.value)))
    # both trajectories lie on op.grid
    gap = np.max(np.abs(rk.trajectory.x.values - rf.trajectory.x.values))
    add("trajectory_agreement", gap / (1.0 + np.linalg.norm(x0)))

    # the adjoint, J and x all lie on op.grid
    padj = solve_adjoint(p, rk.trajectory.x)
    resid = padj.values + np.einsum("kij,kj->ki", op.J_nodes, rk.trajectory.x.values)
    add("adjoint_identity", np.max(np.linalg.norm(resid, axis=1)) / (1.0 + np.linalg.norm(x0)))

    rich = richardson_value(p, x0, _VERIFY_ORACLE_STEPS)
    add("oracle_richardson",
        abs(rich["extrapolated"] - rf.value) / (1.0 + abs(rf.value)))

    return {
        "seed": int(seed),
        "steps": int(steps),
        "quad_intervals": _VERIFY_QUAD_INTERVALS,
        "oracle_steps": _VERIFY_ORACLE_STEPS,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def _tolerances_from(doc, what: str) -> dict:
    """Per-check tolerance overrides: an object mapping check names to
    finite non-negative numbers (inf would switch a check off and print as
    `Infinity`, which strict JSON refuses; NaN or a negative fail it always)."""
    if not isinstance(doc, dict):
        raise ProblemFileError(f"{what}: expected an object of per-check tolerances")
    for name, tol in doc.items():
        if name not in _VERIFY_TOLERANCES:
            raise ProblemFileError(f"{what}: unknown check {name!r}")
        if isinstance(tol, bool) or not isinstance(tol, (int, float)):
            raise ProblemFileError(f"{what}: tolerance for {name!r} is not a number")
        if not 0 <= tol <= sys.float_info.max:  # NaN compares false
            raise ProblemFileError(f"{what}: tolerance for {name!r} is not finite and >= 0")
    return doc


def cmd_verify(args) -> int:
    problem, extras, steps = _open_problem(args)
    settings = extras["settings"]
    tolerances = _tolerances_from(settings.get("tolerances", {}),
                                  "key 'settings.tolerances'")
    if args.tolerances:
        flag = _parse_json(args.tolerances, "--tolerances")
        tolerances = {**tolerances, **_tolerances_from(flag, "--tolerances")}
    seed, what = ((args.seed, "--seed") if args.seed is not None
                  else (settings.get("seed", 0), "key 'settings.seed'"))
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ProblemFileError(f"{what}: expected a non-negative integer, got {seed!r}")
    report = run_verification(problem, seed, steps, tolerances)
    _print_json(report)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


# -- argument parsing --------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lqkernel",
        description="Finite-horizon LQ optimal control: Riccati and kernel routes.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("problem_file", help="problem JSON file")
        p.add_argument("--steps", type=int, default=DEFAULT_STEPS,
                       help="RK4 steps over the horizon (default %(default)s)")

    p = sub.add_parser("solve", help="solve for an optimal trajectory")
    common(p)
    p.add_argument("--x0", help="initial state, comma-separated")
    p.add_argument("--method", choices=["kernel", "feedback", "multipoint", "both"],
                   default="both")
    p.add_argument("--constraints",
                   help='multipoint constraints as JSON, e.g. [[0,[0]],[1,[1]]]')
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("riccati", help="export J, M and the duality defect")
    common(p)
    p.add_argument("--out", required=True, help="CSV path")
    p.set_defaults(func=cmd_riccati)

    p = sub.add_parser("kernel", help="tabulate K(s, t) on a uniform grid")
    common(p)
    p.add_argument("--grid-count", type=int, default=5)
    p.add_argument("--out", required=True, help="CSV path")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("verify", help="run the identity checklist")
    common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tolerances", help="JSON object of per-check tolerance overrides")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="kernel vs feedback vs discrete oracle")
    common(p)
    p.add_argument("--x0", help="initial state, comma-separated")
    p.add_argument("--oracle-steps", type=int, default=2000)
    p.set_defaults(func=cmd_compare)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage error or help
        return exc.code
    try:
        return args.func(args)
    except ProblemFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalError, np.linalg.LinAlgError) as exc:
        # numpy's singular-matrix and non-convergence errors are numerical failures too
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except LQKernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
