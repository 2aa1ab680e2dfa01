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

from . import verify
from .errors import LQKernelError, NumericalError, ProblemFileError
from .kernel import KernelOperator
from .model import R_MIN_DEFAULT, LQProblem, MatrixSchedule, validate_problem
from .ode import DEFAULT_STEPS
from .oracle import MIN_ORACLE_STEPS
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
    _print_json(verify.compare(problem, steps, x0, args.oracle_steps))
    return EXIT_OK


def cmd_verify(args) -> int:
    problem, extras, steps = _open_problem(args)
    settings = extras["settings"]
    try:
        tolerances = verify.checked_tolerances(settings.get("tolerances", {}),
                                               "key 'settings.tolerances'")
        if args.tolerances:
            flag = _parse_json(args.tolerances, "--tolerances")
            tolerances = {**tolerances, **verify.checked_tolerances(flag, "--tolerances")}
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from None
    seed, what = ((args.seed, "--seed") if args.seed is not None
                  else (settings.get("seed", 0), "key 'settings.seed'"))
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ProblemFileError(f"{what}: expected a non-negative integer, got {seed!r}")
    report = verify.run_verification(problem, seed, steps, tolerances)
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
    p.add_argument("--oracle-steps", type=int, default=verify.ORACLE_STEPS,
                   help="cells of the coarsest oracle mesh (default %(default)s)")
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
