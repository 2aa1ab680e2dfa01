"""SHA-256 digests of the library's numbers over a fixed problem set.

Prints one `<digest>  <label>` line per item: the Hamiltonian table H and
the control map W, the J and P flows (node values, X blocks, restart block
and J's asymmetry), the dense J (node values and derivatives), M, kernel
sections (identity families of `kernel_trajectory`), kernel entries at
fixed pairs of grid nodes, a one-term and a three-term kernel trajectory
(terms at t0, an interior node and T), a rollout with its inner
products and dynamics defects, the kernel and feedback solves with their
adjoints, the `verify` report whole and check by check (so a roundoff move
in one check shows as one line), the `solve`, `riccati`, `kernel`, `verify`
and `compare` command outputs (CSV bytes and JSON) on the bundled problems, and
multipoint CSVs on three seeded random problems of the benchmark's
rendezvous shapes.  The code under test is the `src/`
beside this script, so running it in two checkouts (a `git worktree` or a
`git archive` of another commit) and diffing the outputs shows whether a
change keeps every byte.

Usage: python scripts/parity_digest.py [--steps N]
"""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from lqkernel import cli  # noqa: E402
from lqkernel.errors import LQKernelError  # noqa: E402
from lqkernel.kernel import KernelOperator, kernel_trajectory, lq_inner_product  # noqa: E402
from lqkernel.model import dynamics_defect  # noqa: E402
from lqkernel.problems import random_problem, random_trajectory  # noqa: E402
from lqkernel.riccati import _hamiltonian_table, solve_adjoint  # noqa: E402
from lqkernel.solver import solve_feedback, solve_kernel  # noqa: E402

try:
    from lqkernel.verify import run_verification  # noqa: E402
except ImportError:  # commits whose checklist lives in cli.py
    run_verification = cli.run_verification

VERIFY_SEED = 3
RENDEZVOUS_SHAPES = ((4, 2, 3), (6, 3, 4), (8, 4, 5))  # (N, m, pinned times)


def _digest(*parts) -> str:
    """SHA-256 over arrays (dtype, shape and bytes), numbers and strings."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, (str, bytes)):
            h.update(part.encode() if isinstance(part, str) else part)
        else:
            a = np.ascontiguousarray(part, dtype=float)
            h.update(f"{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def _dense(sol):
    return (sol.times, sol.v_start, sol.v_end, sol.d_start, sol.d_end)


def _problems():
    """(name, problem, file) of the bundled files, then of seeded random
    problems of N = 2 and of mixed N and m (file None)."""
    out = []
    for path in sorted((HERE / "problems").glob("*.json")):
        out.append((path.stem, cli.load_problem_file(str(path))[0], str(path)))
    for s in range(6):
        out.append((f"random_{s}_2", random_problem(np.random.default_rng([s, 2]), 2), None))
        out.append((f"random_{s}_3", random_problem(np.random.default_rng([s, 3])), None))
    return out


def _guarded(fn):
    """fn(), a digest, or the digest of the library error it raised."""
    try:
        return fn()
    except LQKernelError as exc:
        return _digest(f"{type(exc).__name__}: {exc}")


def _operator_lines(name, problem, steps):
    op = KernelOperator(problem, steps)

    def flows():
        J, P = op._J_flow, op._P_flow
        return _digest(J.R, P.R, J.carrier, P.carrier, J.block, J.drift)

    # the table built afresh, as every commit with `_hamiltonian_table` can
    yield f"table/{name}", lambda: _digest(*(a for part in _hamiltonian_table(problem, op.grid)
                                             for a in part))
    yield f"flows/{name}", flows
    yield f"J/{name}", lambda: _digest(*_dense(op.J))
    yield f"M/{name}", lambda: _digest(*_dense(op.M), op.max_asymmetry_M)
    p = problem
    # column times are grid nodes
    times = (p.t0, float(op.grid[op.grid.size // 3]),
             float(op.grid[int(0.6180339887 * (op.grid.size - 1))]), p.T)
    eye = np.eye(p.state_dim)
    yield f"sections/{name}", lambda: _digest(
        *(a for t in times for a in _dense(kernel_trajectory(op, [(t, eye)]).x)))
    # s also at a node near t0
    pairs = [(s, t) for s in (*times, float(op.grid[2])) for t in times]
    yield f"entry/{name}", lambda: _digest(*(op.entry(s, t) for s, t in pairs))
    rng = np.random.default_rng(0)
    covecs = [(times[2], rng.normal(size=p.state_dim))]
    # three terms: at t0, at an interior node and at T
    multi = [(t, rng.normal(size=p.state_dim)) for t in (p.t0, times[1], p.T)]

    def trajectory(terms):
        tr = kernel_trajectory(op, terms)
        return _digest(*_dense(tr.x), *_dense(tr.u))

    yield f"kernel_trajectory/{name}", lambda: trajectory(covecs)
    yield f"kernel_trajectory_multi/{name}", lambda: trajectory(multi)

    def inner():
        tr = random_trajectory(p, np.random.default_rng(1), steps=steps // 2)
        section = kernel_trajectory(op, covecs)
        return _digest(*_dense(tr.x), *_dense(tr.u), lq_inner_product(p, tr, tr),
                       lq_inner_product(p, tr, section), lq_inner_product(p, section, tr),
                       dynamics_defect(p, tr), dynamics_defect(p, section))

    yield f"inner_product/{name}", inner
    x0 = np.ones(p.state_dim) / np.sqrt(p.state_dim)
    for solve in (solve_kernel, solve_feedback):
        def run(solve=solve):
            res = solve(op, x0)
            return _digest(*_dense(res.trajectory.x), *_dense(res.trajectory.u),
                           res.value, *(v for _, v in res.covectors),
                           *_dense(solve_adjoint(p, res.trajectory.x)))
        yield f"{solve.__name__}/{name}", run
    report = functools.cache(lambda: run_verification(p, VERIFY_SEED, steps))
    yield f"verify/{name}", lambda: _digest(json.dumps(report()))
    try:  # a line per check the report names, whichever checklist it runs
        checks = [c["name"] for c in report()["checks"]]
    except LQKernelError:  # the report's own line holds the error
        checks = []
    for check in checks:
        yield f"verify/{name}/{check}", lambda check=check: _digest(
            json.dumps([c for c in report()["checks"] if c["name"] == check]))


def _command(argv, out_csv, tmp):
    """Digest of a CLI run: exit code, output with `tmp` masked, and the bytes
    of `out_csv` (none if it is None or was not written)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    text = (stdout.getvalue() + stderr.getvalue()).replace(tmp, "<tmp>")
    csv = pathlib.Path(out_csv) if out_csv else None
    return _digest(str(code), text, csv.read_bytes() if csv and csv.exists() else b"")


def _command_lines(name, path, steps, tmp):
    out = f"{tmp}/{name}.csv"
    common = ["--steps", str(steps), "--out", out]
    yield f"cli_solve/{name}", lambda: _command(
        ["solve", path, "--method", "both", *common], out, tmp)
    yield f"cli_riccati/{name}", lambda: _command(["riccati", path, *common], out, tmp)
    yield f"cli_kernel/{name}", lambda: _command(["kernel", path, *common], out, tmp)
    yield f"cli_verify/{name}", lambda: _command(
        ["verify", path, "--steps", str(steps), "--seed", str(VERIFY_SEED)], None, tmp)
    yield f"cli_compare/{name}", lambda: _command(
        ["compare", path, "--steps", str(steps)], None, tmp)


def _multipoint_lines(steps, tmp):
    rng = np.random.default_rng(7)
    for n, m, k in RENDEZVOUS_SHAPES:
        name = f"n{n}_m{m}_k{k}"
        problem = random_problem(rng, state_dim=n, input_dim=m)
        times = np.linspace(problem.t0, problem.T, k)
        targets = random_trajectory(problem, rng).x.eval_many(times)
        doc = pathlib.Path(tmp) / f"{name}.json"
        doc.write_text(json.dumps(cli.problem_to_dict(problem)))
        constraints = json.dumps([[float(t), c.tolist()] for t, c in zip(times, targets)])
        out = f"{tmp}/{name}.csv"
        yield f"cli_multipoint/{name}", lambda doc=doc, constraints=constraints, out=out: (
            _command(["solve", str(doc), "--method", "multipoint", "--constraints",
                      constraints, "--steps", str(steps), "--out", out], out, tmp))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=4000)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for name, problem, path in _problems():
            for label, fn in _operator_lines(name, problem, args.steps):
                print(f"{_guarded(fn)}  {label}")
            if path is not None:
                for label, fn in _command_lines(name, path, args.steps, tmp):
                    print(f"{fn()}  {label}")
        for label, fn in _multipoint_lines(args.steps, tmp):
            print(f"{fn()}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
