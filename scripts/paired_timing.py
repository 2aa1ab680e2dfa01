"""Time this checkout's lqkernel against another checkout's, in pairs.

Usage: python scripts/paired_timing.py BASE_SRC [--steps N] [--pairs P] [--seed S]

BASE_SRC is the `src` directory of the other checkout.  Its `lqkernel` is
loaded under a second package name beside the importable `lqkernel`, and
both versions' `cli.main` run the same commands in one process: `verify` on
the bundled switched_tracking problem, and `solve --method multipoint` on
three seeded random problems with (N, k, m) = (4, 3, 2), (6, 4, 3) and
(8, 5, 4) (states, pinned times, inputs), targets read off a seeded random
trajectory.  Every pair runs each command once per version, and which
version goes first alternates from pair to pair.  On a small shared host,
separate runs of one version drift by more than a 10% change; runs
alternated in one process see the same drift.  Prints the line count of
both `lqkernel` packages (as `cat src/lqkernel/*.py | wc -l` counts it),
then, per command, each version's median time and the median and count of
the paired ratios (this / base), then the same for the whole pair.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import pathlib
import sys
import tempfile
import time

import numpy as np

from lqkernel import cli
from lqkernel.problems import random_problem, random_trajectory

HERE = pathlib.Path(__file__).parent
RENDEZVOUS_SHAPES = ((4, 3, 2), (6, 4, 3), (8, 5, 4))
BASE_NAME = "lqkernel_base"


def load_base_cli(base_src):
    """The `cli` module of the `lqkernel` package under `base_src`, imported
    as `lqkernel_base` (its modules import each other relatively)."""
    init = pathlib.Path(base_src) / "lqkernel" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        BASE_NAME, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[BASE_NAME] = package
    spec.loader.exec_module(package)
    return importlib.import_module(BASE_NAME + ".cli")


def line_count(package_dir) -> int:
    """Lines in the package's modules, as `cat <dir>/*.py | wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in pathlib.Path(package_dir).glob("*.py"))


def commands(work: pathlib.Path, steps: int, seed: int):
    """(label, argv) of every timed command, inputs written under `work`."""
    out = [("verify switched_tracking",
            ["verify", str(HERE / "problems" / "switched_tracking.json"),
             "--steps", str(steps), "--seed", str(seed)])]
    rng = np.random.default_rng(seed)
    for n, k, m in RENDEZVOUS_SHAPES:
        problem = random_problem(rng, state_dim=n, input_dim=m)
        traj = random_trajectory(problem, rng)
        times = np.linspace(problem.t0, problem.T, k)
        constraints = [[float(t), x.tolist()] for t, x in zip(times, traj.x.eval_many(times))]
        doc = work / f"n{n}_k{k}_m{m}.json"
        doc.write_text(json.dumps(cli.problem_to_dict(problem)))
        out.append((f"multipoint n{n}_k{k}_m{m}",
                    ["solve", str(doc), "--method", "multipoint",
                     "--constraints", json.dumps(constraints), "--steps", str(steps),
                     "--out", str(work / f"n{n}_k{k}_m{m}.csv")]))
    return out


def timed(main, argv) -> float:
    """Seconds of one `main(argv)` with its printout swallowed; raises
    unless it exits 0."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"{' '.join(argv[:2])} exited {code}")
    return elapsed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base_src", help="the src directory of the checkout to compare against")
    ap.add_argument("--steps", type=int, default=4000)
    ap.add_argument("--pairs", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    versions = {"base": load_base_cli(args.base_src).main, "this": cli.main}
    with tempfile.TemporaryDirectory() as tmp:
        cmds = commands(pathlib.Path(tmp), args.steps, args.seed)
        for main_ in versions.values():  # warm-up: imports, caches, lazy set-up
            for _, argv_ in cmds:
                timed(main_, argv_)
        times = {(label, side): [] for label, _ in cmds for side in versions}
        for pair in range(args.pairs):
            order = ("base", "this") if pair % 2 == 0 else ("this", "base")
            for label, argv_ in cmds:
                for side in order:
                    times[label, side].append(timed(versions[side], argv_))

    rows = [(label, np.array(times[label, "base"]), np.array(times[label, "this"]))
            for label, _ in cmds]
    rows.append(("all commands", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"lqkernel lines: base {line_count(pathlib.Path(args.base_src) / 'lqkernel')}"
          f", this {line_count(pathlib.Path(cli.__file__).parent)}")
    print(f"{'command':<28}{'base_s':>9}{'this_s':>9}{'ratio':>8}  faster")
    for label, base, this in rows:
        ratio = this / base
        print(f"{label:<28}{np.median(base):9.3f}{np.median(this):9.3f}"
              f"{np.median(ratio):8.3f}  {int(np.sum(ratio < 1))}/{ratio.size}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
