"""Seeded input generator for the three benchmark workloads.

Every workload is a fixed structure (which problems, which state sizes, how
many pinned times) whose numbers come from the seed.  Holding the structure
fixed keeps per-seed cost steady; the seed only varies coefficients, initial
states and targets.  The program receives nothing but the files written here.

    solve       `solve --method both` on the four bundled problems and four
                seeded random problems with N = 1..4.
    rendezvous  `solve --method multipoint` on three seeded random problems:
                N = 4, 6, 8 states with m = N/2 inputs and k = 3, 4, 5 evenly
                spaced pinned times.  Targets are read off a seeded random
                trajectory of the same problem, so every instance is feasible.
    certify     `verify --seed` on the bundled switched_tracking problem; the
                seed picks the verify seed.

Workloads hold no instance that fails at the commit the benchmark was written
against, so every run attempts the same kind of work.  perfbench/README.md
lists the failures found while choosing them.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from lqkernel.cli import load_problem_file, parse_problem_dict, problem_to_dict
from lqkernel.model import validate_problem
from lqkernel.problems import random_problem, random_trajectory
from lqkernel.solver import evaluate_cost

STEPS = 4000
WORKLOADS = ("solve", "rendezvous", "certify")

# (states, pinned times, inputs).  Single-input problems with N >= 6 have
# block Gram matrices too ill-conditioned to interpolate (README, findings);
# m = N/2 keeps every instance solvable.
RENDEZVOUS_SHAPES = ((4, 3, 2), (6, 4, 3), (8, 5, 4))
SOLVE_RANDOM_DIMS = ((1, 1), (2, 1), (3, 2), (4, 2))
CERTIFY_BUNDLED = ("switched_tracking",)


class GenerationError(RuntimeError):
    """A generated instance is malformed; reported as a finding, never skipped."""


def _bundled(root: pathlib.Path):
    paths = sorted((root / "scripts" / "problems").glob("*.json"))
    if not paths:
        raise GenerationError("no bundled problems under scripts/problems")
    return [(p.stem, *load_problem_file(str(p))) for p in paths]


def _write_doc(docs_dir: pathlib.Path, name: str, problem, extras=None) -> str:
    doc = problem_to_dict(problem, extras)
    again, _ = parse_problem_dict(doc)
    if problem_to_dict(again, extras) != doc:
        raise GenerationError(f"{name}: problem document does not round-trip")
    report = validate_problem(again)
    if not report.valid:
        raise GenerationError(f"{name}: invalid problem: {report.summary()}")
    path = docs_dir / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _interleave(a, b):
    out = []
    for i in range(max(len(a), len(b))):
        out.extend(x[i] for x in (a, b) if i < len(x))
    return out


def _csv_vector(v) -> str:
    # the `=` form keeps a leading minus sign from reading as a flag
    return ",".join(repr(float(x)) for x in v)


def _solve_ops(root, rng, docs, out):
    def op(name, problem, extras=None):
        x0 = rng.normal(size=problem.state_dim)
        path = _write_doc(docs, name, problem, extras)
        return {"kind": "solve", "label": name, "doc": path,
                "argv": ["solve", path, "--method", "both", f"--x0={_csv_vector(x0)}",
                         "--steps", str(STEPS), "--out", str(out / f"{name}.csv")],
                "expect": {"x0": x0.tolist()}}

    bundled = [op(f"bundled_{name}", p, ex) for name, p, ex in _bundled(root)]
    randoms = [op(f"random_n{n}_m{m}", random_problem(rng, state_dim=n, input_dim=m))
               for n, m in SOLVE_RANDOM_DIMS]
    return _interleave(bundled, randoms)


def _rendezvous_ops(root, rng, docs, out):
    ops = []
    for n, k, m in RENDEZVOUS_SHAPES:
        name = f"random_n{n}_k{k}_m{m}"
        problem = random_problem(rng, state_dim=n, input_dim=m)
        traj = random_trajectory(problem, rng)
        times = np.linspace(problem.t0, problem.T, k)
        targets = traj.x.eval_many(times)
        constraints = [[float(t), c.tolist()] for t, c in zip(times, targets)]
        path = _write_doc(docs, name, problem)
        ops.append({
            "kind": "multipoint", "label": name, "doc": path,
            "argv": ["solve", path, "--method", "multipoint",
                     "--constraints", json.dumps(constraints),
                     "--steps", str(STEPS), "--out", str(out / f"{name}.csv")],
            "expect": {"constraints": constraints,
                       "rollout_cost": evaluate_cost(problem, traj)},
        })
    return ops


def _certify_ops(root, rng, docs, out):
    def op(name, problem, extras=None):
        path = _write_doc(docs, name, problem, extras)
        seed = int(rng.integers(0, 2**31 - 1))
        return {"kind": "verify", "label": name, "doc": path,
                "argv": ["verify", path, "--steps", str(STEPS), "--seed", str(seed)],
                "expect": {}}

    return [op(f"bundled_{name}", p, ex) for name, p, ex in _bundled(root)
            if name in CERTIFY_BUNDLED]


_BUILDERS = {"solve": _solve_ops, "rendezvous": _rendezvous_ops,
             "certify": _certify_ops}


def generate(workload: str, seed: int, root: pathlib.Path,
             work: pathlib.Path) -> dict:
    """Write the inputs of one workload under `work`; return the manifest.

    Paths in the manifest are relative to `root`, where the operations run.
    """
    docs = work / "docs"
    out = work / "out"
    docs.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops = _BUILDERS[workload](root, rng, docs.relative_to(root),
                              out.relative_to(root))
    return {"workload": workload, "seed": seed, "steps": STEPS, "ops": ops}
