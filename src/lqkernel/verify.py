"""The identity checklist of `verify`, and the values `compare` prints.

`CHECKS` holds (name, default tolerance, defect function of a `_Run`) per
check.  A run builds what rows share on first read, so rows run in order
draw the seeded generator, and fail, in that order.  Layers are called through
their modules, so a wrapper set on one (as the benchmark's tracer does) sees these calls."""

from __future__ import annotations

import sys
from functools import cached_property

import numpy as np

from . import kernel, oracle, problems, riccati, solver
from .model import LQProblem

QUAD_INTERVALS = 1000
ORACLE_STEPS = 1000  # cells of the coarsest of the oracle's three nested meshes


def _rel_gap(a: float, b: float) -> float:
    """|a - b| / (1 + |b|): the gap of a value to a reference value b."""
    return abs(a - b) / (1.0 + abs(b))


class _Run:
    """One run: the operator, the x0 of both solves, the seeded generator, the oracle mesh."""

    def __init__(self, problem: LQProblem, steps: int, x0, rng, oracle_steps: int):
        self.problem, self.steps, self.x0, self.rng, self.oracle_steps = (
            problem, steps, x0, rng, oracle_steps)
        self.op = kernel.KernelOperator(problem, steps)
        p = problem  # the query times: t0, 25, 50 and 75% of the horizon, and T
        self.queries = np.concatenate([[p.t0], p.t0 + (p.T - p.t0) * np.array([0.25, 0.5, 0.75]),
                                       [p.T]])

    @cached_property
    def pool(self) -> np.ndarray:
        """Five uniform draws, each snapped to its nearest grid node: column times are nodes."""
        p, op = self.problem, self.op
        return np.sort(op.grid[op.nearest_nodes(self.rng.uniform(p.t0, p.T, size=5))])

    @cached_property
    def solves(self) -> tuple[solver.LQSolveResult, solver.LQSolveResult]:
        return solver.solve_kernel(self.op, self.x0), solver.solve_feedback(self.op, self.x0)

    @cached_property
    def richardson(self) -> dict:
        return oracle.richardson_value(self.problem, self.x0, self.oracle_steps)


def _diagonal_from_m(run):
    """|J K_t(t, t) - I| at the query times, the diagonal read off M."""
    op, eye = run.op, np.eye(run.problem.state_dim)
    return max(np.linalg.norm(J @ M - eye)
               for J, M in zip(op.J.eval_many(run.queries), op.M.eval_many(run.queries)))


def _diagonal_from_shooting(run):
    """The same at the grid nodes nearest to the query times before T, K_t(t, t)
    from the shooting BVP restarted at t (one forward sweep, no Riccati equation)."""
    op, eye = run.op, np.eye(run.problem.state_dim)
    at = op.nearest_nodes(run.queries[:-1])
    return max(np.linalg.norm(J @ K - eye)
               for J, K in zip(op.J_nodes[at], kernel.restarted_diagonals(op, op.grid[at])))


def _transpose_gap(run):
    """|K(s, t) - K(t, s)'| / (1 + |K(s, t)|) at 20 random pairs of pool times."""
    table = run.op.entries(run.pool)  # K(pool_i, pool_j), bit for bit as `entry` reads it
    pairs = (run.rng.integers(0, run.pool.size, size=2) for _ in range(20))
    return max(0.0, *(np.linalg.norm(table[i, j] - table[j, i].T)
                      / (1.0 + np.linalg.norm(table[i, j])) for i, j in pairs))


def _reproducing_gap(run):
    """|<x, K(., t) p> - x(t)' p| / (1 + |x| |p|) for ten random trajectories, each
    with a pool time t and a random p, by one quadrature of one section family."""
    p, rng, pool = run.problem, run.rng, run.pool
    x0s, edges, vals, ts, pvs = zip(*[  # x0, edges and control values, then t and p
        (*problems._random_control(p, rng), float(pool[rng.integers(0, pool.size)]),
         rng.normal(size=p.state_dim)) for _ in range(10)])
    trajs = problems.rollout(p, np.stack(x0s, axis=1), edges[0], np.stack(vals, axis=2),
                             min(run.steps, 1000))
    xnorm = np.sqrt(np.maximum(kernel.lq_inner_product(p, trajs, trajs, QUAD_INTERVALS), 0.0))
    pnorm = np.array(list(map(np.linalg.norm, pvs)))
    r = kernel.reproducing_residual(run.op, trajs, np.array(ts), np.stack(pvs, axis=1),
                                    QUAD_INTERVALS)
    return np.max(r / (1.0 + xnorm * pnorm))


def _value_gap(run):
    return _rel_gap(*(r.value for r in run.solves))


def _trajectory_gap(run):
    rk, rf = run.solves  # both trajectories lie on the operator's grid
    gap = np.max(np.abs(rk.trajectory.x.values - rf.trajectory.x.values))
    return gap / (1.0 + np.linalg.norm(run.x0))


def _adjoint_gap(run):
    x = run.solves[0].trajectory.x  # the adjoint, J and x all lie on the operator's grid
    resid = riccati.solve_adjoint(run.problem, x).values + np.einsum(
        "kij,kj->ki", run.op.J_nodes, x.values)
    return np.max(np.linalg.norm(resid, axis=1)) / (1.0 + np.linalg.norm(run.x0))


def _oracle_gap(run):
    """The oracle, extrapolated twice over three nested meshes, against the feedback value."""
    return _rel_gap(run.richardson["extrapolated2"], run.solves[1].value)


CHECKS = (
    ("duality", 1e-6, lambda run: np.max(run.op.duality_defects())),
    ("kernel_diagonal_identity", 1e-5, _diagonal_from_m),
    ("kernel_diagonal_bvp", 1e-5, _diagonal_from_shooting),
    ("hermitian_symmetry", 1e-5, _transpose_gap),
    ("reproducing", 1e-4, _reproducing_gap),
    ("value_agreement", 1e-6, _value_gap),
    ("trajectory_agreement", 1e-5, _trajectory_gap),
    ("adjoint_identity", 1e-6, _adjoint_gap),
    ("oracle_richardson", 1e-4, _oracle_gap),
)
TOLERANCES = {name: tol for name, tol, _ in CHECKS}


def checked_tolerances(doc, what: str) -> dict:
    """`doc`, if it is a valid set of per-check tolerance overrides: a dict
    mapping check names to finite non-negative numbers (inf would switch a
    check off and print as `Infinity`, which strict JSON refuses; NaN or a
    negative fail it always).  Raises ValueError, naming `what`, if not."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what}: expected an object of per-check tolerances")
    for name, tol in doc.items():
        if name not in TOLERANCES:
            raise ValueError(f"{what}: unknown check {name!r}")
        if isinstance(tol, bool) or not isinstance(tol, (int, float)):
            raise ValueError(f"{what}: tolerance for {name!r} is not a number")
        if not 0 <= tol <= sys.float_info.max:  # NaN compares false
            raise ValueError(f"{what}: tolerance for {name!r} is not finite and >= 0")
    return doc


def run_verification(problem: LQProblem, seed: int, steps: int,
                     tolerances: dict | None = None) -> dict:
    """Run the rows of `CHECKS` in order, the solves from x0 = (1, ..., 1)/sqrt(N)
    and the draws from `default_rng(seed)`.  `tolerances` overrides some
    tolerances; `checked_tolerances` raises ValueError if it is malformed."""
    tol = {**TOLERANCES, **checked_tolerances(tolerances or {}, "tolerances")}
    n = problem.state_dim
    run = _Run(problem, steps, np.ones(n) / np.sqrt(n), np.random.default_rng(seed), ORACLE_STEPS)
    checks = []
    for name, _, defect_of in CHECKS:
        defect = defect_of(run)
        checks.append({"name": name, "defect": float(defect), "tolerance": float(tol[name]),
                       "passed": bool(defect <= tol[name])})
    return {"seed": int(seed), "steps": int(steps), "quad_intervals": QUAD_INTERVALS,
            "oracle_meshes": run.richardson["cells"], "checks": checks,
            "passed": all(c["passed"] for c in checks)}


def compare(problem: LQProblem, steps: int, x0, oracle_steps: int) -> dict:
    """The kernel, feedback and oracle values from x0, and the gaps of the kernel
    and oracle values to the feedback one: the value and oracle rows of `CHECKS`."""
    run = _Run(problem, steps, x0, None, oracle_steps)
    gaps = _value_gap(run), _oracle_gap(run)  # the solves before the oracle
    (rk, rf), rich = run.solves, run.richardson
    return {"value_kernel": rk.value, "value_feedback": rf.value,
            "value_oracle_h": rich["value_h"], "value_oracle_h2": rich["value_h2"],
            "value_oracle_h4": rich["value_h4"], "extrapolated": rich["extrapolated"],
            "extrapolated2": rich["extrapolated2"],
            "rel_gap_kernel_feedback": gaps[0], "rel_gap_oracle_feedback": gaps[1]}
