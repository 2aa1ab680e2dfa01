"""Span tracing around calls into the layers of `lqkernel`, from outside.

`Tracer.install()` wraps the public functions and methods of each layer
module (and `KernelOperator._solve_section`, the section cache miss path).
Modules import names with `from .x import y`, so a function is replaced at
every binding site: each module of the package that holds the same object
gets the wrapper.  `uninstall()` puts every original back.

A span is `(id, parent, op, name, start, end, work)`: `parent` is the id of
the enclosing span (-1 at the top of an operation), `op` the operation
index, and `work` a size where one is defined (grid steps for `rk4_drive`,
points for dense and schedule evaluation).  Spans stay in memory until
`write()`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

import numpy as np

LAYERS = ("cli", "solver", "kernel", "riccati", "ode", "model", "linalg",
          "oracle", "problems")

# Spans that the per-layer table names differently from `module.function`.
_RENAMED = {
    "ode.DenseSolution.eval": "ode.dense_eval",
    "ode.DenseSolution.eval_many": "ode.dense_eval",
    "ode.DenseSolution.deriv": "ode.dense_eval",
    "ode.DenseSolution.deriv_many": "ode.dense_eval",
    "ode.schedule_stage_table": "ode.stage_table",
    "model.MatrixSchedule.eval_many": "model.schedule_eval",
    "kernel.KernelOperator.section": "kernel.section",
    "kernel.KernelOperator._solve_section": "kernel.section_solve",
    "kernel.KernelOperator.diagonal": "kernel.diagonal",
    "kernel.KernelOperator.gram": "kernel.gram",
}


def _points(args):
    """Number of evaluation times of an `(self, t_or_ts, ...)` call."""
    return int(np.size(args[1]))


_WORK = {
    "ode.rk4_drive": lambda args: len(args[1]) - 1,
    "ode.dense_eval": _points,
    "model.schedule_eval": _points,
}


def _targets(module):
    """(owner, attribute, qualified name) of every function the layer defines."""
    layer = module.__name__.rsplit(".", 1)[1]
    for name, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ \
                and not name.startswith("_"):
            yield module, name, f"{layer}.{name}"
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and (
                        not attr.startswith("_") or attr == "_solve_section"):
                    yield obj, attr, f"{layer}.{name}.{attr}"


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._next_id = 0
        self._stack = []
        self._patched = []

    def _wrap(self, fn, name):
        work = _WORK.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.op, name, start, end,
                              work(args) if work else 0))
        return traced

    def install(self):
        package = importlib.import_module("lqkernel")
        modules = [importlib.import_module(f"lqkernel.{m}") for m in LAYERS]
        sites = [package, *modules]
        for module in modules:
            for owner, attr, qual in list(_targets(module)):
                original = vars(owner)[attr]
                wrapper = self._wrap(original, _RENAMED.get(qual, qual))
                owners = [owner] if inspect.isclass(owner) else [
                    m for m in sites if vars(m).get(attr) is original]
                for site in owners:
                    self._patched.append((site, attr, original))
                    setattr(site, attr, wrapper)

    def uninstall(self):
        for site, attr, original in reversed(self._patched):
            setattr(site, attr, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "op", "name", "start", "end", "work"), span))) + "\n")


# -- the per-layer table -------------------------------------------------------

def _self_times(spans):
    child_time = {}
    for sid, parent, _, _, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    return {sid: (end - start) - child_time.get(sid, 0.0)
            for sid, _, _, _, start, end, _ in spans}


def _outermost(spans, keep):
    """Spans selected by `keep` with no selected ancestor (no double counting)."""
    by_id = {s[0]: s for s in spans}
    out = []
    for s in spans:
        if not keep(s[3]):
            continue
        parent = s[1]
        while parent >= 0 and not keep(by_id[parent][3]):
            parent = by_id[parent][1]
        if parent < 0:
            out.append(s)
    return out


def layer_table(spans, n_ops):
    """Per-operation means of the per-layer metrics (see README.md)."""
    self_t = _self_times(spans)
    calls, total, work, own = {}, {}, {}, {}
    for sid, _, _, name, start, end, w in spans:
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        work[name] = work.get(name, 0) + w
        own[name] = own.get(name, 0.0) + self_t[sid]

    def per_op(d, name):
        return d.get(name, 0) / n_ops

    def per_call(name):
        return total[name] / calls[name] if calls.get(name) else 0.0

    def layer_of(name):
        return name.split(".", 1)[0]

    m = {}
    m["ode.rk4_drive.calls"] = per_op(calls, "ode.rk4_drive")
    m["ode.rk4_drive.steps"] = per_op(work, "ode.rk4_drive")
    m["ode.rk4_drive.self_s"] = per_op(own, "ode.rk4_drive")
    dense = _outermost(spans, lambda n: n == "ode.dense_eval")
    m["ode.dense_eval.calls"] = per_op(calls, "ode.dense_eval")
    m["ode.dense_eval.points"] = per_op(work, "ode.dense_eval")
    m["ode.dense_eval.s"] = sum(s[5] - s[4] for s in dense) / n_ops
    m["ode.stage_table.s"] = per_op(total, "ode.stage_table")
    m["model.schedule_eval.points"] = per_op(work, "model.schedule_eval")
    m["model.schedule_eval.s"] = per_op(total, "model.schedule_eval")
    m["ode.combine_solutions.s"] = per_op(total, "ode.combine_solutions")
    lin = _outermost(spans, lambda n: layer_of(n) == "linalg")
    m["linalg.s"] = sum(s[5] - s[4] for s in lin) / n_ops
    for name in ("riccati.solve_riccati", "riccati.solve_dual_riccati",
                 "kernel.diagonal", "oracle.discrete_value", "problems.rollout"):
        m[f"{name}.calls"] = per_op(calls, name)
        m[f"{name}.s"] = per_op(total, name)
    for name in ("riccati.closed_loop_propagator", "riccati.solve_adjoint",
                 "kernel.gram", "kernel.minimal_control", "kernel.lq_inner_product",
                 "solver.solve_kernel", "solver.solve_feedback",
                 "solver.solve_multipoint", "cli.load_problem_file",
                 "model.validate_problem"):
        m[f"{name}.s"] = per_op(total, name)
    requests = calls.get("kernel.section", 0)
    solves = calls.get("kernel.section_solve", 0)
    m["kernel.section.requests"] = requests / n_ops
    m["kernel.section.solves"] = solves / n_ops
    m["kernel.section.hit_ratio"] = 1.0 - solves / requests if requests else 0.0
    m["kernel.section.s"] = per_op(total, "kernel.section")
    # the rows of the ROADMAP's measured baseline, per call
    m["riccati.riccati_pair.per_call_s"] = per_call("riccati.riccati_pair")
    m["kernel.section_solve.per_call_s"] = per_call("kernel.section_solve")
    m["riccati.closed_loop_propagator.per_call_s"] = per_call("riccati.closed_loop_propagator")
    m["solver.solve_kernel.per_call_s"] = per_call("solver.solve_kernel")
    m["oracle.richardson_value.per_call_s"] = per_call("oracle.richardson_value")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in own.items() if layer_of(k) == layer) / n_ops
    return m
