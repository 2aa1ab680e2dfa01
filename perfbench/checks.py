"""Output checks for one benchmark operation, and the corruptions that test them.

A check takes the operation (as generated), the CLI exit code, the captured
standard output and the trajectory CSV text, and returns
`(passed, defect_frac, message)`.  `defect_frac` is the worst defect of the
operation divided by its tolerance, so `passed` means `defect_frac <= 1`.

The tolerances are `verify`'s own: kernel/feedback value agreement 1e-6 and
trajectory agreement 1e-5 for `solve --method both`; interpolation 1e-6
relative for `solve --method multipoint`, which also may not cost more than
the feasible rollout its targets were read from.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

VALUE_TOL = 1e-6
TRAJECTORY_TOL = 1e-5
PIN_TOL = 1e-6
OPTIMALITY_TOL = 1e-6


def _fail(message):
    return False, math.inf, message


def _summary(op, rc, stdout):
    """(JSON summary or None, why the run failed or "").

    A run fails on a nonzero exit or when it ran other steps than asked for.
    """
    if rc != 0 and not stdout.strip():
        return None, f"exit code {rc}"
    try:
        s = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, f"exit code {rc}, stdout is not JSON: {exc}"
    argv = op["argv"]
    steps = int(argv[argv.index("--steps") + 1])
    ran = s["steps"] if "steps" in s else s["settings"]["steps"]
    if ran != steps:
        return None, f"ran {ran} steps, not {steps}"
    return s, f"exit code {rc}" if rc != 0 else ""


def check_solve(op, rc, stdout, csv_text):
    s, why = _summary(op, rc, stdout)
    if why:
        return _fail(why)
    vf = s["value_feedback"]
    x0 = np.asarray(op["expect"]["x0"])
    frac = max(abs(s["value"] - vf) / (1.0 + abs(vf)) / VALUE_TOL,
               s["trajectory_gap"] / (1.0 + np.linalg.norm(x0)) / TRAJECTORY_TOL)
    return frac <= 1.0, frac, f"value/trajectory agreement at {frac:.3g} of tolerance"


def check_multipoint(op, rc, stdout, csv_text):
    s, why = _summary(op, rc, stdout)
    if why:
        return _fail(why)
    rows = np.loadtxt(io.StringIO(csv_text), delimiter=",", skiprows=1, ndmin=2)
    t = rows[:, 0]
    span = max(1.0, t[-1] - t[0])
    frac = 0.0
    for tc, c in op["expect"]["constraints"]:
        c = np.asarray(c)
        hit = np.nonzero(np.abs(t - tc) <= 1e-12 * span)[0]
        if hit.size == 0:
            return _fail(f"no CSV row at pinned time {tc!r}")
        x = rows[hit[0], 1:1 + c.size]
        frac = max(frac, np.linalg.norm(x - c) / (PIN_TOL * (1.0 + np.linalg.norm(c))))
    cost = op["expect"]["rollout_cost"]
    frac = max(frac, (s["value"] / cost - 1.0) / OPTIMALITY_TOL)
    return frac <= 1.0, frac, f"pins and optimality at {frac:.3g} of tolerance"


def check_verify(op, rc, stdout, csv_text):
    report, why = _summary(op, rc, stdout)
    if report is None:
        return _fail(why)
    checks = report["checks"]
    frac = max(c["defect"] / c["tolerance"] for c in checks)
    failed = [f"{c['name']} {c['defect']:.3g} > {c['tolerance']:g}"
              for c in checks if not c["passed"]]
    if why or failed or not report["passed"]:
        return False, frac, f"{why}; failed checks: {', '.join(failed)}"
    return frac <= 1.0, frac, f"worst check at {frac:.3g} of tolerance"


CHECKS = {"solve": check_solve, "multipoint": check_multipoint,
          "verify": check_verify}


def check(op, rc, stdout, csv_text):
    return CHECKS[op["kind"]](op, rc, stdout, csv_text)


# -- corruptions for the self-test ---------------------------------------------

def _value_off(rc, stdout, csv_text):
    s = json.loads(stdout)
    s["value_feedback"] += 1e-3 * (1.0 + abs(s["value_feedback"]))
    return rc, json.dumps(s), csv_text


def _shift_csv_rows(rc, stdout, csv_text):
    """Every row keeps its time but takes the state of the next row."""
    header, *lines = csv_text.splitlines()
    data = [line.split(",", 1) for line in lines]
    shifted = [f"{t},{rest}" for (t, _), (_, rest) in zip(data, data[1:] + data[-1:])]
    return rc, stdout, "\n".join([header, *shifted]) + "\n"


def _fail_one_check(rc, stdout, csv_text):
    report = json.loads(stdout)
    first = report["checks"][0]
    first["defect"] = 2.0 * first["tolerance"]
    first["passed"] = False
    report["passed"] = False
    return rc, json.dumps(report), csv_text


CORRUPTIONS = {
    "solve": ("value_feedback off by 1e-3 relative", _value_off),
    "multipoint": ("shifted CSV rows", _shift_csv_rows),
    "verify": ("one failed verify check", _fail_one_check),
}


def self_test(op, rc, stdout, csv_text, record):
    """Feed `check` a real output and its corrupted copy.

    `record(passed)` is the failure accounting the timed loop uses.  Returns
    a description of what went wrong, or "" when the real output passes and
    the corrupted one is counted as a failure.
    """
    what, corrupt = CORRUPTIONS[op["kind"]]
    passed, _, msg = check(op, rc, stdout, csv_text)
    if not passed:
        return f"real output of {op['label']} rejected: {msg}"
    bad, _, _ = check(op, *corrupt(rc, stdout, csv_text))
    record(bad)
    if bad:
        return f"{what} in {op['label']} not detected"
    return ""
