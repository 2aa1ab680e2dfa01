"""Problem data: time-varying coefficient schedules and the LQ problem datum.

A problem is the tuple (A, B, Q, R, J_T) on a horizon [t0, T].  Coefficients
are `MatrixSchedule` objects restricted to four piecewise-smooth kinds so that
fixed-step integration can evaluate them pointwise; piecewise-constant
schedules are right-continuous at their breakpoints.

Standing assumptions (uniform positive definiteness of R, positive
semi-definiteness of Q, positive definite terminal weight) are *not* enforced
at construction; `validate_problem` checks them on a grid and returns a
report, so that invalid data can be diagnosed rather than rejected blindly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import HorizonMismatchError, ScheduleDomainError
from .linalg import PD_TOL
from .ode import DenseSolution, _clip_to_span, _time_tol, schedule_stage_table

PSD_TOL = 1e-9       # slack allowed below zero for Q eigenvalues
R_MIN_DEFAULT = 1e-8  # default uniform lower bound for eigenvalues of R(t)
_VALIDATION_POINTS = 201  # uniform sample times of `validate_problem`

_KINDS = ("constant", "pwc", "samples", "poly")


def _as_matrix_stack(mats, rows, cols, what):
    arr = np.asarray(mats, dtype=float)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[1:] != (rows, cols):
        raise ValueError(f"{what}: expected stack of {rows}x{cols} matrices, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what}: non-finite entries")
    return arr


def _stack(mats) -> np.ndarray:
    """Matrices stacked along axis 0; ValueError when there are none."""
    return np.stack([np.atleast_2d(np.asarray(m, dtype=float)) for m in mats])


@dataclass(frozen=True)
class MatrixSchedule:
    """A matrix-valued function of time, one of four piecewise-smooth kinds.

    kind:
        "constant"  value independent of time
        "pwc"       piecewise constant, right-continuous at `knots`
        "samples"   linear interpolation between samples at `knots`
        "poly"      sum_k coeffs[k] (t - origin)^k

    `matrices` stacks the payload along axis 0: the single value, the pieces
    (len(knots)+1 of them), the samples (len(knots)), or the coefficients.
    Stage tables take pwc pieces at interval midpoints (`schedule_stage_table`).
    """

    kind: str
    rows: int
    cols: int
    matrices: np.ndarray
    knots: np.ndarray = dataclasses.field(default_factory=lambda: np.zeros(0))
    origin: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        mats = _as_matrix_stack(self.matrices, self.rows, self.cols, f"{self.kind} schedule")
        knots = np.asarray(self.knots, dtype=float)
        if knots.ndim != 1:
            raise ValueError("knots must be one-dimensional")
        if not (np.all(np.isfinite(knots)) and np.isfinite(self.origin)):
            raise ValueError("knots and origin must be finite")
        if knots.size > 1 and not np.all(np.diff(knots) > 0):
            raise ValueError("knots must be strictly increasing")
        if self.kind == "constant" and len(mats) != 1:
            raise ValueError("constant schedule takes exactly one matrix")
        if self.kind == "pwc" and len(mats) != knots.size + 1:
            raise ValueError(f"pwc schedule with {knots.size} breakpoints needs {knots.size + 1} pieces")
        if self.kind == "samples":
            if knots.size < 2:
                raise ValueError("sampled schedule needs at least two samples")
            if len(mats) != knots.size:
                raise ValueError("sampled schedule needs one matrix per sample time")
        mats = mats.copy()
        knots = knots.copy()
        mats.flags.writeable = False
        knots.flags.writeable = False
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "knots", knots)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value):
        value = np.atleast_2d(np.asarray(value, dtype=float))
        return cls("constant", value.shape[0], value.shape[1], value[None])

    @classmethod
    def piecewise_constant(cls, breakpoints, pieces):
        mats = _stack(pieces)
        return cls("pwc", *mats.shape[1:3], mats, np.asarray(breakpoints, dtype=float))

    @classmethod
    def sampled_linear(cls, times, samples):
        mats = _stack(samples)
        return cls("samples", *mats.shape[1:3], mats, np.asarray(times, dtype=float))

    @classmethod
    def polynomial(cls, coefficients, origin=0.0):
        mats = _stack(coefficients)
        return cls("poly", *mats.shape[1:3], mats, origin=float(origin))

    # -- queries -----------------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    def domain(self) -> Optional[tuple[float, float]]:
        """Closed evaluation domain, or None when defined for all times."""
        if self.kind == "samples":
            return (float(self.knots[0]), float(self.knots[-1]))
        return None

    def breakpoints(self) -> np.ndarray:
        """Times where the schedule is non-smooth (jumps or kinks)."""
        if self.kind == "pwc":
            return np.asarray(self.knots)
        if self.kind == "samples":
            return np.asarray(self.knots[1:-1])
        return np.zeros(0)

    def eval_many(self, ts, sides=1) -> np.ndarray:
        """Vectorized evaluation: (len(ts), rows, cols).

        `sides` is a scalar or per-time array; only piecewise-constant
        schedules are side-sensitive, exactly at their breakpoints.
        """
        ts = np.asarray(ts, dtype=float)
        if self.kind == "constant":
            return np.broadcast_to(self.matrices[0], (ts.size, self.rows, self.cols)).copy()
        if self.kind == "pwc":
            sides = np.broadcast_to(np.asarray(sides), ts.shape)
            idx = np.searchsorted(self.knots, ts, side="right")
            left = np.searchsorted(self.knots, ts, side="left")
            idx = np.where(sides < 0, left, idx)
            return self.matrices[idx]
        if self.kind == "samples":
            # at a knot w is exactly 0 or 1: the stored sample, bit-exactly
            knots = self.knots
            tc = _clip_to_span(ts, *self.domain(), ScheduleDomainError,
                               "schedule domain [{lo}, {hi}]")
            idx = np.clip(np.searchsorted(knots, tc, side="right") - 1, 0, knots.size - 2)
            t0, t1 = knots[idx], knots[idx + 1]
            w = ((tc - t0) / (t1 - t0))[:, None, None]
            out = self.matrices[idx]  # (1 - w) M[idx] + w M[idx + 1], in place
            out *= 1.0 - w
            upper = self.matrices[idx + 1]
            upper *= w
            out += upper
            return out
        # poly
        x = (ts - self.origin)[:, None, None]
        out = np.zeros((ts.size, self.rows, self.cols))
        for coeff in self.matrices[::-1]:  # Horner in (t - origin), in place
            out *= x
            out += coeff
        return out


@dataclass(frozen=True)
class LQProblem:
    """Datum of a finite-horizon time-varying LQ problem.

    Dynamics x' = A(t)x + B(t)u on [t0, T]; cost is the terminal quadratic
    x(T)' J_T x(T) plus the integral of x'Qx + u'Ru.  `r_min` is the uniform
    eigenvalue floor this problem declares for R(t).
    """

    state_dim: int
    input_dim: int
    t0: float
    T: float
    A: MatrixSchedule
    B: MatrixSchedule
    Q: MatrixSchedule
    R: MatrixSchedule
    J_T: np.ndarray
    r_min: float = R_MIN_DEFAULT

    def __post_init__(self):
        n, m = self.state_dim, self.input_dim
        if n < 1 or m < 1:
            raise ValueError("state_dim and input_dim must be positive")
        if not (np.isfinite(float(self.T) - float(self.t0)) and self.t0 < self.T):
            raise ValueError(f"need t0 < T and a finite T - t0, got [{self.t0}, {self.T}]")
        if not self.r_min > 0:
            raise ValueError(f"r_min must be positive, got {self.r_min}")
        for name, sched, shape in (
            ("A", self.A, (n, n)), ("B", self.B, (n, m)),
            ("Q", self.Q, (n, n)), ("R", self.R, (m, m)),
        ):
            if sched.shape != shape:
                raise ValueError(f"{name} has shape {sched.shape}, expected {shape}")
            dom = sched.domain()
            if dom is not None:
                tol = _time_tol(self.t0, self.T)
                if dom[0] > self.t0 + tol or dom[1] < self.T - tol:
                    raise ValueError(f"{name} domain {dom} does not cover [{self.t0}, {self.T}]")
        J_T = np.asarray(self.J_T, dtype=float)
        if J_T.shape != (n, n):
            raise ValueError(f"J_T has shape {J_T.shape}, expected {(n, n)}")
        if not np.all(np.isfinite(J_T)):
            raise ValueError("J_T has non-finite entries")
        if np.max(np.abs(J_T - J_T.T)) > 1e-9 * (1.0 + np.max(np.abs(J_T))):
            raise ValueError("J_T must be symmetric")
        J_T = J_T.copy()
        J_T.flags.writeable = False
        object.__setattr__(self, "J_T", J_T)

    def breakpoints(self) -> np.ndarray:
        """Interior non-smooth times of all four schedules, sorted."""
        pts = np.concatenate([s.breakpoints() for s in (self.A, self.B, self.Q, self.R)])
        pts = pts[(pts > self.t0) & (pts < self.T)]
        return np.unique(pts)

    def _check_horizon(self, sol: DenseSolution) -> None:
        """Raise HorizonMismatchError unless `sol` spans [t0, T] up to `_time_tol`."""
        tol = _time_tol(self.t0, self.T)
        if abs(sol.a - self.t0) > tol or abs(sol.b - self.T) > tol:
            raise HorizonMismatchError(f"trajectory on [{sol.a}, {sol.b}] does not match "
                                       f"horizon [{self.t0}, {self.T}]")

    def restricted(self, t0_new: float) -> "LQProblem":
        """The same problem started at t0_new < T, earlier or later than t0;
        every schedule's domain must reach back to t0_new."""
        try:
            return dataclasses.replace(self, t0=float(t0_new))
        except ValueError as exc:
            raise HorizonMismatchError(f"cannot restart at {t0_new}: {exc}") from None


@dataclass(frozen=True)
class ControlledTrajectory:
    """A state trajectory together with a control that generates it.

    Membership in the controlled-trajectory space means x'(t) = A(t)x(t) +
    B(t)u(t) holds along the grid; `dynamics_defect` measures the worst
    normalized residual.
    """

    x: DenseSolution
    u: DenseSolution

    def __post_init__(self):
        tol = _time_tol(self.x.a, self.x.b)
        if abs(self.x.a - self.u.a) > tol or abs(self.x.b - self.u.b) > tol:
            raise HorizonMismatchError("state and control cover different horizons")

    def columns(self, cols) -> "ControlledTrajectory":
        """The members `cols` of a family of trajectories (the trailing
        column axis of x and u)."""
        def pick(sol):
            return DenseSolution(sol.times, *(getattr(sol, f)[..., cols] for f in
                                              ("v_start", "v_end", "d_start", "d_end")))
        return ControlledTrajectory(pick(self.x), pick(self.u))


def dynamics_defect(problem: LQProblem, traj: ControlledTrajectory) -> float:
    """max_t ||x'(t) - A(t)x(t) - B(t)u(t)|| / (1 + ||x(t)||) over grid times.

    Both one-sided limits are checked at every node of the state grid, with
    A and B from its RK4 stage tables (`schedule_stage_table`).
    """
    ts = traj.x.times
    A_tab, B_tab = schedule_stage_table(problem.A, ts), schedule_stage_table(problem.B, ts)
    worst = 0.0
    for sides, lo, hi, slot in ((1, 0, ts.size - 1, 0), (-1, 1, ts.size, 2)):
        sub = ts[lo:hi]
        xv = traj.x.eval_many(sub, sides)
        xd = traj.x.deriv_many(sub, sides)
        uv = traj.u.eval_many(sub, sides)
        Av, Bv = A_tab[slot], B_tab[slot]
        res = xd - np.einsum("kij,kj->ki", Av, xv) - np.einsum("kij,kj->ki", Bv, uv)
        scale = 1.0 + np.linalg.norm(xv, axis=1)
        worst = max(worst, float(np.max(np.linalg.norm(res, axis=1) / scale)))
    return worst


@dataclass(frozen=True)
class AssumptionViolation:
    name: str
    message: str
    time: Optional[float] = None
    eigenvalue: Optional[float] = None


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[AssumptionViolation, ...]

    @property
    def valid(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.valid:
            return "valid"
        return "; ".join(v.message for v in self.violations)


def validate_problem(problem: LQProblem) -> ValidationReport:
    """Check the standing assumptions on a grid and at the breakpoints; never raises.

    Flags: J_T not positive definite, R(t) not uniformly positive definite
    (min eigenvalue below the problem's r_min), Q(t) not positive
    semi-definite, and asymmetry of any of those matrices.
    """
    bad: list[AssumptionViolation] = []
    w = np.linalg.eigvalsh(0.5 * (problem.J_T + problem.J_T.T))
    if w[0] <= PD_TOL:
        bad.append(AssumptionViolation(
            "terminal_weight_pd", "J_T not positive definite", time=None, eigenvalue=float(w[0])))

    # pwc pieces may fall between grid points (no np.unique: it imports numpy.ma)
    knots = np.concatenate([problem.R.breakpoints(), problem.Q.breakpoints()])
    ts = np.sort(np.concatenate([np.linspace(problem.t0, problem.T, _VALIDATION_POINTS),
                                 knots[(knots > problem.t0) & (knots < problem.T)]]))
    for name, sched, floor, msg in (
        ("R_uniform_pd", problem.R, problem.r_min, "R not uniformly positive definite"),
        ("Q_psd", problem.Q, -PSD_TOL, "Q not positive semi-definite"),
    ):
        vals = sched.eval_many(ts)
        sym = 0.5 * (vals + np.swapaxes(vals, 1, 2))
        finite = np.isfinite(sym).all(axis=(1, 2))
        if not finite.all():
            bad.append(AssumptionViolation(
                name + "_finite", f"{name.split('_')[0]} not finite",
                time=float(ts[np.argmin(finite)]), eigenvalue=None))
            continue
        asym = np.max(np.abs(vals - np.swapaxes(vals, 1, 2)), axis=(1, 2))
        k = int(np.argmax(asym))
        if asym[k] > 1e-9 * (1.0 + np.max(np.abs(vals))):
            bad.append(AssumptionViolation(
                name + "_symmetry", f"{name.split('_')[0]} not symmetric",
                time=float(ts[k]), eigenvalue=None))
        eigs = np.linalg.eigvalsh(sym)
        k = int(np.argmin(eigs[:, 0]))
        if eigs[k, 0] < floor:
            bad.append(AssumptionViolation(name, msg, time=float(ts[k]), eigenvalue=float(eigs[k, 0])))
    return ValidationReport(tuple(bad))
