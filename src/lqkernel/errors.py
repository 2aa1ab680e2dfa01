"""Exception hierarchy shared across the package.

Grouping: input/data errors (bad files, out-of-domain queries) versus
numerical failures (blow-up, singularity, degenerate shooting systems).
The CLI maps these onto its exit-code contract.
"""


class LQKernelError(Exception):
    """Base class for all package errors."""


class ScheduleDomainError(LQKernelError):
    """Evaluation time outside a schedule's declared domain."""


class DomainError(LQKernelError):
    """Query time outside the domain of a dense solution."""


class ProblemFileError(LQKernelError):
    """Problem JSON failed to parse; message names the offending key."""


class HorizonMismatchError(LQKernelError):
    """Trajectories or solutions defined on incompatible horizons."""


class NumericalError(LQKernelError):
    """Base class for failures of the numerical methods themselves."""


class SingularMatrixError(NumericalError):
    """Matrix expected positive definite was not.

    Carries the offending minimum eigenvalue when known.
    """

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class IntegrationBlowupError(NumericalError):
    """Non-finite value encountered during integration."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class PositivityLostError(NumericalError):
    """A Riccati solution lost positive definiteness."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class BvpDegenerateError(NumericalError):
    """Shooting system of the reference kernel diagonal is numerically singular."""


class DegenerateProblemError(NumericalError):
    """Kernel diagonal numerically singular; problem too degenerate to solve."""


class InfeasibleInterpolationError(NumericalError):
    """Interpolation constraints inconsistent with the range of the Gram matrix."""
