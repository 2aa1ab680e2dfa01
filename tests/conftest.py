import numpy as np
import pytest

from lqkernel.kernel import KernelOperator
from lqkernel.model import MatrixSchedule, LQProblem
from lqkernel.problems import (double_integrator_problem, random_problem,
                               unit_scalar_problem)


@pytest.fixture(scope="session")
def p1() -> LQProblem:
    """Scalar x' = u, control energy plus terminal weight: J(t) = 1/(2-t)."""
    return unit_scalar_problem(state_cost=0.0)


@pytest.fixture(scope="session")
def p2() -> LQProblem:
    """Scalar with unit state cost: J = M = 1 along the whole horizon."""
    return unit_scalar_problem(state_cost=1.0)


@pytest.fixture(scope="session")
def dint() -> LQProblem:
    return double_integrator_problem()


@pytest.fixture(scope="session")
def zero_drive() -> LQProblem:
    """A 2-state problem with B = 0: only homogeneous motion is feasible."""
    c = MatrixSchedule.constant
    return LQProblem(2, 1, 0.0, 1.0, c(np.zeros((2, 2))), c(np.zeros((2, 1))),
                     c(np.zeros((2, 2))), c([[1.0]]), np.diag([1.0, 2.0]))


@pytest.fixture(scope="session")
def random_problems() -> list[LQProblem]:
    rng = np.random.default_rng(20240811)
    return [random_problem(rng) for _ in range(5)]


@pytest.fixture(scope="session")
def operator_cache():
    """Shared kernel operators keyed by (id(problem), steps, extra_nodes)."""
    cache: dict = {}

    def get(problem: LQProblem, steps: int, extra_nodes=()) -> KernelOperator:
        key = (id(problem), steps, tuple(float(t) for t in extra_nodes))
        if key not in cache:
            cache[key] = KernelOperator(problem, steps, extra_nodes=extra_nodes)
        return cache[key]

    return get
