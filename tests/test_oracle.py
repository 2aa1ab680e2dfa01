import ast
import pathlib
import warnings

import numpy as np
import pytest

import lqkernel.oracle
from lqkernel.cli import load_problem_file
from lqkernel.errors import IntegrationBlowupError, NumericalError, SingularMatrixError
from lqkernel.kernel import KernelOperator
from lqkernel.model import LQProblem, MatrixSchedule
from lqkernel.oracle import discrete_value, richardson_value
from lqkernel.problems import random_problem
from lqkernel.solver import solve_feedback
from lqkernel.verify import ORACLE_STEPS, TOLERANCES
from oracle_reference import sequential_discrete_value

BUNDLED = sorted((pathlib.Path(__file__).resolve().parents[1]
                  / "scripts" / "problems").glob("*.json"))


def test_value_scalar_energy(p1):
    assert discrete_value(p1, [1.0], 1000) == pytest.approx(0.5, abs=2e-3)


def test_value_unit_cost(p2):
    assert discrete_value(p2, [1.0], 1000) == pytest.approx(1.0, abs=5e-3)


def test_value_zero_state(p2):
    assert discrete_value(p2, [0.0], 100) == 0.0


def test_minimum_resolution_enforced(p1):
    with pytest.raises(ValueError):
        discrete_value(p1, [1.0], 5)


def test_first_order_richardson_ratio(dint, random_problems):
    for p in [dint, random_problems[0]]:
        x0 = np.ones(p.state_dim)
        v1 = discrete_value(p, x0, 400)
        v2 = discrete_value(p, x0, 800)
        v4 = discrete_value(p, x0, 1600)
        ratio = abs(v1 - v2) / abs(v2 - v4)
        assert 1.7 <= ratio <= 2.3


def test_extrapolated_value_matches_continuous(p2, dint, random_problems):
    for p in [p2, dint, random_problems[1]]:
        x0 = np.ones(p.state_dim)
        rich = richardson_value(p, x0, 1500)
        v_cont = solve_feedback(KernelOperator(p, 1500), x0).value
        assert abs(rich["extrapolated"] - v_cont) <= 1e-4 * (1.0 + abs(v_cont))


# on a uniform mesh a pwc jump falls at a different place within its cell at
# h and at h/2, so the extrapolation left 1.1e-4 to 3.0e-4 on these seeds
@pytest.mark.parametrize("seed, dim", [
    pytest.param([s, g], 2 if g == 2 else None, id=f"{s}_{g}")
    for s, g in ((13, 2), (22, 2), (38, 2), (9, 3), (11, 3), (21, 3), (73, 3))])
def test_richardson_meets_the_verify_tolerance_with_jumps(seed, dim):
    p = random_problem(np.random.default_rng(seed), dim)
    assert p.breakpoints().size
    x0 = np.ones(p.state_dim) / np.sqrt(p.state_dim)
    rich = richardson_value(p, x0, ORACLE_STEPS)
    vf = solve_feedback(KernelOperator(p, 4000), x0).value
    gap = abs(rich["extrapolated"] - vf) / (1.0 + abs(vf))
    assert gap <= TOLERANCES["oracle_richardson"]


def test_richardson_reports_the_cells_it_ran():
    # the breakpoints 0.308 and 0.734 of T = 0.950 cut 1000 cells into
    # pieces of 324.4, 447.4 and 228.1, rounded to 324 + 447 + 228 = 999
    p = random_problem(np.random.default_rng([18, 3]))
    assert richardson_value(p, np.ones(p.state_dim), ORACLE_STEPS)["cells"] == [999, 1998, 3996]
    assert richardson_value(p, np.ones(p.state_dim), 2000)["cells"] == [2000, 4000, 8000]


def _reference_problems():
    named = [(path.stem, lambda path=path: load_problem_file(str(path))[0])
             for path in BUNDLED]
    named += [(f"random-N{n}", lambda n=n: random_problem(np.random.default_rng([n, 4]), n))
              for n in range(1, 9)]
    return named


@pytest.mark.parametrize("make", [pytest.param(m, id=name) for name, m in _reference_problems()])
def test_reduction_matches_sequential_reference(make):
    # 10, 37, 2000 and 4001 steps carry an odd element at one or more levels
    p = make()
    x0 = np.random.default_rng(p.state_dim).normal(size=p.state_dim)
    for steps in (10, 15, 37, 2000, 4001):
        ref = sequential_discrete_value(p, x0, steps)
        assert discrete_value(p, x0, steps) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_nonfinite_value_raises_blowup():
    # x' = 400x cannot be steered: P_0 grows like 1.2^4000 and overflows
    c = MatrixSchedule.constant
    p = LQProblem(1, 1, 0.0, 1.0, c([[400.0]]), c([[0.0]]), c([[1.0]]), c([[1.0]]), [[1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationBlowupError) as info:
            discrete_value(p, [1.0], 2000)
    assert isinstance(info.value, NumericalError)


def test_singular_control_weight_raises_singular_matrix_error():
    c = MatrixSchedule.constant
    p = LQProblem(2, 1, 0.0, 1.0, c(np.eye(2)), c(np.zeros((2, 1))),
                  c(np.eye(2)), c([[0.0]]), np.eye(2))
    with pytest.raises(SingularMatrixError):
        discrete_value(p, [1.0, 1.0], 100)


def test_oracle_imports_only_numpy_errors_and_model():
    # the oracle is the second route of verify: it must share no
    # discretization with ode, riccati, linalg or kernel
    tree = ast.parse(pathlib.Path(lqkernel.oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"numpy", ".errors", ".model"}
