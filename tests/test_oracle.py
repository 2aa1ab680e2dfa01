import numpy as np
import pytest

from lqkernel.oracle import discrete_value, richardson_value
from lqkernel.solver import solve_feedback


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
        v_cont = solve_feedback(p, x0, 1500).value
        assert abs(rich["extrapolated"] - v_cont) <= 1e-4 * (1.0 + abs(v_cont))
