"""Step-halving study: RK4 order on the integrator, the fourth order of the
dual Riccati flow M (Magnus-Pade steps), O(h) bias of the oracle.

Usage: python scripts/convergence_study.py
"""

import math

import numpy as np

from lqkernel.kernel import KernelOperator
from lqkernel.model import MatrixSchedule
from lqkernel.ode import build_grid, rk4_affine, schedule_stage_table
from lqkernel.oracle import discrete_value
from lqkernel.problems import double_integrator_problem, random_problem, unit_scalar_problem
from lqkernel.solver import solve_feedback


def rk4_table():
    print("RK4 on Y' = Y over [0, 1] (exact value e):")
    print(f"{'steps':>8} {'error':>14} {'ratio':>8}")
    one = MatrixSchedule.constant([[1.0]])
    prev = None
    for steps in (50, 100, 200, 400, 800):
        grid = build_grid(0.0, 1.0, steps)
        sol = rk4_affine(grid, schedule_stage_table(one, grid), np.array([[1.0]]))
        err = abs(sol.eval(1.0)[0, 0] - math.e)
        ratio = f"{prev / err:8.2f}" if prev else " " * 8
        print(f"{steps:>8} {err:14.3e} {ratio}")
        prev = err


def dual_table(problem, name):
    fine = KernelOperator(problem, 6400).M
    print(f"\ndual Riccati flow M on {name} (error against 6400 steps):")
    print(f"{'steps':>8} {'error':>14} {'ratio':>8}")
    prev = None
    for steps in (50, 100, 200, 400, 800):
        M = KernelOperator(problem, steps).M
        err = np.max(np.abs(M.values - fine.eval_many(M.times)))
        ratio = f"{prev / err:8.2f}" if prev else " " * 8
        print(f"{steps:>8} {err:14.3e} {ratio}")
        prev = err


def oracle_table(problem, name):
    x0 = np.ones(problem.state_dim) / math.sqrt(problem.state_dim)
    v_ref = solve_feedback(KernelOperator(problem, 4000), x0).value
    print(f"\ndiscrete oracle on {name} (continuous value {v_ref:.10f}):")
    print(f"{'steps':>8} {'value':>16} {'bias':>12} {'ratio':>8}")
    prev = None
    for steps in (250, 500, 1000, 2000, 4000):
        v = discrete_value(problem, x0, steps)
        bias = v - v_ref
        ratio = f"{prev / bias:8.2f}" if prev else " " * 8
        print(f"{steps:>8} {v:16.10f} {bias:12.3e} {ratio}")
        prev = bias
    v_h = discrete_value(problem, x0, 2000)
    v_h2 = discrete_value(problem, x0, 4000)
    print(f"Richardson extrapolation 2 v(h/2) - v(h): {2 * v_h2 - v_h:.10f} "
          f"(residual {2 * v_h2 - v_h - v_ref:.3e})")


if __name__ == "__main__":
    rk4_table()
    dual_table(random_problem(np.random.default_rng(3), state_dim=3), "a random N = 3 problem")
    oracle_table(unit_scalar_problem(state_cost=1.0), "scalar unit-cost problem")
    oracle_table(double_integrator_problem(), "double integrator")
