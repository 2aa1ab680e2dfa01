import types

import lqkernel

# The package's public surface.  A name added to or dropped from
# lqkernel.__all__ is added to or dropped from this set in the same change,
# so a removed helper cannot come back unnoticed.
SURFACE = {
    "BvpDegenerateError", "DegenerateProblemError", "DomainError",
    "HorizonMismatchError", "InfeasibleInterpolationError",
    "IntegrationBlowupError", "LQKernelError", "NumericalError",
    "PositivityLostError", "ProblemFileError", "ScheduleDomainError",
    "SingularMatrixError",
    "KernelOperator", "lq_inner_product", "minimal_control", "reproducing_residual",
    "spd_inverse", "sym_eig_pinv",
    "ControlledTrajectory", "LQProblem", "MatrixSchedule", "ValidationReport",
    "dynamics_defect", "validate_problem",
    "DEFAULT_STEPS", "DenseSolution", "build_grid",
    "DiscreteLQ", "discrete_value", "richardson_value",
    "double_integrator_problem", "random_problem", "random_trajectory", "rollout",
    "unit_scalar_problem",
    "RiccatiSolution", "riccati_pair", "solve_adjoint", "solve_dual_riccati",
    "solve_riccati",
    "LQSolveResult", "evaluate_cost", "solve_feedback", "solve_kernel",
    "solve_multipoint",
}


def test_public_surface_is_exactly_the_listed_names():
    assert len(lqkernel.__all__) == len(set(lqkernel.__all__))
    assert set(lqkernel.__all__) == SURFACE
    # nothing else public sits in the package namespace, submodules aside
    assert {name for name, obj in vars(lqkernel).items()
            if not name.startswith("_") and not isinstance(obj, types.ModuleType)} == SURFACE


def test_public_names_resolve_and_none_is_a_module():
    for name in lqkernel.__all__:
        assert not isinstance(getattr(lqkernel, name), types.ModuleType), name


def test_star_import_exports_exactly_the_surface():
    namespace = {}
    exec("from lqkernel import *", namespace)
    assert set(namespace) - {"__builtins__"} == SURFACE
