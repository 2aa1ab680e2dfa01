import ast
import sys
import types
from pathlib import Path

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
    "KernelOperator", "lq_inner_product", "reproducing_residual",
    "spd_inverse", "sym_eig_pinv",
    "ControlledTrajectory", "LQProblem", "MatrixSchedule", "ValidationReport",
    "dynamics_defect", "validate_problem",
    "DEFAULT_STEPS", "DenseSolution", "build_grid",
    "discrete_value", "richardson_value",
    "double_integrator_problem", "random_problem", "random_trajectory", "rollout",
    "unit_scalar_problem",
    "solve_adjoint",
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


def test_library_imports_only_the_standard_library_numpy_and_itself():
    # scipy and other test extras are for tests only; the library runs on numpy
    allowed = set(sys.stdlib_module_names) | {"numpy", "lqkernel"}
    files = sorted(Path(lqkernel.__file__).parent.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, (path.name, name)
