"""Smoke tests of the scripts under scripts/: each runs to its end."""

import importlib.util
import pathlib
import runpy

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_verify_bundled_passes_on_every_bundled_problem(capsys):
    spec = importlib.util.spec_from_file_location(
        "verify_bundled", SCRIPTS / "verify_bundled.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--steps", "500"]) == 0
    out = capsys.readouterr().out
    assert out.count(": pass") == len(list((SCRIPTS / "problems").glob("*.json")))


def test_convergence_study_runs(capsys):
    runpy.run_path(str(SCRIPTS / "convergence_study.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "dual Riccati flow M on a random N = 3 problem" in out
    assert "Richardson extrapolation" in out
