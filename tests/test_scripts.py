"""Smoke tests of the scripts under scripts/: each runs to its end."""

import importlib.util
import pathlib
import runpy
import sys

from lqkernel import verify

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_verify_bundled_passes_on_every_bundled_problem(capsys):
    spec = importlib.util.spec_from_file_location(
        "verify_bundled", SCRIPTS / "verify_bundled.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--steps", "500"]) == 0
    out = capsys.readouterr().out
    assert out.count(": pass") == len(list((SCRIPTS / "problems").glob("*.json")))


def test_parity_digest_is_deterministic(capsys):
    spec = importlib.util.spec_from_file_location(
        "parity_digest", SCRIPTS / "parity_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    runs = []
    for _ in range(2):
        assert module.main(["--steps", "30"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    lines = runs[0].splitlines()
    labels = [line.split("  ")[1] for line in lines]
    assert len(set(labels)) == len(lines) > 100
    assert all(len(line.split("  ")[0]) == 64 for line in lines)
    assert {"flows/switched_tracking", "verify/switched_tracking",
            "cli_multipoint/n8_m4_k5"} <= set(labels)
    assert {f"verify/{name}/{check}" for name in ("switched_tracking", "random_5_3")
            for check, _, _ in verify.CHECKS} <= set(labels)


def test_convergence_study_runs(capsys):
    runpy.run_path(str(SCRIPTS / "convergence_study.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "dual Riccati flow M on a random N = 3 problem" in out
    assert "Richardson extrapolation" in out
    # the oracle value that `verify` and `compare` read, once per problem
    assert out.count("second-level Richardson value on 1000 cells, as verify reads it") == 2


def test_paired_timing_runs_against_its_own_source(capsys):
    spec = importlib.util.spec_from_file_location(
        "paired_timing", SCRIPTS / "paired_timing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    try:
        assert module.main([str(SCRIPTS.parent / "src"), "--steps", "40", "--pairs", "2"]) == 0
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == module.BASE_NAME]:
            del sys.modules[name]
    count, *lines = capsys.readouterr().out.splitlines()
    src_lines = sum(path.read_text().count("\n")
                    for path in (SCRIPTS.parent / "src" / "lqkernel").glob("*.py"))
    assert count == f"lqkernel lines: base {src_lines}, this {src_lines}"
    assert lines[0].split() == ["command", "base_s", "this_s", "ratio", "faster"]
    assert [line[:28].strip() for line in lines[1:]] == [
        "verify switched_tracking", "multipoint n4_k3_m2", "multipoint n6_k4_m3",
        "multipoint n8_k5_m4", "all commands"]
    assert all(line.endswith("/2") for line in lines[1:])
