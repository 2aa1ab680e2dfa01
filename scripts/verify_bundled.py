"""Run the identity checklist over every bundled problem file.

Usage: python scripts/verify_bundled.py [--steps N] [--seed S]
"""

import argparse
import pathlib
import sys

from lqkernel.cli import load_problem_file
from lqkernel.verify import run_verification

HERE = pathlib.Path(__file__).parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    worst_overall = 0.0
    failed = []
    for path in sorted((HERE / "problems").glob("*.json")):
        problem, _ = load_problem_file(str(path))
        report = run_verification(problem, args.seed, args.steps)
        worst = max(c["defect"] / c["tolerance"] for c in report["checks"])
        worst_overall = max(worst_overall, worst)
        status = "pass" if report["passed"] else "FAIL"
        print(f"{path.stem:>20}: {status}  (worst defect at {100 * worst:.4f}% of tolerance)")
        if not report["passed"]:
            failed.append(path.stem)
            for c in report["checks"]:
                if not c["passed"]:
                    print(f"{'':>22}{c['name']}: {c['defect']:.3e} > {c['tolerance']:g}")
    print(f"\nworst defect across problems: {100 * worst_overall:.4f}% of tolerance")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
