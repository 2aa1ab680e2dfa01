"""lqkernel benchmark: end-to-end metrics, or per-layer metrics from a trace.

    python3 perfbench/run.py --workload solve|rendezvous|certify \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  perfbench/README.md describes the
workloads and metrics.  A run starts fresh interpreters one at a time and
waits for each: one generates the seeded inputs, and one sets up and runs the
workload in a closed loop with one client; between operations that one starts
ten more, one at a time, that time the set-up alone.
Readable lines come first; the last line of standard output is the result
as JSON.  Inputs, outputs and the trace go to .perfbench/ in the checkout.
"""

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "cycle_ref": "ref", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    last = name.rsplit(".", 1)[-1]
    if any(word in last for word in ("ratio", "frac", "cover", "rate")):
        return "ratio"
    return "count"


def _worker_cmd(root, work, mode, *extra):
    return [sys.executable, str(HERE / "worker.py"), mode,
            "--root", str(root), "--work", str(work), *map(str, extra)]


def _left(deadline):
    return max(1.0, deadline - time.perf_counter())


def _run_worker(cmd, deadline):
    """Run a worker to its end; return seconds from start until it printed `ready`."""
    start = time.perf_counter()
    # its own process group, so that a kill also ends the set-up probe it runs
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.communicate(timeout=_left(deadline))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"worker {cmd[2]} exited with code {proc.returncode}")
    return ready


def _git_commit(root):
    """The checkout's commit, or None when it is not a git work tree."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def run(args, root):
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    work = root / ".perfbench" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    subprocess.run(_worker_cmd(root, work, "gen", "--workload", args.workload,
                               "--seed", args.seed),
                   check=True, timeout=_left(deadline))
    ready = _run_worker(
        _worker_cmd(root, work, "run", "--seconds", args.seconds, "--trace", args.trace),
        deadline)
    r = json.loads((work / "result.json").read_text())

    fail_rate = r["failed"] / r["attempted"]
    frac = r["defect_frac_max"]
    print(f"meta: {json.dumps({**r['meta'], 'git_commit': _git_commit(root)})}")
    for line in r["log"]:
        print(f"failed operation: {line}")
    for line in r["problems"]:
        print(f"benchmark check failed: {line}")
    print(f"ops: {r['attempted']} attempted, {r['failed']} failed "
          f"({r['reported']} reported by the program with exit 1 or 3, "
          f"{r['wrong']} wrong)")
    print(f"fail_rate {fail_rate:.6g} ratio; defect_frac_max "
          f"{'n/a' if frac is None else f'{frac:.6g}'} ratio (worst defect / tolerance "
          "over the operations that passed)")

    if args.trace:
        metrics = dict(r["layers"])
        print(f"per-layer values are means over {metrics.pop('trace.ops')} traced "
              "operations, each paired with an untraced run of the same operation")
        metrics["output.fail_rate"] = fail_rate
        metrics["output.defect_frac_max"] = frac if frac is not None else 0.0
        units = {name: layer_unit(name) for name in metrics}
    else:
        lat = r["latencies"]
        setups = [ready, *r["setups"]]
        metrics = {
            "setup_s": statistics.median(setups),
            "cycle_ref": sum(statistics.median(per_op) for per_op in r["ratios"]),
            "peak_rss_mb": r["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        print(f"setup_s: median of {len(setups)} fresh interpreters: "
              + ", ".join(f"{s:.4f}" for s in setups))
        refs = r["refs"]
        print(f"reference loop over {len(refs)} samples: median {statistics.median(refs):.4f} s, "
              f"fastest {min(refs):.4f} s, slowest {max(refs):.4f} s")
        for label, per_op, ratio in zip(r["labels"], lat, r["ratios"]):
            print(f"{label:20s} {len(per_op):3d} runs: {statistics.median(ratio):8.3f} ref; "
                  f"fastest {min(per_op):.4f} s, median {statistics.median(per_op):.4f} s, "
                  f"slowest {max(per_op):.4f} s")
        print(f"cycle time (sum of per-command medians): "
              f"{sum(statistics.median(per_op) for per_op in lat):.4f} s")
    for name in sorted(metrics):
        print(f"{name:44s} {metrics[name]:14.6g} {units[name]}")

    print(json.dumps({
        "correct": r["wrong"] == 0 and not r["problems"],
        "attempted": int(r["attempted"]),
        "failed": int(r["failed"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["solve", "rendezvous", "certify"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    root = pathlib.Path.cwd().resolve()
    if not (root / "src" / "lqkernel" / "cli.py").is_file():
        print(f"error: {root} holds no lqkernel sources (src/lqkernel/cli.py); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        return run(args, root)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
