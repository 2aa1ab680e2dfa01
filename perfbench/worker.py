"""One benchmark process: generate inputs, or set up and run a workload.

    worker.py gen   --root R --work W --workload NAME --seed N
    worker.py setup --root R --work W
    worker.py run   --root R --work W --seconds S --trace 0|1

`gen` writes the seeded inputs and `manifest.json` under W.  `setup` imports
`lqkernel.cli`, then parses and validates every input document, prints
`ready` and exits; whoever starts it times it from process start.  `run`
does the same set-up, then the timed closed loop (one client, in this
process) with `setup` probes between operations, then the output-check
self-test on the first operation's output, and writes `result.json` under W.
Operations run from R, the checkout.
"""

import os

# Pin BLAS before numpy is imported: one thread, so a run neither competes
# with itself for the cores nor depends on how many there are.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402

# The CLI's documented failure exits: 1 verification failed, 3 numerical failure.
REPORTED_FAILURE_EXITS = (1, 3)
# Set-up probes per timed run, spread evenly over it.
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 60.0
# Steps of the reference loop, about 0.1 s on the machine the benchmark was
# written on, and its orthogonal matrix, which keeps the vector's norm.
REF_STEPS = 60_000
_REF_Q = np.linalg.qr(np.arange(1.0, 17.0).reshape(4, 4) ** 0.5)[0]


def _import_program(root):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import lqkernel.cli
    if not pathlib.Path(lqkernel.cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"lqkernel imported from {lqkernel.cli.__file__}, not {src}")
    return lqkernel.cli


def _setup(root, work):
    """Import the CLI, then parse and validate every input; return (cli, ops)."""
    cli = _import_program(root)
    from lqkernel.model import validate_problem
    ops = json.loads((work / "manifest.json").read_text())["ops"]
    for op in ops:
        problem, _ = cli.load_problem_file(op["doc"])
        report = validate_problem(problem)
        if not report.valid:
            raise ValueError(f"{op['doc']}: {report.summary()}")
    return cli, ops


class Tally:
    """Failure accounting over attempted operations.

    A failure is a nonzero exit, an exception, or an output check over its
    tolerance.  A failure is *reported* when the program says so itself with
    one of the CLI's failure exits.  Any other failure is a *wrong* answer:
    an output that exits 0 but fails its check, another exit code, or an
    exception.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reported = 0

    def record(self, passed, rc=0):
        self.attempted += 1
        self.failed += not passed
        self.reported += not passed and rc in REPORTED_FAILURE_EXITS

    @property
    def wrong(self):
        return self.failed - self.reported


def run_op(cli, op):
    """Run one CLI command in-process; return (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op["argv"])
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc = -1
        err.write(traceback.format_exc())
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()


def _csv_text(op):
    argv = op["argv"]
    if "--out" not in argv:
        return ""
    try:
        return pathlib.Path(argv[argv.index("--out") + 1]).read_text()
    except OSError:
        return ""


def reference_s():
    """Seconds for a fixed loop of 4x4 matrix-vector products.

    The loop has the shape of lqkernel's RK4 stages (a Python loop over small
    numpy products) but runs none of its code, so its time tracks only the
    interpreter, numpy and the speed the machine runs at just then.
    """
    q, x = _REF_Q, np.ones(4)
    start = time.perf_counter()
    for _ in range(REF_STEPS):
        x = q @ x
    return time.perf_counter() - start


def time_setup(root, work):
    """Start `worker.py setup` and wait for it; return seconds until it was ready."""
    cmd = [sys.executable, __file__, "setup", "--root", str(root), "--work", str(work)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    return ready


def _whole_cycles(seconds, run_cycle):
    """Call `run_cycle` until the cycle boundary nearest to `seconds`.

    Whole cycles keep the mix of operations the same on every run.
    """
    start = time.perf_counter()
    for cycle in itertools.count(1):
        run_cycle()
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / cycle >= seconds:
            return


class Runner:
    """Runs, times and checks operations; keeps the tally and a problem log."""

    def __init__(self, cli):
        self.cli = cli
        self.tally = Tally()
        self.log = []        # failed operations
        self.problems = []   # failed self-test or trace coverage check
        self.fracs = []
        self.first = None    # (op, rc, stdout, csv) of the first operation run

    def op(self, op):
        """Run and check one operation; return its wall time in seconds."""
        seconds, rc, stdout, stderr = run_op(self.cli, op)
        csv_text = _csv_text(op)
        if self.first is None:
            self.first = (op, rc, stdout, csv_text)
        passed, frac, msg = checks.check(op, rc, stdout, csv_text)
        self.tally.record(passed, rc)
        if passed:
            self.fracs.append(frac)
        else:
            self.log.append(f"{op['label']}: {msg}; {stderr.strip()[-300:]}")
        return seconds

    def self_test(self):
        """Check the first operation's real output and a corrupted copy of it."""
        op, rc, stdout, csv_text = self.first
        probe = Tally()
        problem = checks.self_test(op, rc, stdout, csv_text, probe.record)
        if not problem and (probe.attempted, probe.failed) != (1, 1):
            problem = f"corrupted output counted {probe.failed} of {probe.attempted} failed"
        if problem:
            self.problems.append(f"output-check self-test: {problem}")

    def loop(self, ops, seconds, probe):
        """Closed loop over whole cycles of the operations.

        Before the first operation and after each one it times the reference
        loop; an operation's time over the mean of the reference times on
        either side of it is its time in reference units.  Between operations
        it calls `probe` at SETUP_PROBES evenly spaced times.  Returns, in
        the order of `ops`, the latencies of each operation and their ratios
        to the reference, then the reference times and the probe results.
        """
        latencies = [[] for _ in ops]
        ratios = [[] for _ in ops]
        refs = [reference_s()]
        setups = []
        start = time.perf_counter()

        def cycle():
            for lat, ratio, op in zip(latencies, ratios, ops):
                lat.append(self.op(op))
                refs.append(reference_s())
                ratio.append(lat[-1] / (0.5 * (refs[-2] + refs[-1])))
                due = len(setups) * seconds / SETUP_PROBES
                if len(setups) < SETUP_PROBES and time.perf_counter() - start >= due:
                    setups.append(probe())

        _whole_cycles(seconds, cycle)
        setups.extend(probe() for _ in range(SETUP_PROBES - len(setups)))
        return latencies, ratios, refs, setups

    def trace_loop(self, ops, seconds, spans_path):
        """Whole cycles over the operations, each run untraced, then traced."""
        tr = tracer.Tracer()
        plain, traced, cover = [], [], []

        def cycle():
            for op in ops:
                plain.append(self.op(op))
                tr.op += 1
                tr.install()
                try:
                    traced.append(self.op(op))
                finally:
                    tr.uninstall()
                top = sum(s[5] - s[4] for s in tr.spans if s[2] == tr.op and s[1] < 0)
                cover.append(top / traced[-1])

        _whole_cycles(seconds, cycle)
        tr.write(spans_path)
        table = tracer.layer_table(tr.spans, len(traced))
        table["trace.ops"] = len(traced)
        table["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
        table["trace.top_span_cover"] = min(cover)
        if min(cover) < 0.9:
            self.problems.append(f"top-level spans cover only {min(cover):.3f} "
                                 "of a traced operation")
        return table


def _metadata(root):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "cpu_count": os.cpu_count(), "src_lines": src_lines}


def cmd_run(args, root, work):
    cli, ops = _setup(root, work)
    print("ready", flush=True)
    runner = Runner(cli)
    result = {}
    if args.trace:
        result["layers"] = runner.trace_loop(ops, args.seconds, work / "spans.jsonl")
    else:
        (result["latencies"], result["ratios"], result["refs"],
         result["setups"]) = runner.loop(ops, args.seconds, lambda: time_setup(root, work))
        result["labels"] = [op["label"] for op in ops]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.self_test()
    t = runner.tally
    result.update(attempted=t.attempted, failed=t.failed, reported=t.reported,
                  wrong=t.wrong, log=runner.log, problems=runner.problems,
                  defect_frac_max=max(runner.fracs, default=None),
                  meta=_metadata(root))
    (work / "result.json").write_text(json.dumps(result))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["gen", "setup", "run"])
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args(argv)
    root = pathlib.Path(args.root).resolve()
    work = pathlib.Path(args.work).resolve()
    os.chdir(root)
    if args.mode == "gen":
        _import_program(root)
        import workloads
        manifest = workloads.generate(args.workload, args.seed, root, work)
        (work / "manifest.json").write_text(json.dumps(manifest))
    elif args.mode == "setup":
        _setup(root, work)
        print("ready", flush=True)
    else:
        cmd_run(args, root, work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
