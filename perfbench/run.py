#!/usr/bin/env python3
"""waylab benchmark: drive the CLI in-process on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a source checkout; it imports ``waylab`` from
``src/`` there.  One client in one thread calls ``waylab.cli.main``
closed-loop: each call starts when the previous one returns.  A round is
the workload's fixed list of calls; rounds repeat, on the same inputs,
until ``--seconds`` have passed.  After every call, outside the timed
region, the report is checked (see ``workloads.inspect``).

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` the first half of the time runs untraced, the rest runs
with spans around calls into each layer (see ``tracing``), and the
result carries the per-layer metrics.  The last line of stdout is the
result object; the line before it records provenance.
"""

import os
import sys
import time

START = time.perf_counter()

# BLAS/OpenMP pools of one thread, for this process and its children only.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Held back while the benchmark was built; use it to validate later claims.
VALIDATION_SEED = 20021017

# Setups per run (this process plus fresh child processes); setup_s is their median.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120

E2E_UNITS = {"setup_s": "s", "run_s": "s", "call_ms_p50": "ms", "peak_rss_mb": "MiB"}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Run:
    """Calls, checks and tallies for one benchmark run."""

    def __init__(self, calls: list, cli: Any, inspect: Any, clock: Any):
        self.calls = calls
        self.clock = clock
        self.cli = cli
        self.inspect = inspect
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, int] = {}
        self.errors: set[str] = set()
        self.main_latencies: list[float] = []
        self.values: dict[str, list[float]] = {}
        self.digests: list[set[str]] = [set() for _ in calls]
        self.report_bytes: list[int] = []

    def call(self, index: int) -> float:
        call = self.calls[index]
        for path in (call.report, call.report.with_suffix(".csv")):
            path.unlink(missing_ok=True)
        code, error = None, None

        def invoke() -> None:
            nonlocal code, error
            try:
                code = self.cli.main(call.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # any escape from main is a failed operation
                error = f"{type(exc).__name__}: {exc}"
                if error not in self.errors:
                    self.errors.add(error)
                    traceback.print_exc(file=sys.stderr)

        if self.tracer is not None:
            self.tracer.call_id += 1
            self.tracer.recording = True
        elapsed = self.clock.measure(invoke)
        if self.tracer is not None:
            self.tracer.recording = False

        outcome = self.inspect(call, code, error)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        for problem in outcome.problems:
            self.problems[problem] = self.problems.get(problem, 0) + 1
        for key, value in outcome.values.items():
            self.values.setdefault(key, []).append(value)
        if outcome.body_digest is not None:
            self.digests[index].add(outcome.body_digest)
        self.report_bytes.append(outcome.report_bytes)
        if call.main:
            self.main_latencies.append(elapsed)
        return elapsed

    def rounds(self, until: float) -> list[float]:
        """Repeat the round until ``until`` (perf_counter), at least once."""
        times: list[float] = []
        while not times or time.perf_counter() < until:
            times.append(sum(self.call(i) for i in range(len(self.calls))))
        return times


def _child_setup(args: argparse.Namespace) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"setup child failed ({done.returncode}): {done.stderr.strip()}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "waylab").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30, check=False)
    return done.stdout.strip() or None


def _provenance(args: argparse.Namespace, run: Run, rounds: int) -> dict[str, Any]:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        openblas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "validation_seed": VALIDATION_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "rounds": rounds,
        "calls": len(run.report_bytes),
        "main_calls": len(run.main_latencies),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "problems": run.problems,
    }


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "waylab" / "__init__.py").is_file():
        print(f"perfbench: no waylab sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import waylab.cli
    import clock
    import workloads

    if Path(waylab.cli.__file__).resolve().parents[1] != SRC:
        print(f"perfbench: imported waylab from {waylab.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    prepare = workloads.WORKLOADS.get(args.workload)
    if prepare is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run = None
    try:
        calls = prepare(args.seed, workdir, args.smoke)
        setup = clock.corrected(time.perf_counter() - START)
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0
        setups = [setup]
        if args.trace == 0:  # the traced run reports no setup_s
            setups += [_child_setup(args) for _ in range(SETUP_SAMPLES - 1)]

        run = Run(calls, waylab.cli, workloads.inspect, clock.Clock())
        t0 = time.perf_counter()
        if args.trace == 0:
            times = run.rounds(t0 + args.seconds)
            metrics = {
                "setup_s": statistics.median(setups),
                "run_s": statistics.median(times),
                "call_ms_p50": 1e3 * statistics.median(run.main_latencies),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            result = {k: _metric(v, E2E_UNITS[k]) for k, v in metrics.items()}
            rounds = len(times)
        else:
            result = _traced(args, run, t0)
            rounds = len(run.report_bytes) // len(calls)
    finally:
        if run is not None:
            run.clock.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"provenance": _provenance(args, run, rounds)}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": result,
    }))
    return 0


def _traced(args: argparse.Namespace, run: Run, t0: float) -> dict[str, Any]:
    import tracing

    plain = run.rounds(t0 + args.seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    run.tracer = tracer
    try:
        traced = run.rounds(t0 + args.seconds)
    finally:
        tracer.uninstall()
    tracer.write(OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl")

    layers = tracing.layer_metrics(tracer, len(traced))
    layers["cnot.fsq_excess_max"] = max(run.values.get("fsq_excess", [0.0]))
    layers["scenarios.best_fsq"] = max(run.values.get("best_fsq", [0.0]))
    layers["cli.report_bytes"] = statistics.mean(run.report_bytes) * len(run.calls)
    layers["cli.report_digests"] = max(len(d) for d in run.digests)
    layers["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return {name: _metric(value, tracing.unit(name)) for name, value in layers.items()}


if __name__ == "__main__":
    sys.exit(main())
