"""One workload run in a fresh process; ``run.py`` starts it.

The worker builds the seeded inputs, prints ``READY <fingerprint>`` (the
parent times start-up up to that line as set-up), then either stops
(``--setup-only``) or runs passes over the operations until ``--seconds``
of timed work are done.  Outputs are checked after the last pass, outside
the timer.  The last stdout line is one JSON object for the parent.

With ``--trace 1`` it alternates untraced and traced passes, reports the
per-layer self times from the spans and the tracing overhead, runs the
per-layer probes of ``layers.py`` and writes the spans to ``.bench_out``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from calibrate import kernel_time, kernel_time_all_cpus, normalise, one_cpu  # noqa: E402
from metrics import LAYER_SELF  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import OUT_DIR, WORKLOADS, CheckFailed, Workload  # noqa: E402

clock = time.perf_counter


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, what: str, error: Exception | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                kind = "check failed" if isinstance(error, CheckFailed) else type(error).__name__
                self.errors.append(f"{what}: {kind}: {error}")

    def check(self, what: str, check, *args) -> None:
        try:
            check(*args)
        except Exception as exc:  # a failed check, or a check that could not run
            self.record(what, exc)
        else:
            self.record(what, None)


def run_pass(workload: Workload, tracer: Tracer | None = None, spans_file: Path | None = None):
    """Run every operation once; returns (wall seconds, per-op times, outcomes).

    For a calibrated workload the kernel runs before the first operation
    and after each one, and each operation's time is normalised by the
    kernel runs on either side of it (see ``calibrate.py``).  The wall
    time is raw and includes the kernel runs.  An outcome is the
    operation's result, or the exception it raised.  With a tracer, each
    operation is a root span with its own trace id.
    """
    calibrate = kernel_time_all_cpus if workload.all_cpus else kernel_time
    times, outcomes = [], []
    start = clock()
    kernel_before = calibrate() if workload.calibrated else 0.0
    for trace_id, op in enumerate(workload.ops):
        span = tracer.begin(f"bench.{workload.name}", trace_id) if tracer else None
        op_start = clock()
        try:
            outcome = workload.run(op, spans_file)
        except Exception as exc:  # counted as a failed operation
            outcome = exc
        op_s = clock() - op_start
        outcomes.append(outcome)
        if tracer:
            tracer.end(span)
            if spans_file is not None and spans_file.exists():
                tracer.adopt(json.loads(spans_file.read_text()), span)
                spans_file.unlink()
        if workload.calibrated:
            kernel_after = calibrate()
            op_s = normalise(op_s, kernel_before, kernel_after)
            kernel_before = kernel_after
        times.append(op_s)
    return clock() - start, times, outcomes


def check_all(workload: Workload, outcomes_per_pass: list[list]) -> Tally:
    tally = Tally()
    for outcomes in outcomes_per_pass:
        for op, outcome in zip(workload.ops, outcomes):
            what = workload.describe(op)[:80]
            if isinstance(outcome, Exception):
                tally.record(what, outcome)
            else:
                tally.check(what, workload.check, op, outcome)
    for op in workload.oracle_ops:
        tally.check(f"oracle {workload.describe(op)[:80]}", workload.check_oracle, op)
    return tally


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) by ``statistics.quantiles``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_op_median(op_times: list[list[float]]) -> list[float]:
    """Each operation's median time over the passes."""
    return [statistics.median(samples) for samples in zip(*op_times)]


def timed_run(workload: Workload, seconds: float) -> dict:
    walls, op_times, outcomes = [], [], []
    while not walls or sum(walls) < seconds:
        wall, times, results = run_pass(workload)
        walls.append(wall)
        op_times.append(times)
        outcomes.append(results)
    rss = peak_rss_mb()  # before the checks, which start their own children
    tally = check_all(workload, outcomes)
    per_op = per_op_median(op_times)
    wall = sum(per_op)
    metrics = {
        "wall_s": wall,
        "work_per_s": workload.work / wall,
        "op_p50_ms": percentile(per_op, 50) * 1e3,
        "op_p90_ms": percentile(per_op, 90) * 1e3,
        "peak_rss_mb": rss,
    }
    summary = {
        "passes": len(walls),
        "ops": len(workload.ops),
        "work": workload.work,
        "raw_wall_s": statistics.median(walls),
    }
    return {"tally": tally, "metrics": metrics, "summary": summary}


def traced_run(workload: Workload, seconds: float, seed: int) -> dict:
    tracer = Tracer()
    spans_file = OUT_DIR / f"child-spans-{os.getpid()}.json"
    untraced, traced, outcomes = [], [], []
    elapsed = 0.0
    while not traced or elapsed < seconds:
        wall, times, results = run_pass(workload)
        elapsed += wall
        untraced.append(times)
        outcomes.append(results)
        tracer.install()
        try:
            wall, times, results = run_pass(workload, tracer, spans_file)
        finally:
            tracer.uninstall()
        elapsed += wall
        traced.append(times)
        outcomes.append(results)
    tally = check_all(workload, outcomes)
    tracer.write(OUT_DIR / f"spans-{workload.name}-{seed}.json")
    passes = len(traced)
    selfs = self_times(tracer.spans)
    base = sum(per_op_median(untraced))
    overhead = sum(per_op_median(traced)) - base
    metrics = {
        "trace.overhead_s": overhead,
        "trace.overhead_pct": overhead / base * 100,
        "trace.spans_per_pass": len(tracer.spans) / passes,
        **{f"{layer}.self_s": selfs.get(layer, 0.0) / passes for layer in LAYER_SELF},
    }
    summary = {"passes": passes, "ops": len(workload.ops), "work": workload.work}
    return {"tally": tally, "metrics": metrics, "summary": summary}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.small)
    OUT_DIR.mkdir(exist_ok=True)
    print(f"READY {workload.fingerprint()}", flush=True)
    if args.setup_only:
        return 0
    try:
        with contextlib.nullcontext() if workload.all_cpus else one_cpu():
            if args.trace:
                out = traced_run(workload, args.seconds, args.seed)
            else:
                out = timed_run(workload, args.seconds)
    finally:
        workload.cleanup()
    if args.trace:
        # Imported late so that set-up does not import the CLI; run outside
        # the CPU pin because the probes start pools.
        import layers

        out["metrics"].update(layers.measure(args.seed, args.small))
    tally = out.pop("tally")
    out.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors)
    out["summary"]["work_unit"] = workload.work_unit
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
