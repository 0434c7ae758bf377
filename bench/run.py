"""zorbit benchmark: run one workload from a seed and print its metrics.

    python3 bench/run.py --workload grid-verify --seed 1 --seconds 15 --trace 0

Run from the repository root (it imports ``src/zorbit`` and the test
oracles in ``tests/oracles.py``).  Each run starts fresh worker processes
(``worker.py``): a few that only build the inputs, to time set-up, then
one that builds them again and measures.  The last stdout line is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``--small`` shrinks every input, for the self-test.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import kernel_time, normalise, one_cpu
from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid-verify", "box-census", "sweep-cli", "huge-orbit")
SETUP_REPEATS = 6  # set-up-only processes per run, to time set-up
TIMEOUT_S = 170


class WorkerError(Exception):
    pass


def start_worker(argv: list[str]) -> tuple[subprocess.Popen, float, str]:
    """Start a worker; returns it, the seconds until READY, and the input digest."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv], stdout=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    if not line.startswith("READY "):
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker stopped before its inputs were ready: {line!r}")
    return proc, setup_s, line.split()[1]


def finish_worker(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker ran longer than {TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}")
    return out


def measure(args: argparse.Namespace) -> tuple[dict, list[float], str]:
    """Time set-up in fresh processes, then run the measuring worker.

    Returns the worker's result, the normalised set-up times (each between
    two calibration kernel runs on the same CPU, see ``calibrate.py``) and
    the input digest.
    """
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    argv += ["--trace", str(args.trace)] + (["--small"] if args.small else [])
    setups = []
    if not args.trace:
        with one_cpu():  # the kernel and the set-up workers share a CPU
            for _ in range(SETUP_REPEATS):
                before = kernel_time()
                proc, setup_s, _ = start_worker(argv + ["--setup-only"])
                finish_worker(proc)
                setups.append(normalise(setup_s, before, kernel_time()))
    proc, _, digest = start_worker(argv)
    lines = finish_worker(proc).strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return json.loads(lines[-1]), setups, digest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one zorbit benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/zorbit/__init__.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: run from a zorbit checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        result, setups, digest = measure(args)
    except WorkerError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    values = dict(result["metrics"])
    if args.trace:
        specs = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        values["setup_s"] = statistics.median(setups)
        specs = {name: unit for name, (unit, _, _) in END_TO_END.items()}
    summary = result["summary"]
    print(
        f"{args.workload} seed={args.seed} inputs={digest}: {summary['ops']} ops x "
        f"{summary['passes']} passes, {summary['work']} {summary['work_unit']} per pass, "
        f"failed {result['failed']}/{result['attempted']}"
    )
    if not args.trace:
        # Each workload's own names for the generic metrics, for reading by eye.
        print(
            f"  {summary['work_unit']}_per_s={values['work_per_s']:.6g}  "
            f"op latency over {summary['ops']} ops (each a median of {summary['passes']} passes): "
            f"p50={values['op_p50_ms']:.6g} ms p90={values['op_p90_ms']:.6g} ms  "
            f"set-up samples={len(setups)}"
        )
        print(f"  raw median pass wall={summary['raw_wall_s']:.6g} s (not normalised)")
    for name in specs:
        print(f"  {name} = {values[name]:.6g} {specs[name]}")
    for error in result["errors"]:
        print(f"  FAILED {error}")
    report = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in specs.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
