"""Per-layer probes: each times one layer on the inputs of the workload it moves.

Every traced run reports all of these, whatever workload it traces, so
the numbers come from the same seeded inputs the untraced runs use.  A
probe that subtracts one timing from another (``attribute_s``,
``verdict_s``, ``transient_s``) times both sides on the same cell back
to back, so host noise between cells does not enter the difference.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
import time
from array import array

import zorbit
import zorbit.cli
from zorbit import Params
from workloads import BoxCensus, GridVerify, HugeOrbit, SweepCli, zorbit_env

clock = time.perf_counter


def timed(fn, *args, **kwargs) -> tuple[float, object]:
    start = clock()
    result = fn(*args, **kwargs)
    return clock() - start, result


def median_of(reps: int, fn) -> float:
    """Median wall time of ``reps`` calls of ``fn()``."""
    return statistics.median(timed(fn)[0] for _ in range(reps))


def huge_probes(huge: HugeOrbit) -> dict[str, float]:
    to_digits_s = z_s = 0.0
    z_evals = 0
    for n, params in huge.ops:
        to_digits_s += timed(zorbit.to_digits, n, params.k)[0]
        elapsed, z1 = timed(zorbit.z_transform, n, params)
        z_s += elapsed
        # A start above the box never recurs, so orbit(n) is one step
        # longer than orbit(z(n)); this avoids a second huge first step.
        z_evals += len(zorbit.orbit(z1, params).values)
    return {
        "kadic.to_digits_ms": to_digits_s * 1e3,
        "transform.z_huge_ms": z_s * 1e3,
        "transform.z_evals": z_evals,
    }


def grid_probes(grid: GridVerify) -> dict[str, float]:
    cells = grid.ops

    def z_over_boxes() -> None:
        z = zorbit.z_transform
        for params in cells:
            for n in range(grid.bounds[params] + 1):
                z(n, params)

    def check_all_cells() -> None:
        for params in cells:
            zorbit.check_all(params)

    z_calls = sum(b + 1 for b in grid.bounds.values())
    attribute_s = verdict_s = 0.0
    failing = 0
    for params in cells:
        box_s = timed(zorbit.cycle_census, params)[0]
        check_s = timed(zorbit.check_all, params)[0]
        census_s = timed(zorbit.cycle_census, params, grid.n_max)[0]
        verify_s, report = timed(zorbit.verify_theorem1, params, grid.n_max)
        attribute_s += census_s - box_s
        verdict_s += verify_s - check_s - census_s
        failing += not report.passed
    above = sum(max(0, grid.n_max - b) for b in grid.bounds.values())
    orbit_small = Params(137, 11)
    return {
        "transform.z_small_ns": median_of(3, z_over_boxes) / z_calls * 1e9,
        "transform.orbit_small_us": median_of(
            5, lambda: [zorbit.orbit(123789, orbit_small) for _ in range(200)]
        ) / 200 * 1e6,
        "hypothesis.check_all_us": median_of(5, check_all_cells) / len(cells) * 1e6,
        "dynamics.starts_above_box": above,
        "dynamics.attribute_s": attribute_s,
        "dynamics.attribute_ns_per_start": attribute_s / max(above, 1) * 1e9,
        "dynamics.verdict_s": verdict_s,
        "dynamics.failing_cells": failing,
    }


def box_probes(box: BoxCensus) -> dict[str, float]:
    cells = box.ops

    def bounds() -> None:
        for params in cells:
            zorbit.absorbing_bound(params)

    resolve_s = sum(timed(zorbit.cycle_census, params)[0] for params in cells)
    largest = max(zorbit.absorbing_bound(params) for params in cells)
    return {
        "dynamics.absorbing_bound_us": median_of(5, bounds) / len(cells) * 1e6,
        "dynamics.box_nodes": box.work,
        "dynamics.box_resolve_s": resolve_s,
        "dynamics.box_ns_per_node": resolve_s / box.work * 1e9,
        # _FunctionalGraph keeps two array("l") tables of B + 1 slots.
        "dynamics.box_bytes_computed": array("l").itemsize * 2 * (largest + 1),
    }


def sweep_probes(sweep: SweepCli) -> dict[str, float]:
    jobs1_s, rows = timed(zorbit.sweep, sweep.k_range, sweep.p_range, sweep.n_max, jobs=1)
    jobs2_s = timed(zorbit.sweep, sweep.k_range, sweep.p_range, sweep.n_max, jobs=2)[0]
    parts_s = 0.0
    for row in rows:
        params = Params(row.k, row.p)
        parts_s += timed(zorbit.check_all, params)[0]
        parts_s += timed(zorbit.cycle_census, params, sweep.n_max)[0]
    startup = [sys.executable, "-m", "zorbit", "check", "--k", "137", "--p", "11"]
    startup_s = median_of(
        5, lambda: subprocess.run(startup, env=zorbit_env(), capture_output=True, check=True)
    )
    metrics = {
        "dynamics.sweep_jobs1_s": jobs1_s,
        "dynamics.transient_s": jobs1_s - parts_s,
        "dynamics.sweep_speedup_jobs2": jobs1_s / jobs2_s,
        "cli.startup_s": startup_s,
    }
    metrics.update(render_probes(sweep, rows))
    return metrics


def render_probes(sweep: SweepCli, rows) -> dict[str, float]:
    """``cli.main`` per format, with ``sweep`` replaced by a replay of ``rows``."""
    metrics: dict[str, float] = {}
    original = zorbit.cli.sweep
    zorbit.cli.sweep = lambda *args, **kwargs: rows
    try:
        for fmt in ("json", "csv", "text"):
            argv = sweep.argv(jobs=2, out=None, fmt=fmt)
            samples = []
            for _ in range(5):
                with contextlib.redirect_stdout(io.StringIO()) as captured:
                    elapsed, _ = timed(zorbit.cli.main, argv)
                samples.append(elapsed)
            metrics[f"cli.render_{fmt}_s"] = statistics.median(samples)
            if fmt == "json":
                metrics["cli.output_bytes"] = len(captured.getvalue().encode())
    finally:
        zorbit.cli.sweep = original
    return metrics


def measure(seed: int, small: bool) -> dict[str, float]:
    """Every probe metric, on the inputs each workload draws from ``seed``."""
    metrics: dict[str, float] = {}
    metrics.update(huge_probes(HugeOrbit(seed, small)))
    metrics.update(grid_probes(GridVerify(seed, small)))
    metrics.update(box_probes(BoxCensus(seed, small)))
    metrics.update(sweep_probes(SweepCli(seed, small)))
    return metrics
