"""Names, units and directions of every metric the benchmark reports.

``END_TO_END`` metrics come from runs with tracing off (``--trace 0``)
and apply to every workload; ``PER_LAYER`` metrics come from traced runs
(``--trace 1``).  A bound is the share of the parent's median by which a
metric may get worse before a change counts as a regression.
``BENCHMARK.json`` at the repository root repeats these tables, and the
self-test keeps the two in step.
"""

from __future__ import annotations

# name: (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "work_per_s": ("1/s", "higher", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    "op_p90_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

LAYER_SELF = ("bench", "kadic", "transform", "hypothesis", "dynamics", "cli")

# name: (unit, better)
PER_LAYER = {
    "kadic.to_digits_ms": ("ms", "lower"),
    "transform.z_huge_ms": ("ms", "lower"),
    "transform.z_evals": ("count", "lower"),
    "transform.z_small_ns": ("ns", "lower"),
    "transform.orbit_small_us": ("us", "lower"),
    "hypothesis.check_all_us": ("us", "lower"),
    "dynamics.absorbing_bound_us": ("us", "lower"),
    "dynamics.box_nodes": ("count", "lower"),
    "dynamics.box_resolve_s": ("s", "lower"),
    "dynamics.box_ns_per_node": ("ns", "lower"),
    "dynamics.box_bytes_computed": ("B", "lower"),
    "dynamics.starts_above_box": ("count", "lower"),
    "dynamics.attribute_s": ("s", "lower"),
    "dynamics.attribute_ns_per_start": ("ns", "lower"),
    "dynamics.verdict_s": ("s", "lower"),
    "dynamics.failing_cells": ("count", "lower"),
    "dynamics.sweep_jobs1_s": ("s", "lower"),
    "dynamics.transient_s": ("s", "lower"),
    "dynamics.sweep_speedup_jobs2": ("x", "higher"),
    "cli.startup_s": ("s", "lower"),
    "cli.render_json_s": ("s", "lower"),
    "cli.render_csv_s": ("s", "lower"),
    "cli.render_text_s": ("s", "lower"),
    "cli.output_bytes": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.spans_per_pass": ("count", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYER_SELF},
}
