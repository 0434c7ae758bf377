"""Self-test of the benchmark at small sizes.

    python3 bench/selftest.py        (from the repository root, about a minute)

Runs every workload through ``run.py --small`` and checks that each prints
every metric with its unit, that nothing fails at this commit, that another
seed draws other inputs but yields the same metric names, that the traced
run reports every per-layer metric, that ``BENCHMARK.json`` matches
``metrics.py``, and that the benchmark refuses to run without the library.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import WORKLOADS  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, "bench/run.py", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def run_small(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    """The result object and the input digest of one small run."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    done = bench(*args, "--small")
    if done.returncode != 0:
        raise AssertionError(f"{workload} exited {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    digest = re.search(r"inputs=(\w+)", lines[0]).group(1)
    return json.loads(lines[-1]), digest


class SelfTest(unittest.TestCase):
    def check_result(self, result: dict, specs: dict) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)  # failed_frac == 0 at this commit
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(specs))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], specs[name][0], name)
            self.assertTrue(math.isfinite(metric["value"]), name)

    def test_end_to_end_metrics_and_seeds(self) -> None:
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, digest_1 = run_small(workload, 1, 0)
                second, digest_2 = run_small(workload, 2, 0)
                self.check_result(first, END_TO_END)
                self.check_result(second, END_TO_END)
                self.assertNotEqual(digest_1, digest_2, "another seed must draw other inputs")
                for name, metric in first["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_per_layer_metrics(self) -> None:
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = run_small(workload, 1, 1)
                self.check_result(result, PER_LAYER)

    def test_benchmark_json_matches_tables(self) -> None:
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(doc["command"], ["python3", "bench/run.py"])
        self.assertEqual(doc["paths"], ["bench"])
        self.assertEqual([w["name"] for w in doc["workloads"]], list(WORKLOADS))
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]},
            END_TO_END,
        )
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}, PER_LAYER
        )

    def test_refuses_to_run_without_the_library(self) -> None:
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=ROOT / ".bench_out"))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            done = bench("--workload", "grid-verify", "--seed", "1", "--seconds", "1", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
