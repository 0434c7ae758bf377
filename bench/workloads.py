"""The four benchmark workloads: seeded inputs, the timed call, output checks.

Each workload turns a seed into a fixed list of operations (a cell, a
start, or one CLI run) and one *pass* runs every operation once.  The
worker times passes; everything here that is not ``run`` happens outside
the timed section.

Sampling is stratified so that a different seed draws different inputs
of about the same total cost: the wall time of a pass then moves with the
code, not with the luck of the draw.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import zorbit
from zorbit import Params
from oracles import cycles_by_independent_orbits, z_by_digit_sum

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
GOOD_CYCLES = ((0,), (1, 2))


class CheckFailed(Exception):
    """An operation returned an output that disagrees with its check."""


def zorbit_env() -> dict[str, str]:
    """Environment for ``python -m zorbit`` subprocesses run from source."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def screened_grid() -> list[Params]:
    """The criterion-4 grid: 3 <= p <= 13, 2p-1 <= k <= 3p**2, (a)-(c) hold."""
    return [
        params
        for p in range(3, 14)
        for k in range(2 * p - 1, 3 * p * p + 1)
        if zorbit.check_all(params := Params(k, p)).satisfied
    ]


def stratified_sample(rng: random.Random, population: list, count: int) -> list:
    """One random member from each of ``count`` equal slices of the population."""
    size = len(population)
    return [
        rng.choice(population[i * size // count : (i + 1) * size // count])
        for i in range(count)
    ]


def check_cycles(census, k: int, p: int) -> None:
    """Basins partition the scanned range; every cycle closes under the oracle z."""
    lo, hi = census.scanned_range
    if lo != 0 or hi < census.absorbing_bound:
        raise CheckFailed(f"scanned range {census.scanned_range} misses the box")
    total = sum(c.basin_size for c in census.cycles)
    if total != hi - lo + 1:
        raise CheckFailed(f"basins cover {total} starts of {hi - lo + 1}")
    for cycle in census.cycles:
        values = cycle.values
        if values[0] != min(values):
            raise CheckFailed(f"cycle {values} is not in canonical rotation")
        for i, v in enumerate(values):
            if z_by_digit_sum(v, k, p) != values[(i + 1) % len(values)]:
                raise CheckFailed(f"cycle {values} is not closed under z")


def check_oracle(census, k: int, p: int) -> None:
    """The census finds exactly the cycles of independent per-start orbits."""
    found = {c.values for c in census.cycles}
    expected = cycles_by_independent_orbits(k, p, census.absorbing_bound)
    if found != expected:
        raise CheckFailed(f"census {sorted(found)} != oracle {sorted(expected)}")


class Workload:
    """Seeded inputs for one workload; subclasses fill in the hooks."""

    name = ""
    work_unit = ""  # what ``work`` counts, for the report
    # Whether operation times are normalised by the calibration kernel (see
    # calibrate.py).  That pays for interpreter-bound operations; it only
    # adds noise to C big-integer loops, whose time the host barely moves.
    calibrated = True
    # Whether one operation keeps every CPU busy; if not, the worker stays
    # on one CPU and calibrates on that CPU alone.
    all_cpus = False

    def __init__(self, seed: int, small: bool):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops: list = []
        self.work = 0  # units of work in one pass
        self.oracle_ops: list = []  # extra checks against the test oracles

    def run(self, op, spans_file: Path | None = None):
        """The timed call for one operation."""
        raise NotImplementedError

    def check(self, op, result) -> None:
        """Raise CheckFailed if ``result`` is wrong; runs outside the timer."""
        raise NotImplementedError

    def check_oracle(self, op) -> None:
        """One comparison against an independent oracle (outside the timer)."""
        raise NotImplementedError

    def cleanup(self) -> None:
        """Remove files the operations left behind."""

    def fingerprint(self) -> str:
        """Short digest of the generated inputs."""
        text = repr([self.describe(op) for op in self.ops + self.oracle_ops])
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def describe(self, op) -> str:
        return repr(op)


class GridVerify(Workload):
    """``verify_theorem1(params, 100_000)`` on a sample of the screened grid."""

    name = "grid-verify"
    work_unit = "starts"

    def __init__(self, seed: int, small: bool):
        super().__init__(seed, small)
        self.n_max = 5_000 if small else 100_000
        grid = screened_grid()
        self.ops = stratified_sample(self.rng, grid, 6 if small else 40)
        self.bounds = {params: zorbit.absorbing_bound(params) for params in self.ops}
        self.work = sum(max(b, self.n_max) + 1 for b in self.bounds.values())
        self.oracle_ops = self.rng.sample(self.ops, 2 if small else 3)

    def run(self, op, spans_file=None):
        return zorbit.verify_theorem1(op, self.n_max)

    def check(self, op, report) -> None:
        census = report.census
        if census.scanned_range != (0, max(census.absorbing_bound, self.n_max)):
            raise CheckFailed(f"scanned range {census.scanned_range}")
        check_cycles(census, op.k, op.p)
        bad = {c.values for c in census.cycles} - set(GOOD_CYCLES)
        if report.passed != (not bad):
            raise CheckFailed(f"passed={report.passed} with extra cycles {sorted(bad)}")
        if bad and report.counterexample.cycle not in bad:
            raise CheckFailed(f"counterexample ends in {report.counterexample.cycle}")

    def check_oracle(self, op) -> None:
        check_oracle(zorbit.cycle_census(op), op.k, op.p)


class BoxCensus(Workload):
    """``cycle_census(params)`` on cells whose box [0, B] is 1.5e5 to 4e5 wide."""

    name = "box-census"
    work_unit = "box_nodes"
    # One cell per band, each with absorbing bound in [band, band * 1.05).
    BANDS = (150_000, 200_000, 250_000, 300_000, 350_000, 400_000)
    SMALL_BANDS = (20_000, 40_000)

    def __init__(self, seed: int, small: bool):
        super().__init__(seed, small)
        bands = self.SMALL_BANDS if small else self.BANDS
        k_range = range(300, 1001) if small else range(1000, 6001)
        candidates = [[] for _ in bands]
        for p in range(3, 9):
            for k in k_range:
                bound = zorbit.absorbing_bound(params := Params(k, p))
                for i, band in enumerate(bands):
                    if band <= bound < band * 1.05:
                        candidates[i].append((params, bound))
        picked = [self.rng.choice(c) for c in candidates]
        self.ops = [params for params, _ in picked]
        self.work = sum(bound + 1 for _, bound in picked)
        self.oracle_ops = [
            Params(self.rng.randrange(40, 151), self.rng.randrange(3, 9))
            for _ in range(2 if small else 3)
        ]

    def run(self, op, spans_file=None):
        return zorbit.cycle_census(op)

    def check(self, op, census) -> None:
        if census.scanned_range != (0, census.absorbing_bound):
            raise CheckFailed(f"scanned range {census.scanned_range}")
        check_cycles(census, op.k, op.p)

    def check_oracle(self, op) -> None:
        census = zorbit.cycle_census(op)
        check_cycles(census, op.k, op.p)
        check_oracle(census, op.k, op.p)


class SweepCli(Workload):
    """``python -m zorbit sweep ... --jobs 2 --format json`` as a subprocess."""

    name = "sweep-cli"
    work_unit = "starts"
    all_cpus = True
    EXPECTED_EXIT = 1  # the range always holds p = 5 cells, which fail

    def __init__(self, seed: int, small: bool):
        super().__init__(seed, small)
        # The seed moves only n_max, by under 2%, so the cost stays put.
        k_hi, p_hi, n_max = (15, 5, 1_000) if small else (40, 8, 10_000)
        self.k_range, self.p_range = (5, k_hi), (3, p_hi)
        self.n_max = n_max + self.rng.randrange(n_max // 50)
        self.out = OUT_DIR / f"sweep-{os.getpid()}.json"
        self.ops = [self.argv(jobs=2, out=self.out)]
        cells = [
            Params(k, p)
            for k in range(self.k_range[0], self.k_range[1] + 1)
            for p in range(self.p_range[0], self.p_range[1] + 1)
        ]
        self.work = sum(max(zorbit.absorbing_bound(c), self.n_max) + 1 for c in cells)
        self._reference: bytes | None = None

    def argv(self, jobs: int, out: Path | None, fmt: str = "json") -> list[str]:
        argv = [
            "sweep",
            "--k-range", "{}:{}".format(*self.k_range),
            "--p-range", "{}:{}".format(*self.p_range),
            "--n-max", str(self.n_max),
            "--jobs", str(jobs),
            "--format", fmt,
        ]
        return argv + ["--out", str(out)] if out else argv

    def describe(self, op) -> str:
        return repr(op[:-2])  # the output path holds the process id

    def run(self, op, spans_file=None):
        self.out.unlink(missing_ok=True)
        if spans_file is None:
            command = [sys.executable, "-m", "zorbit", *op]
        else:
            shim = Path(__file__).with_name("tracing.py")
            command = [sys.executable, str(shim), str(spans_file), *op]
        done = subprocess.run(command, env=zorbit_env(), capture_output=True, timeout=170)
        return done.returncode, self.out.read_bytes(), done.stderr

    def reference(self) -> bytes:
        """Bytes of the same sweep at ``--jobs 1``, echoing ``jobs`` as 2.

        The JSON envelope echoes ``--jobs`` in ``params``; everything else,
        the payload included, must match the sequential run byte for byte.
        """
        if self._reference is None:
            out = OUT_DIR / f"sweep-ref-{os.getpid()}.json"
            command = [sys.executable, "-m", "zorbit", *self.argv(jobs=1, out=out)]
            done = subprocess.run(command, env=zorbit_env(), capture_output=True, timeout=170)
            raw = out.read_bytes()
            out.unlink()
            if done.returncode != self.EXPECTED_EXIT:
                raise CheckFailed(f"--jobs 1 reference exited {done.returncode}")
            doc = json.loads(raw)
            if (json.dumps(doc, indent=2) + "\n").encode() != raw:
                raise CheckFailed("reference JSON does not round-trip byte for byte")
            doc["params"]["jobs"] = 2
            self._reference = (json.dumps(doc, indent=2) + "\n").encode()
        return self._reference

    def check(self, op, result) -> None:
        code, raw, stderr = result
        if code != self.EXPECTED_EXIT:
            raise CheckFailed(f"exit code {code}: {stderr.decode(errors='replace')[-300:]}")
        json.loads(raw)
        if raw != self.reference():
            raise CheckFailed("output bytes differ from the --jobs 1 reference")

    def cleanup(self) -> None:
        self.out.unlink(missing_ok=True)


class HugeOrbit(Workload):
    """``orbit(n, params)`` on starts of about 1e3 to 3e4 base-k digits."""

    name = "huge-orbit"
    work_unit = "digits"
    calibrated = False
    PAIRS = ((137, 11), (10, 5), (4800, 40))
    RUNGS = (1_000, 3_000, 10_000, 30_000)
    SMALL_RUNGS = (100, 300)

    def __init__(self, seed: int, small: bool):
        super().__init__(seed, small)
        rungs = self.SMALL_RUNGS if small else self.RUNGS
        for k, p in self.PAIRS:
            for rung in rungs:
                d = round(rung * self.rng.uniform(0.99, 1.01))
                top = k ** (d - 1)  # built arithmetically: str -> int caps at 4300 digits
                self.ops.append((top + self.rng.randrange((k - 1) * top), Params(k, p)))
                self.work += d
        self._first_steps: dict[int, int] = {}

    def describe(self, op) -> str:
        n, params = op
        return f"{params.k},{params.p},{n.bit_length()},{n % (1 << 64)}"

    def run(self, op, spans_file=None):
        n, params = op
        return zorbit.orbit(n, params)

    def check(self, op, trace) -> None:
        n, params = op
        if trace.values[0] != n or trace.values[1] != self.first_step(op):
            raise CheckFailed(f"step 1 disagrees with the oracle for k={params.k}")
        if trace.values[-1] not in trace.values[:-1]:
            raise CheckFailed("orbit ends without a repeated value")

    def first_step(self, op) -> int:
        """The oracle's z of the start, computed once per start."""
        if id(op) not in self._first_steps:
            n, params = op
            self._first_steps[id(op)] = z_by_digit_sum(n, params.k, params.p)
        return self._first_steps[id(op)]


WORKLOADS = {cls.name: cls for cls in (GridVerify, BoxCensus, SweepCli, HugeOrbit)}
