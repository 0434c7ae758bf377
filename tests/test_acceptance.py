"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
verdict lines of passing criteria as they happen).

Criterion 4 states the strongest collapse claim exactly: every parameter
cell in the screened grid must have {1, 2} as its only positive cycle.
That claim is genuinely false: a minority of screened cells host extra
fixed points (the single-digit family (q+1)(q+2) = q*p + 1, i.e. the
value 6 at p = 5, and two-digit relatives such as 44 at k=23, p=4), so
the criterion fails honestly, with the counterexamples in the report.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

from zorbit.dynamics import (
    absorbing_bound,
    cycle_census,
    max_digit_step,
    verify_lemma2,
    verify_theorem1,
)
from zorbit.hypothesis import check_all
from zorbit.kadic import from_digits, to_digits
from zorbit.transform import Params, orbit, z_transform

from oracles import (
    canonical_cycle,
    cycles_by_independent_orbits,
    lemma2_violations_by_sampling,
    long_add,
    naive_orbit,
)

GRID_N_MAX = 100_000
LEMMA2_SEED = 20260810
LEMMA2_SAMPLES = 1_000
LEMMA2_M_MAX = 6


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="session")
def screened_grid() -> list[Params]:
    """Every (k, p) with 3 <= p <= 13, 2p-1 <= k <= 3p**2 passing all checks."""
    grid = []
    for p in range(3, 14):
        for k in range(2 * p - 1, 3 * p * p + 1):
            params = Params(k, p)
            if check_all(params).satisfied:
                grid.append(params)
    return grid


def run_cli(*argv: str, env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    merged = os.environ.copy()
    merged.pop("ZORBIT_MAX_STEPS", None)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "zorbit", *argv], capture_output=True, text=True, env=merged
    )


def test_criterion_01_worked_orbit_descent():
    """orbit(123789; k=137, p=11) reaches 1 in exactly 3 steps, then 1<->2."""
    params = Params(137, 11)
    trace = orbit(123789, params)
    ok = (
        trace.values == (123789, 81, 8, 1, 2, 1)
        and trace.values[3] == 1
        and trace.preperiod_length == 3
        and trace.cycle_length == 2
        and set(trace.cycle) == {1, 2}
    )
    orbit(123789, params)  # warm-up before timing
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        orbit(123789, params)
        timings.append(time.perf_counter() - start)
    elapsed = min(timings)
    ok = ok and elapsed < 1e-3
    _verdict(1, ok, f"trace 123789 -> 81 -> 8 -> 1, cycle {{1,2}}, {elapsed * 1e6:.0f} us")
    assert ok


def test_criterion_02_census_and_check_k5_p3():
    """census(5,3) holds {4,6}; (a) passes, (b) fails at q=0; 9827 terminates."""
    start = time.perf_counter()
    params = Params(5, 3)
    census = cycle_census(params)
    report = check_all(params)
    trace = orbit(9_827, params)
    elapsed = time.perf_counter() - start
    cycle_sets = [set(c.values) for c in census.cycles]
    ok = (
        (4, 6) in [c.values for c in census.cycles]
        and report.a_holds
        and not report.b_holds
        and report.b_violations == (0,)
        and set(trace.cycle) in cycle_sets
        and elapsed < 1.0
    )
    _verdict(2, ok, f"{{4,6}} present, b fails at q=0, orbit(9827) -> {set(trace.cycle)}, {elapsed:.3f}s")
    assert ok


def test_criterion_03_census_and_check_k10_p5():
    """census(10,5) has 6 as the only positive fixed point; (c) fails at q=3."""
    start = time.perf_counter()
    params = Params(10, 5)
    census = cycle_census(params)
    report = check_all(params)
    elapsed = time.perf_counter() - start
    positive_fixed = [c.values[0] for c in census.cycles if c.length == 1 and c.values != (0,)]
    ok = (
        positive_fixed == [6]
        and report.c_violations == ((3, "congruence"),)
        and elapsed < 1.0
    )
    _verdict(3, ok, f"positive fixed points {positive_fixed}, c fails at (3, congruence), {elapsed:.3f}s")
    assert ok


def test_criterion_04_single_cycle_claim_across_grid(screened_grid):
    """Every screened cell has {1,2} as its only positive cycle (n_max 1e5).

    This is the strongest claim the parameter screen is supposed to
    guarantee, stated exactly.  It is genuinely false: some screened
    cells host extra fixed points, which this test reports verbatim.
    """
    failures = []
    for params in screened_grid:
        report = verify_theorem1(params, GRID_N_MAX)
        if not report.passed:
            extra = [c.values for c in report.census.cycles if set(c.values) not in ({0}, {1, 2})]
            failures.append((params.k, params.p, extra))
    ok = not failures
    sample = ", ".join(f"k={k} p={p} extra={extra}" for k, p, extra in failures[:4])
    _verdict(
        4,
        ok,
        f"{len(screened_grid) - len(failures)}/{len(screened_grid)} screened cells verified"
        + ("" if ok else f"; counterexamples: {sample} …"),
    )
    assert ok, (
        f"{len(failures)} of {len(screened_grid)} screened cells host cycles besides "
        f"{{1,2}} (all extra cycles are fixed points): {failures}"
    )


def test_criterion_05_digit_shrink_property_across_grid(screened_grid):
    """The exact Lemma 2 certificate passes on every screened cell, and
    1,000 seeded m-digit samples per m in [3,6] plus both extremal digit
    patterns satisfy z(n) < k**(m-1) there."""
    violations = 0
    checked = 0
    uncertified = []
    for params in screened_grid:
        count, found = lemma2_violations_by_sampling(
            params.k, params.p, LEMMA2_M_MAX, LEMMA2_SAMPLES, LEMMA2_SEED
        )
        violations += len(found)
        checked += count
        if not verify_lemma2(params).passed:
            uncertified.append((params.k, params.p))
    ok = violations == 0 and not uncertified
    _verdict(
        5,
        ok,
        f"{checked} sampled values across {len(screened_grid)} cells, {violations} violations; "
        f"{len(uncertified)} cells without the exact certificate",
    )
    assert ok, uncertified


def test_criterion_06_universal_two_cycle_random_params():
    """z(1) = 2 and z(2) = 1 for 500 random valid parameter pairs."""
    rng = random.Random(600_2026)
    ok = True
    for _ in range(500):
        params = Params(rng.randrange(3, 1_000_000), rng.randrange(2, 1_000_000))
        if z_transform(1, params) != 2 or z_transform(2, params) != 1:
            ok = False
            break
    _verdict(6, ok, "z(1)=2 and z(2)=1 on 500 random (k, p)")
    assert ok


def test_criterion_07_oracle_equivalence():
    """orbit() matches a naive seen-set scan on 1,000 starts across 20
    parameter pairs; censuses match independent per-start orbits on 10
    small parameter pairs."""
    rng = random.Random(700_2026)
    pairs = [(rng.randrange(3, 2_000), rng.randrange(2, 200)) for _ in range(20)]
    mismatches = 0
    for index in range(1_000):
        k, p = pairs[index % len(pairs)]
        n = rng.randrange(0, 10**8)
        trace = orbit(n, Params(k, p))
        values, lam, cycle_length = naive_orbit(n, k, p)
        if (trace.preperiod_length, trace.cycle_length) != (lam, cycle_length):
            mismatches += 1
    small = [(5, 3), (10, 5), (137, 11), (3, 2), (7, 3), (9, 4), (27, 3), (12, 5), (48, 7), (9, 5)]
    census_mismatches = 0
    for k, p in small:
        census = cycle_census(Params(k, p))
        assert census.absorbing_bound <= 100_000
        independent = cycles_by_independent_orbits(k, p, census.absorbing_bound)
        if {c.values for c in census.cycles} != independent:
            census_mismatches += 1
    ok = mismatches == 0 and census_mismatches == 0
    _verdict(7, ok, f"1000 orbit comparisons, {len(small)} censuses vs independent orbits")
    assert ok


def test_criterion_08_absorption_certificates_across_grid(screened_grid):
    """Exhaustively z(n) <= B on [0, B]; sampled z(n) < n on (B, B*k]."""
    rng = random.Random(800_2026)
    ok = True
    for params in screened_grid:
        bound = absorbing_bound(params)
        if any(z_transform(n, params) > bound for n in range(bound + 1)):
            ok = False
            break
        for _ in range(10_000):
            n = rng.randrange(bound + 1, bound * params.k + 1)
            if z_transform(n, params) >= n:
                ok = False
                break
        if not ok:
            break
    _verdict(8, ok, f"forward invariance and sampled descent on {len(screened_grid)} cells")
    assert ok


def test_criterion_09_round_trip_and_long_addition():
    """1e5 random (n, k): digit round-trip plus carry-addition equivalence."""
    rng = random.Random(900_2026)
    ok = True
    for _ in range(100_000):
        k = rng.randrange(2, 10**6) if rng.random() < 0.5 else rng.randrange(2, 64)
        n = rng.randrange(0, 10 ** rng.randrange(1, 30))
        if from_digits(to_digits(n, k)) != n:
            ok = False
            break
        b = rng.randrange(0, 10 ** rng.randrange(1, 30))
        summed = long_add(list(to_digits(n, k)), list(to_digits(b, k)), k)
        if from_digits(summed, k) != n + b:
            ok = False
            break
    _verdict(9, ok, "100000 round-trips and digit-wise additions")
    assert ok


def test_criterion_10_cli_contract(tmp_path):
    """Exit codes 0/1/2/3 across the invocation matrix; sweep bytes stable."""
    matrix = [
        (("check", "--k", "137", "--p", "11"), 0),
        (("orbit", "123789", "--k", "137", "--p", "11"), 0),
        (("census", "--k", "10", "--p", "5"), 0),
        (("verify", "--theorem", "1", "--k", "137", "--p", "11", "--n-max", "5000"), 0),
        (("verify", "--theorem", "2", "--k", "10", "--p", "5", "--n-max", "8512"), 0),
        (("check", "--k", "5", "--p", "3"), 1),
        (("orbit", "123789", "--k", "137", "--p", "11", "--max-steps", "2"), 1),
        (("verify", "--theorem", "1", "--k", "9", "--p", "5", "--n-max", "100"), 1),
        (("orbit", "5",), 2),
        (("check", "--k", "2", "--p", "5"), 2),
        (("check", "--k", "10", "--p", "5", "--format", "xml"), 2),
        (("sweep", "--k-range", "nope", "--p-range", "3:3"), 2),
        (("verify", "--theorem", "1", "--k", "5", "--p", "3"), 3),
        (("verify", "--theorem", "2", "--k", "100", "--p", "3"), 3),
    ]
    failures = []
    for argv, expected in matrix:
        result = run_cli(*argv)
        if result.returncode != expected:
            failures.append((argv, expected, result.returncode))
    out_1 = tmp_path / "jobs1.csv"
    out_8 = tmp_path / "jobs8.csv"
    sweep_args = ("sweep", "--k-range", "5:12", "--p-range", "3:5", "--n-max", "10000", "--format", "csv")
    code_1 = run_cli(*sweep_args, "--jobs", "1", "--out", str(out_1)).returncode
    code_8 = run_cli(*sweep_args, "--jobs", "8", "--out", str(out_8)).returncode
    bytes_equal = out_1.read_bytes() == out_8.read_bytes()
    rows = list(csv.DictReader(io.StringIO(out_1.read_text())))
    ok = not failures and bytes_equal and code_1 == code_8 and len(rows) == 24
    _verdict(
        10,
        ok,
        f"{len(matrix)} exit-code cases, sweep bytes identical across jobs: {bytes_equal}",
    )
    assert ok, f"exit-code mismatches: {failures}; bytes equal: {bytes_equal}"
