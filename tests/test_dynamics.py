"""Bounds, censuses, verifiers, and sweeps against brute-force oracles."""

from __future__ import annotations

import random
import re
from collections import Counter
from itertools import count

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zorbit.dynamics import (
    LABEL_FIXED_POINT,
    LABEL_OTHER,
    LABEL_UNIVERSAL,
    LABEL_ZERO,
    THEOREM1_ERROR,
    THEOREM1_NOT_CHECKED,
    THEOREM1_PASS,
    THEOREM1_SKIPPED,
    _census,
    _walk,
    absorbing_bound,
    classify_cycle,
    cycle_census,
    fixed_points,
    max_digit_step,
    sweep,
    verify_lemma2,
    verify_theorem1,
    verify_theorem2,
    z_upper_bound,
)
from zorbit.errors import AbsorptionError, ParameterDomainError, PreconditionError
from zorbit.hypothesis import check_all
from zorbit.kadic import from_digits
from zorbit.transform import Params, digit_step, orbit, z_transform

from oracles import (
    canonical_cycle,
    cycles_by_independent_orbits,
    naive_orbit,
    orbit_by_table,
    z_by_digit_sum,
)

SMALL_PARAMS = [(5, 3), (10, 5), (137, 11), (3, 2), (7, 3), (9, 4), (27, 3), (12, 5), (48, 7), (3, 29)]


# -- bounds ------------------------------------------------------------------


def test_max_digit_step_examples():
    assert max_digit_step(Params(10, 5)) == 6
    assert max_digit_step(Params(5, 3)) == 6
    assert max_digit_step(Params(137, 11)) == 182


@pytest.mark.parametrize("k,p", SMALL_PARAMS)
def test_max_digit_step_matches_exhaustive_scan(k, p):
    params = Params(k, p)
    peak = max(digit_step(a, p) for a in range(k))
    assert max_digit_step(params) == peak
    assert digit_step(params.t * p + 1, p) == peak  # attained at t*p + 1


def test_z_upper_bound_examples():
    assert z_upper_bound(3, Params(137, 11)) == 546
    assert z_upper_bound(1, Params(10, 5)) == max_digit_step(Params(10, 5))
    assert z_upper_bound(3, Params(5, 3)) == 18
    assert 18 < 5**2  # three-digit values already shrink at k=5, p=3


def test_z_upper_bound_rejects_zero_digits():
    with pytest.raises(ParameterDomainError):
        z_upper_bound(0, Params(5, 3))


def test_absorbing_bound_frozen_values():
    assert absorbing_bound(Params(10, 5)) == 12
    assert absorbing_bound(Params(5, 3)) == 12
    assert absorbing_bound(Params(137, 11)) == 364
    # no m >= 2 has k**(m-1) <= m*S, so B = k - 1
    assert absorbing_bound(Params(5, 4)) == 4
    assert absorbing_bound(Params(2**32, 2**31)) == 2**32 - 1
    # M = 2 at the largest base, M = 3 at the only cells found with it
    assert absorbing_bound(Params(2**32, 3)) == 4099276461778781980
    assert absorbing_bound(Params(4, 2)) == 18
    assert absorbing_bound(Params(6, 2)) == 36


@pytest.mark.parametrize("k,p", SMALL_PARAMS)
def test_absorbing_bound_certificate_brute_force(k, p):
    params = Params(k, p)
    bound = absorbing_bound(params)
    assert bound >= max_digit_step(params)
    # clause (i): the box is forward-invariant, exhaustively
    assert all(z_transform(n, params) <= bound for n in range(bound + 1))
    # clause (ii): strict descent above, exhaustively up to k * max step,
    # then sampled beyond
    for n in range(bound + 1, k * max_digit_step(params) + 1):
        assert z_transform(n, params) < n
    rng = random.Random(k * 1_000 + p)
    for _ in range(2_000):
        n = rng.randrange(bound + 1, bound * k + 2)
        assert z_transform(n, params) < n


# -- census ------------------------------------------------------------------


def test_census_k5_p3():
    census = cycle_census(Params(5, 3))
    assert census.absorbing_bound == 12
    assert census.scanned_range == (0, 12)
    assert [c.values for c in census.cycles] == [(0,), (1, 2), (4, 6)]
    assert [c.basin_size for c in census.cycles] == [1, 10, 2]


def test_census_k10_p5():
    census = cycle_census(Params(10, 5))
    assert [c.values for c in census.cycles] == [(0,), (1, 2), (6,)]
    assert [c.basin_size for c in census.cycles] == [1, 11, 1]


def test_census_k137_p11():
    census = cycle_census(Params(137, 11))
    assert [c.values for c in census.cycles] == [(0,), (1, 2)]


def test_census_extra_range_widens_basins():
    census = cycle_census(Params(5, 3), extra_range=100)
    assert census.scanned_range == (0, 100)
    assert sum(c.basin_size for c in census.cycles) == 101
    # 9827 -> 4 -> {4, 6}; its basin grows accordingly
    big = cycle_census(Params(5, 3), extra_range=9_827)
    pair = next(c for c in big.cycles if c.values == (4, 6))
    assert pair.basin_size > 2


@pytest.mark.parametrize("extra_range", [-1, -2, -100])
def test_census_rejects_negative_extra_range(extra_range):
    with pytest.raises(ParameterDomainError):
        cycle_census(Params(10, 5), extra_range)


def test_census_extra_range_zero_scans_the_box():
    census = cycle_census(Params(10, 5), 0)
    assert census.scanned_range == (0, census.absorbing_bound)
    assert census == cycle_census(Params(10, 5))


def test_census_extra_range_below_bound_is_noop():
    census = cycle_census(Params(137, 11), extra_range=5)
    assert census.scanned_range == (0, 364)


@pytest.mark.parametrize("k,p", SMALL_PARAMS)
def test_census_invariants(k, p):
    params = Params(k, p)
    census = cycle_census(params)
    lo, hi = census.scanned_range
    assert sum(c.basin_size for c in census.cycles) == hi - lo + 1
    seen: set[int] = set()
    mins = [c.values[0] for c in census.cycles]
    assert mins == sorted(mins)
    for cycle in census.cycles:
        assert cycle.values[0] == min(cycle.values)
        assert len(set(cycle.values)) == cycle.length
        assert not seen.intersection(cycle.values)
        seen.update(cycle.values)
        for value in cycle.values:
            assert value <= census.absorbing_bound
        for a, b in zip(cycle.values, cycle.values[1:] + cycle.values[:1]):
            assert z_transform(a, params) == b


# Boxes of many rows (B = 20 200, k = 300), of a few rows (B = 364, k = 40)
# and of one row cut into two blocks (B = 4 999, k = 5 000); (3, 2) in
# SMALL_PARAMS has a partial last row (B = 4, k = 3).
ROW_PARAMS = [(300, 3), (40, 3), (5000, 200)]


@pytest.mark.parametrize("k,p", SMALL_PARAMS + ROW_PARAMS)
def test_census_matches_independent_orbits(k, p):
    census = cycle_census(Params(k, p))
    expected = cycles_by_independent_orbits(k, p, census.absorbing_bound)
    assert {c.values for c in census.cycles} == expected


def test_box_past_the_address_space_fails_before_the_digit_table(monkeypatch):
    # B = 2*S with S = (t+1)(t+2) ~ 2.06e18: repeating an array past
    # PY_SSIZE_T_MAX raises MemoryError at once, before any of the 2**32
    # digit-table entries is computed
    def never(*_):
        raise AssertionError("digit table built before the box was allocated")

    monkeypatch.setattr("zorbit.dynamics.digit_step", never)
    with pytest.raises(MemoryError):
        cycle_census(Params(2**32, 3))


@st.composite
def small_cell_and_range(draw) -> tuple[int, int, int]:
    """A cell with box B <= 5 000 and a range end N below or above B."""
    k = draw(st.integers(min_value=3, max_value=300))
    p = draw(st.integers(min_value=2, max_value=40))
    bound = absorbing_bound(Params(k, p))
    assume(bound <= 5_000)
    n_max = draw(st.one_of(st.integers(1, bound), st.integers(bound + 1, 30_000)))
    return k, p, n_max


@given(small_cell_and_range())
@example((23, 4, 100))  # (a)-(c) hold, yet 44 is a fixed point: theorem1_status fails
@example((9, 5, 10))  # the same with the fixed point 6 and n_max below B = 12
@settings(max_examples=25, deadline=None)
def test_census_and_sweep_match_naive_orbits(case):
    # basins and the longest transient against per-start naive orbits
    k, p, n_max = case
    params = Params(k, p)
    census = cycle_census(params, n_max)
    hi = max(census.absorbing_bound, n_max)
    assert census.scanned_range == (0, hi)
    tally: Counter = Counter()
    longest = 0
    witness = None  # smallest n >= 1 whose cycle is neither {0} nor {1, 2}
    for n in range(hi + 1):
        values, lam, cycle_length = naive_orbit(n, k, p)
        cycle = canonical_cycle(values, lam, cycle_length)
        tally[cycle] += 1
        if 1 <= n <= n_max:
            longest = max(longest, lam)
        if witness is None and set(cycle) not in ({0}, {1, 2}):
            witness = n
    assert {c.values: c.basin_size for c in census.cycles} == dict(tally)
    assert _census(params, n_max)[2] == witness
    row = sweep((k, k), (p, p), n_max)[0]
    assert row.max_transient == longest
    if check_all(params).satisfied:
        assert (row.theorem1_status == THEOREM1_PASS) == (witness is None)


# Base 10 with the digit map a -> a**e, so S = 9**e.  The proof of B = M*S
# takes the largest M >= 2 with 10**(M-1) <= M*S:
#   e = 2: S = 81:   10**2 <= 3*81 = 243,     10**3 > 4*81 = 324     -> B = 243
#   e = 3: S = 729:  10**3 <= 4*729 = 2916,   10**4 > 5*729 = 3645   -> B = 2916
#   e = 4: S = 6561: 10**4 <= 5*6561 = 32805, 10**5 > 6*6561 = 39366 -> B = 32805
DIGIT_POWER_CYCLES = {
    # A. Porges, "A set of eight numbers", Amer. Math. Monthly 52 (1945)
    2: (243, [(0,), (1,), (4, 16, 37, 58, 89, 145, 42, 20)]),
    # fixed points: the narcissistic numbers of OEIS A005188
    3: (
        2_916,
        [(0,), (1,), (55, 250, 133), (136, 244), (153,), (160, 217, 352)]
        + [(370,), (371,), (407,), (919, 1459)],
    ),
    4: (
        32_805,
        [(0,), (1,), (1138, 4179, 9219, 13139, 6725, 4338, 4514), (1634,), (2178, 6514)]
        + [(8208,), (9474,)],
    ),
}


@pytest.mark.parametrize("exponent", sorted(DIGIT_POWER_CYCLES))
def test_walk_finds_published_digit_power_cycles(exponent):
    bound, expected = DIGIT_POWER_CYCLES[exponent]
    cycles, _, _ = _walk(10, lambda a: a**exponent, bound, None)
    assert [c.values for c in cycles] == expected
    assert sum(c.basin_size for c in cycles) == bound + 1
    if exponent == 2:
        # the happy numbers <= 243 (OEIS A007770)
        assert cycles[1].basin_size == 39


@pytest.mark.parametrize(
    "k,digit,bound,message",
    [
        # the block check: z(9) = 81 lies outside [0, 50]
        (10, lambda a: a * a, 50, "step left the certified box [0, 50] from 9"),
        # the walk's check: 1 -> 55 passes, but z(55) = 60 lies outside [0, 59]
        (10, lambda a: {1: 55, 5: 30}.get(a, 0), 59, "step left the certified box [0, 59] from 55"),
        # the descent check: [0, 9] maps into itself, but z(11) = 18 > 11
        (10, lambda a: 9 if a else 0, 9, "descent violated above certified bound 9"),
    ],
)
def test_walk_raises_on_a_broken_certificate(k, digit, bound, message):
    with pytest.raises(AbsorptionError, match=re.escape(message)):
        _walk(k, digit, bound, 20)


@pytest.mark.parametrize("block", [1, 2, 7])
def test_walk_does_not_depend_on_the_block_size(monkeypatch, block):
    # blocks that cut every row, on boxes of many rows
    rng = random.Random(block)
    cases = []
    for _ in range(20):
        k = rng.randrange(3, 9)
        table = tuple(rng.randrange(k * k + 1) for _ in range(k))
        cases.append((k, table.__getitem__, k**4, rng.choice([None, k**4 + 500])))
    expected = [_walk(*case) for case in cases]
    monkeypatch.setattr("zorbit.dynamics._BLOCK", block)
    assert [_walk(*case) for case in cases] == expected


@st.composite
def digit_map_and_range(draw) -> tuple[int, tuple[int, ...], int, int | None]:
    """A base k, a digit table with entries <= k*k, the box k**4 and a range end.

    An m-digit value maps to at most m*k*k, which is <= k**4 for m <= 5 and
    below k**(m-1) for m >= 5, so [0, k**4] is absorbing for every such table.
    """
    k = draw(st.integers(min_value=3, max_value=12))
    table = tuple(draw(st.lists(st.integers(0, k * k), min_size=k, max_size=k)))
    bound = k**4
    n_max = draw(st.one_of(st.none(), st.integers(1, bound), st.integers(bound + 1, bound + 2_000)))
    return k, table, bound, n_max


@given(digit_map_and_range())
@settings(max_examples=30, deadline=None)
def test_walk_matches_per_start_orbits_for_random_digit_maps(case):
    # basins, each cycle's smallest start and the longest transient
    k, table, bound, n_max = case
    cycles, firsts, longest = _walk(k, table.__getitem__, bound, n_max)
    top = bound if n_max is None else n_max
    basins: Counter = Counter()
    first: dict[tuple[int, ...], int] = {}
    deepest = 0
    for n in range(max(bound, top) + 1):
        values, lam, cycle_length = orbit_by_table(n, k, table)
        cycle = canonical_cycle(values, lam, cycle_length)
        basins[cycle] += 1
        first.setdefault(cycle, n)
        if 1 <= n <= top:
            deepest = max(deepest, lam)
    assert {c.values: c.basin_size for c in cycles} == dict(basins)
    assert dict(zip((c.values for c in cycles), firsts)) == first
    assert longest == deepest


# -- fixed points ------------------------------------------------------------


def test_fixed_points_examples():
    assert fixed_points(Params(10, 5)) == [0, 6]
    assert fixed_points(Params(137, 11)) == [0]
    assert fixed_points(Params(5, 3)) == [0]
    assert fixed_points(Params(3, 2)) == [0, 4]  # 4 = [1, 1] in base 3 maps to 2 + 2


@pytest.mark.parametrize("k,p", SMALL_PARAMS)
def test_fixed_points_are_length_one_census_cycles(k, p):
    params = Params(k, p)
    census = cycle_census(params)
    singles = sorted(c.values[0] for c in census.cycles if c.length == 1)
    assert fixed_points(params) == singles


# -- shrink verifier ---------------------------------------------------------


def test_verify_lemma2_clean_run():
    report = verify_lemma2(Params(137, 11))
    assert report.passed
    assert report.peak == 546


def test_verify_lemma2_worst_cases_directly():
    params = Params(137, 11)
    heaviest = params.t * params.p + 1
    n = from_digits([heaviest] * 3, 137)
    assert z_transform(n, params) == 546
    assert 546 < 137**2
    params = Params(5, 3)
    assert z_transform(124, params) == 18  # 124 = [4, 4, 4] in base 5
    assert 18 < 5**2


def test_z_upper_bound_is_the_exact_peak_on_small_cells():
    # exhaustive over every m-digit value; the cap reaches k**2 at m = 3
    # only on cells outside condition (a)
    reach_k_squared = []
    for k in range(3, 31):
        for p in range(2, 36):
            params = Params(k, p)
            for m in (1, 2, 3):
                peak = max(z_by_digit_sum(n, k, p) for n in range(k ** (m - 1), k**m))
                assert z_upper_bound(m, params) == peak, (k, p, m)
            if z_upper_bound(3, params) >= k * k:
                reach_k_squared.append((k, p))
    assert reach_k_squared == [(4, 2), (6, 2)]


def test_verify_lemma2_preconditions():
    with pytest.raises(PreconditionError) as info:
        verify_lemma2(Params(5, 2))
    assert info.value.failed == ("a",)
    with pytest.raises(PreconditionError):
        verify_lemma2(Params(100, 3))  # k > 3p**2


# -- collapse verifiers ------------------------------------------------------


def test_verify_theorem1_passes_on_worked_example():
    report = verify_theorem1(Params(137, 11), n_max=200_000)
    assert report.passed
    assert report.counterexample is None
    assert [c.values for c in report.census.cycles] == [(0,), (1, 2)]
    assert report.census.scanned_range == (0, 200_000)


def test_verify_theorem1_precondition_names_conditions():
    with pytest.raises(PreconditionError) as info:
        verify_theorem1(Params(5, 3), n_max=100)
    assert "b" in info.value.failed
    with pytest.raises(PreconditionError) as info:
        verify_theorem1(Params(10, 5), n_max=100)
    assert info.value.failed == ("c",)


def smallest_offending_start(k: int, p: int) -> int:
    """The least n >= 1 whose naive orbit ends outside {0} and {1, 2}."""
    for n in count(1):
        values, lam, cycle_length = naive_orbit(n, k, p)
        if set(values[lam : lam + cycle_length]) not in ({0}, {1, 2}):
            return n


def test_verify_theorem1_reports_genuine_fixed_point_failure():
    # (9, 5) satisfies all three conditions, yet 6 = 1*5 + 1 is a single
    # digit mapping to 2*3 = 6: a fixed point the verifier must surface
    params = Params(9, 5)
    from zorbit.hypothesis import check_all as _check_all

    assert _check_all(params).satisfied
    report = verify_theorem1(params, n_max=1_000)
    assert not report.passed
    assert report.counterexample is not None
    assert report.counterexample.values == (6, 6)
    assert (6,) in [c.values for c in report.census.cycles]


@pytest.mark.parametrize("k,p", [(9, 5), (23, 4), (295, 10)])
def test_counterexample_starts_at_smallest_offending_start(k, p):
    # one-digit (6 at k=9) and two-digit (44 at k=23, 871 at k=295) fixed points
    report = verify_theorem1(Params(k, p), n_max=10_000)
    assert not report.passed
    assert report.counterexample.values[0] == smallest_offending_start(k, p)


def test_positive_cycle_verdict_failure_branch():
    # bypass the precondition to exercise the counterexample machinery on
    # parameters that genuinely host an extra cycle
    witness = _census(Params(5, 3), None)[2]
    assert witness == smallest_offending_start(5, 3) == 4
    assert orbit(witness, Params(5, 3)).values == (4, 6, 4)


def test_verify_theorem2_k5_p3():
    report = verify_theorem2(Params(5, 3), n_max=9_827)
    assert report.passed and report.all_orbits_terminated
    labels = {entry.cycle.values: entry.label for entry in report.classification}
    assert labels[(0,)] == LABEL_ZERO
    assert labels[(1, 2)] == LABEL_UNIVERSAL
    assert labels[(4, 6)] == LABEL_OTHER  # a genuine 2-cycle, not a fixed point
    # the worked start lands in a census cycle
    cycle_sets = [set(c.values) for c in report.census.cycles]
    trace = orbit(9_827, Params(5, 3))
    assert set(trace.cycle) in cycle_sets


def test_verify_theorem2_k10_p5():
    report = verify_theorem2(Params(10, 5), n_max=8_512)
    labels = {entry.cycle.values: entry.label for entry in report.classification}
    assert labels[(6,)] == LABEL_FIXED_POINT
    assert labels[(1, 2)] == LABEL_UNIVERSAL
    trace = orbit(8_512, Params(10, 5))
    assert set(trace.cycle) == {6}


def test_verify_theorem2_full_conditions_consistent_with_theorem1():
    report = verify_theorem2(Params(137, 11), n_max=1_000)
    positive_labels = [e.label for e in report.classification if not e.cycle.degenerate]
    assert positive_labels == [LABEL_UNIVERSAL]


def test_verify_theorem2_precondition():
    with pytest.raises(PreconditionError) as info:
        verify_theorem2(Params(5, 2), n_max=100)
    assert info.value.failed == ("a",)


def test_classify_cycle_labels():
    from zorbit.dynamics import Cycle

    assert classify_cycle(Cycle((0,), 1)) == LABEL_ZERO
    assert classify_cycle(Cycle((1, 2), 5)) == LABEL_UNIVERSAL
    assert classify_cycle(Cycle((6,), 1)) == LABEL_FIXED_POINT
    assert classify_cycle(Cycle((4, 6), 2)) == LABEL_OTHER


# -- census-orbit agreement on random starts ---------------------------------


def test_census_and_orbit_agree_on_random_starts():
    rng = random.Random(2468)
    for k, p in [(5, 3), (10, 5), (137, 11), (48, 7)]:
        params = Params(k, p)
        census = cycle_census(params)
        cycle_sets = [set(c.values) for c in census.cycles]
        for _ in range(250):
            n = rng.randrange(0, 10**7)
            trace = orbit(n, params)
            assert set(trace.cycle) in cycle_sets


# -- sweep -------------------------------------------------------------------


def test_sweep_single_cell_matches_direct_calls():
    rows = sweep((137, 137), (11, 11), n_max=10_000)
    assert len(rows) == 1
    row = rows[0]
    assert (row.k, row.p) == (137, 11)
    assert row.hypothesis.satisfied
    assert row.theorem1_status == THEOREM1_PASS
    census = cycle_census(Params(137, 11), extra_range=10_000)
    assert row.absorbing_bound == census.absorbing_bound
    assert tuple(c.values for c in row.cycles) == tuple(c.values for c in census.cycles)
    assert tuple(c.basin_size for c in row.cycles) == tuple(c.basin_size for c in census.cycles)


def test_sweep_example_cells():
    rows = sweep((5, 5), (3, 3), n_max=10_000)
    row = rows[0]
    assert not row.hypothesis.satisfied
    assert row.theorem1_status == THEOREM1_NOT_CHECKED
    assert (4, 6) in tuple(c.values for c in row.cycles)

    rows = sweep((3, 3), (5, 5), n_max=100)
    row = rows[0]
    assert row.skip_reason is None  # processed: only k < 3 or p < 2 skip
    assert row.hypothesis.a_holds is False


def test_sweep_skip_rows_and_order():
    rows = sweep((2, 4), (1, 2), n_max=50)
    assert [(r.k, r.p) for r in rows] == [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)]
    skipped = {(r.k, r.p): r for r in rows if r.skip_reason}
    assert (2, 1) in skipped and (2, 2) in skipped
    assert (3, 1) in skipped and (4, 1) in skipped
    assert (3, 2) not in skipped and (4, 2) not in skipped
    for row in skipped.values():
        assert row.theorem1_status == THEOREM1_SKIPPED
        assert row.hypothesis is None


def test_sweep_max_transient_matches_naive():
    rows = sweep((10, 10), (5, 5), n_max=500)
    naive_max = max(naive_orbit(n, 10, 5)[1] for n in range(1, 501))
    assert rows[0].max_transient == naive_max


def test_sweep_jobs_do_not_change_rows():
    sequential = sweep((5, 9), (2, 4), n_max=300, jobs=1)
    parallel = sweep((5, 9), (2, 4), n_max=300, jobs=4)
    assert sequential == parallel


@pytest.mark.parametrize("cpus, expected", [(16, 3), (2, 2), (None, None)])
def test_sweep_pool_size_is_clamped(monkeypatch, cpus, expected):
    # jobs=64 over 3 cells: the pool is capped by the cell count and the CPU
    # count (unknown counts as 1, which runs in-process); a fake pool records
    # the size it was asked for, so no real worker ever starts
    started = []

    class FakePool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items):
            return [func(item) for item in items]

    monkeypatch.setattr("zorbit.dynamics.multiprocessing.Pool", FakePool)
    monkeypatch.setattr("zorbit.dynamics.os.cpu_count", lambda: cpus)
    rows = sweep((5, 5), (3, 5), n_max=50, jobs=64)
    assert started == ([] if expected is None else [expected])
    assert rows == sweep((5, 5), (3, 5), n_max=50, jobs=1)


def test_sweep_captures_cell_errors():
    rows = sweep((2**32 + 1, 2**32 + 1), (3, 3), n_max=10)
    assert rows[0].theorem1_status == THEOREM1_ERROR
    assert "ParameterDomainError" in rows[0].error


def test_sweep_rejects_bad_arguments():
    with pytest.raises(ParameterDomainError):
        sweep((5, 4), (3, 3), n_max=10)
    with pytest.raises(ParameterDomainError):
        sweep((5, 5), (3, 3), n_max=0)
    with pytest.raises(ParameterDomainError):
        sweep((5, 5), (3, 3), n_max=10, jobs=0)
    with pytest.raises(ParameterDomainError, match="k_range must be a"):
        sweep((5, 6, 7), (3, 4), n_max=10)
    with pytest.raises(ParameterDomainError, match="k_range must be a"):
        sweep(5, (3, 4), n_max=10)
    with pytest.raises(ParameterDomainError, match="p_range must be a"):
        sweep((5, 6), None, n_max=10)
