"""Bounds, censuses, verifiers, and sweeps against brute-force oracles."""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import count
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zorbit import dynamics
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
    _resolve,
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


def never_map_a_digit(*_):
    raise AssertionError("digit table built past the memory check")


@pytest.mark.parametrize("p", [3, 2])
def test_box_past_the_address_space_fails_before_the_digit_table(monkeypatch, p):
    # B = 2*S with S = (t+1)(t+2): at p = 3, S ~ 2.06e18, a one-byte table of
    # about 4.1e18 slots; at p = 2, B = 2**63 + 2**32 is past PY_SSIZE_T_MAX.
    # Either box is past any machine's memory and past the 2**47 bytes assumed
    # where it cannot be read, so MemoryError comes at once, before any of the
    # 2**32 digit-table entries is computed
    monkeypatch.setattr("zorbit.dynamics._digit_table", never_map_a_digit)
    with pytest.raises(MemoryError):
        cycle_census(Params(2**32, p))


@pytest.mark.parametrize("transients", [False, True])
def test_census_checks_its_bytes_against_the_memory_first(monkeypatch, transients):
    # (137, 11): 24 bytes for each of 137 digits and 137 more for a cut last
    # row's shape, 112 for each of at most 2 * 13 + 1 = 27 distinct digits,
    # and 1 for each of the B + 1 = 365 box nodes, or 2 with transients
    params = Params(137, 11)
    assert absorbing_bound(params) == 364
    estimate = 24 * (137 + 137) + 112 * 27 + (2 if transients else 1) * 365
    expected = _census(params, None, transients)
    monkeypatch.setattr("zorbit.dynamics._MEMORY", estimate)
    assert _census(params, None, transients) == expected
    monkeypatch.setattr("zorbit.dynamics._MEMORY", estimate - 1)
    monkeypatch.setattr("zorbit.dynamics._digit_table", never_map_a_digit)
    with pytest.raises(MemoryError, match=f"about {estimate} bytes"):
        _census(params, None, transients)


@pytest.mark.parametrize("transients", [False, True])
@pytest.mark.parametrize(
    "k,p,n_max",
    [
        (4096, 4096, None),
        (947, 3, None),
        (4000, 3, None),
        (137, 11, 100_000),
        (3000, 3, None),
        (30000, 200, None),
    ],
    ids=["k=p", "box", "big-ints", "range-past-box", "many-values", "shapes-per-row"],
)
def test_census_counts_at_least_its_own_peak(monkeypatch, k, p, n_max, transients):
    # the rule counts what a census allocates, tracemalloc's few kB of fixed
    # bookkeeping aside: k = p holds a box of one row beside a table of k
    # entries; (947, 3), (4000, 3) and (3000, 3) hold digit values past the
    # small-int cache, about 2k/3 distinct ones; (137, 11) keeps 548 nodes for
    # 100 001 starts, and (30000, 200) cuts each row into 8 shapes
    params = Params(k, p)
    peak = peak_bytes(_census, params, n_max, transients)
    monkeypatch.setattr("zorbit.dynamics._MEMORY", peak - 1)
    monkeypatch.setattr("zorbit.dynamics._digit_table", never_map_a_digit)
    with pytest.raises(MemoryError):
        _census(params, n_max, transients)


@pytest.mark.parametrize("transients", [False, True])
def test_census_counts_at_most_three_quarters_over_its_peak_at_k_equal_p(monkeypatch, transients):
    # k = p = 100 000: every f(a) is 0, 1 or 2, so a digit takes about 16 bytes
    # beside the one-row box, where the rule counts 24; so the rule over-counts
    # here, by less than 1.75x
    params = Params(100_000, 100_000)
    peak = peak_bytes(_census, params, None, transients)
    monkeypatch.setattr("zorbit.dynamics._MEMORY", 0)
    with pytest.raises(MemoryError) as refused:
        _census(params, None, transients)
    count = int(re.search(r"about (\d+) bytes", str(refused.value)).group(1))
    assert peak < count < 1.75 * peak


@pytest.mark.parametrize("transients", [False, True])
def test_wide_redo_checks_its_bytes_before_it_allocates(monkeypatch, transients):
    # 300 fixed points: the one-byte pass fits the memory and overflows at the
    # 129th cycle; the redo's 4-byte tables would take 3 bytes a node more
    entries = dynamics._ENTRY * (300 + 300) + dynamics._VALUE * 300
    tables = 2 if transients else 1
    monkeypatch.setattr("zorbit.dynamics._MEMORY", entries + tables * 300)
    with pytest.raises(MemoryError, match=f"about {entries + tables * 4 * 300} bytes"):
        _walk(tuple(range(300)), 299, None, transients)


@pytest.mark.parametrize("transients", [False, True])
def test_one_row_census_keeps_no_node_order(transients):
    # k = p = 100 000: 25 block shapes, of which only the first has walks; a
    # shape holds its gather and its 3 distinct digits, not its nodes sorted
    # by digit, which took the peak to 5.5 MB
    assert peak_bytes(_census, Params(100_000, 100_000), None, transients) < 2_500_000


def test_tables_past_the_box_stay_box_sized():
    # B = 364: the tables keep [0, 546], up to the largest image of a start,
    # and only count the rest of [0, 100 000]; tables spanning the range
    # would take about 800 kB
    assert peak_bytes(cycle_census, Params(137, 11), 100_000) < 256 * 1024


def test_box_tables_take_one_byte_a_node():
    # B = 200 344: the census keeps only the cycle ids, one byte a node, and the
    # sweep's transients add a depth byte; 4-byte slots alone would take 4 and 8
    params = Params(947, 3)
    nodes = absorbing_bound(params) + 1
    assert peak_bytes(cycle_census, params) < 2 * nodes
    assert peak_bytes(_census, params, None, transients=True) < 4 * nodes


def peak_bytes(call, *args, **kwargs) -> int:
    """The tracemalloc peak of one call."""
    tracemalloc.start()
    try:
        call(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
@example((100, 10, 30_000))  # B = 220, box rows to 299, stored to 330, then only counted
@example((1000, 8, 31_500))  # a 32-row box: many rows share a z(c), and each is gathered anew
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
    assert _census(params, n_max, transients=False)[2] == witness
    row = sweep((k, k), (p, p), n_max)[0]
    assert row.cycles == census.cycles  # the row's pass keeps depths, the census's does not
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
    cycles, _, _ = _walk(tuple(a**exponent for a in range(10)), bound, None, transients=False)
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
        # the descent check: [0, 9] maps into itself, but z(11) = 18 > 11; digits 1-9
        # tie for the largest, and the first node of the tie is named
        (10, lambda a: 9 if a else 0, 9, "descent violated above certified bound 9: z(11) = 18"),
        # descent is not enough: z(19) = 14 < 19, but the row [10, 20) must map below 10
        (
            10,
            lambda a: {1: 5, 9: 9}.get(a, 0),
            9,
            "descent violated above certified bound 9: z(19) = 14",
        ),
    ],
)
def test_walk_raises_on_a_broken_certificate(k, digit, bound, message):
    table = tuple(map(digit, range(k)))
    for transients in (False, True):
        with pytest.raises(AbsorptionError, match=re.escape(message)):
            _walk(table, bound, 20, transients)


@pytest.mark.parametrize("block", [1, 2, 7])
def test_walk_does_not_depend_on_the_block_size(monkeypatch, block):
    # blocks that cut every row, on boxes of many rows
    rng = random.Random(block)
    cases = []
    for _ in range(20):
        k = rng.randrange(3, 9)
        table = (0, *(rng.randrange(k * k + 1) for _ in range(k - 1)))
        cases.append((table, k**4, rng.choice([None, k**4 + 500])))
    expected = [_walk(*case, transients) for case in cases for transients in (False, True)]
    monkeypatch.setattr("zorbit.dynamics._BLOCK", block)
    assert [_walk(*case, transients) for case in cases for transients in (False, True)] == expected


@pytest.mark.parametrize("block", [4096, 7, 1])
def test_walk_counts_basins_past_256_cycles(monkeypatch, block):
    # base-300 digit sums of n <= 299 fix every n: 300 cycles, past a byte's ids;
    # the wide-table redo holds with the depth table and without it
    monkeypatch.setattr("zorbit.dynamics._BLOCK", block)
    orbits = [orbit_by_table(n, 300, range(300)) for n in range(3_001)]
    basins = Counter(canonical_cycle(*orbit) for orbit in orbits)
    assert max(lam for _, lam, _ in orbits[1:]) == 2
    for transients in (False, True):
        cycles, firsts, longest = _walk(tuple(range(300)), 299, None, transients)
        assert [c.values for c in cycles] == [(n,) for n in range(300)]
        assert {c.basin_size for c in cycles} == {1}
        assert firsts == tuple(range(300))
        assert longest == (0 if transients else None)
        # box [0, 599], rows 2..10 only counted: a counted block's tally past 256 cycles
        cycles, firsts, longest = _walk(tuple(range(300)), 599, 3_000, transients)
        assert {c.values: c.basin_size for c in cycles} == dict(basins)
        assert len(cycles) == 300 and sum(basins.values()) == 3_001
        assert firsts == tuple(range(300))
        assert longest == (2 if transients else None)


@st.composite
def digit_map_and_range(draw) -> tuple[int, tuple[int, ...], int, int | None]:
    """A base k, a digit table with entries <= k*k and table[0] == 0, the box
    k**4 and a range end.

    An m-digit value maps to at most m*k*k, which is <= k**4 for m <= 5 and
    below k**(m-1) for m >= 5, so [0, k**4] is absorbing for every such table.
    """
    k = draw(st.integers(min_value=3, max_value=12))
    table = (0, *draw(st.lists(st.integers(0, k * k), min_size=k - 1, max_size=k - 1)))
    bound = k**4
    n_max = draw(st.one_of(st.none(), st.integers(1, bound), st.integers(bound + 1, bound + 2_000)))
    return k, table, bound, n_max


@given(digit_map_and_range())
@example((3, (0, 0, 2), 81, None))  # a block's cycle members take depth 0, not their image's + 1
@example((3, (0, 9, 9), 81, None))  # z(1) = 9 = k*k: a walk steps from a three-digit image
@settings(max_examples=30, deadline=None)
def test_walk_matches_per_start_orbits_for_random_digit_maps(case):
    check_walk_against_orbits(*case)


def check_walk_against_orbits(
    k: int, table: tuple[int, ...], bound: int, n_max: int | None
) -> int:
    """Check basins, each cycle's smallest start and the longest transient
    against per-start orbits; return the longest transient.  Without
    transients the walk must give the same cycles, basins and smallest starts."""
    cycles, firsts, longest = _walk(table, bound, n_max, transients=True)
    assert _walk(table, bound, n_max, transients=False) == (cycles, firsts, None)
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
    return longest


STEP_DOWN = (0, *range(199))  # n -> n - 1 on one digit: n takes n steps to the fixed point 0


@pytest.mark.parametrize("block", [4096, 7, 1])
@pytest.mark.parametrize(
    "k,table,bound,n_max,deepest",
    [
        # a walk reaches node 128's depth: past a one-byte table
        (200, STEP_DOWN, 199, None, 199),
        (200, STEP_DOWN, 199, 5_000, 200),  # z(599) = 199
        # node 128 is no node's image, so only its block's gather adds its depth
        (129, STEP_DOWN[:129], 128, None, 128),
        # base-130 digit sums fix every n <= 129: cycle ids past a signed byte
        (130, tuple(range(130)), 129, None, 0),
        (130, tuple(range(130)), 259, 3_000, 2),
    ],
)
def test_walk_redoes_the_census_with_wide_tables(
    monkeypatch, block, k, table, bound, n_max, deepest
):
    # with transients every case redoes the census; without them only the id cases
    monkeypatch.setattr("zorbit.dynamics._BLOCK", block)
    passes = []

    def spy(*args):
        passes.append(args[-2:])  # (transients, typecode)
        return _resolve(*args)

    monkeypatch.setattr("zorbit.dynamics._resolve", spy)
    assert check_walk_against_orbits(k, table, bound, n_max) == deepest
    ids_past_127 = table == tuple(range(k))
    assert passes == [(True, "b"), (True, "i"), (False, "b")] + [(False, "i")] * ids_past_127


def test_walk_redoes_with_four_byte_tables_at_every_bound(monkeypatch):
    # a 4-byte slot holds any id or depth below 2**31 - 1, so a box of more
    # nodes redoes at the same width; the spy allocates nothing
    typecodes = []

    def spy(*args):
        typecodes.append(args[-1])
        if args[-1] == "b":
            raise OverflowError("cycle id past 127 in a one-byte table")
        return (), (), None

    monkeypatch.setattr("zorbit.dynamics._resolve", spy)
    assert _walk((0, 1), 2**31, None, False) == ((), (), None)
    assert typecodes == ["b", "i"]


@pytest.mark.parametrize("transients", [False, True])
def test_a_stored_block_cannot_grow_its_table(monkeypatch, transients):
    # base-10 digit sums on the box [0, 18]: the tables end at node 18; cut to
    # 15 nodes, the block [10, 19) would store 9 ids in 5 slots, and the views
    # the pass holds refuse to resize the table
    assert dynamics._tables(10, 9, 10, 18, None, transients, 1) == (18, 19)
    monkeypatch.setattr("zorbit.dynamics._tables", lambda *args: (18, 15))
    with pytest.raises(BufferError):
        _walk(tuple(range(10)), 18, None, transients)


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
    # only on cells outside condition (a), and there the Lemma 2 certificate
    # fails and the box holds 3-digit values
    reach_k_squared = []
    for k in range(3, 31):
        for p in range(2, 36):
            params = Params(k, p)
            for m in (1, 2, 3):
                peak = max(z_by_digit_sum(n, k, p) for n in range(k ** (m - 1), k**m))
                assert z_upper_bound(m, params) == peak, (k, p, m)
            if z_upper_bound(3, params) >= k * k:
                reach_k_squared.append((k, p))
            passed = verify_lemma2(params).passed
            assert passed == (absorbing_bound(params) < k * k), (k, p)
            assert passed == ((k, p) not in reach_k_squared), (k, p)
    assert reach_k_squared == [(4, 2), (6, 2)]


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
    witness = _census(Params(5, 3), None, transients=False)[2]
    assert witness == smallest_offending_start(5, 3) == 4
    assert orbit(witness, Params(5, 3)).values == (4, 6, 4)


def test_verify_theorem2_k5_p3():
    report = verify_theorem2(Params(5, 3), n_max=9_827)
    labels = {c.values: classify_cycle(c) for c in report.census.cycles}
    assert labels[(0,)] == LABEL_ZERO
    assert labels[(1, 2)] == LABEL_UNIVERSAL
    assert labels[(4, 6)] == LABEL_OTHER  # a genuine 2-cycle, not a fixed point
    # the worked start lands in a census cycle
    cycle_sets = [set(c.values) for c in report.census.cycles]
    trace = orbit(9_827, Params(5, 3))
    assert set(trace.cycle) in cycle_sets


def test_verify_theorem2_k10_p5():
    report = verify_theorem2(Params(10, 5), n_max=8_512)
    labels = {c.values: classify_cycle(c) for c in report.census.cycles}
    assert labels[(6,)] == LABEL_FIXED_POINT
    assert labels[(1, 2)] == LABEL_UNIVERSAL
    trace = orbit(8_512, Params(10, 5))
    assert set(trace.cycle) == {6}


def test_verify_theorem2_full_conditions_consistent_with_theorem1():
    report = verify_theorem2(Params(137, 11), n_max=1_000)
    positive_labels = [classify_cycle(c) for c in report.census.cycles if not c.degenerate]
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

    monkeypatch.setattr("multiprocessing.Pool", FakePool)
    monkeypatch.setattr("zorbit.dynamics.os.cpu_count", lambda: cpus)
    rows = sweep((5, 5), (3, 5), n_max=50, jobs=64)
    assert started == ([] if expected is None else [expected])
    assert rows == sweep((5, 5), (3, 5), n_max=50, jobs=1)


def test_import_leaves_multiprocessing_out():
    # only a sweep with more than one worker imports it, to start its pool
    code = "import sys, zorbit, zorbit.cli; print('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(dynamics.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (result.returncode, result.stdout) == (0, "False\n")


def test_sweep_captures_cell_errors():
    rows = sweep((2**32 + 1, 2**32 + 1), (3, 3), n_max=10)
    assert rows[0].theorem1_status == THEOREM1_ERROR
    assert "ParameterDomainError" in rows[0].error


def test_sweep_reports_a_cell_past_the_memory_as_an_error_row(monkeypatch):
    # k = p = 2**32: B = k - 1, so 24 bytes for each of 2**32 + 4096 digits
    # (the table and gather slots), 112 for each of 3 distinct digits and 2
    # for each of 2**32 box nodes with depths: about 111.7 GB, over an 8 GiB
    # machine
    monkeypatch.setattr("zorbit.dynamics._MEMORY", 8 * 2**30)
    monkeypatch.setattr("zorbit.dynamics._digit_table", never_map_a_digit)
    (row,) = sweep((2**32, 2**32), (2**32, 2**32), 10)
    assert row.theorem1_status == THEOREM1_ERROR
    assert row.error.startswith("MemoryError: ")


def test_sweep_reports_a_bare_exception_by_its_name(monkeypatch):
    # a MemoryError from the allocator carries no message: no ": " follows
    def out_of_memory(*_, **__):
        raise MemoryError()

    monkeypatch.setattr("zorbit.dynamics._census", out_of_memory)
    (row,) = sweep((5, 5), (3, 3), 10)
    assert row.theorem1_status == THEOREM1_ERROR
    assert row.error == "MemoryError"


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
