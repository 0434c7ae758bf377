"""Absorbing bounds, complete cycle censuses, and exact verifiers.

The per-digit map never exceeds ``(t+1)*(t+2)`` on a single digit, so an
m-digit value transforms to at most ``m*(t+1)*(t+2)``, which falls below
the value itself once it is large.  ``absorbing_bound`` turns that cap
into a certified finite box [0, B] that no orbit ever leaves; everything
else here (cycle enumeration, fixed points, the collapse verifiers, and
parameter sweeps) reduces to finite, exhaustively checked computation
inside the box.

One engine serves them all: ``_walk``, keyed by the digit map alone,
resolves the box once, row by row, pulling most nodes' cycle and depth
(steps to that cycle) from their images ``z(c*k + a) = z(c) + digit(a)``,
then walks each start above the box down into it once, counting basins and
the longest transient in the same walk.  ``_census`` feeds it ``digit_step``
and ``absorbing_bound`` and picks the Theorem 1 witness by
``classify_cycle``; ``cycle_census``, ``fixed_points``, both verifiers and
``sweep`` all read their answers from it.
"""

from __future__ import annotations

import multiprocessing
import os
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from itertools import islice

from .errors import AbsorptionError, ParameterDomainError, PreconditionError, _check_int, _echo
from .hypothesis import HypothesisReport, check_a, check_all
from .transform import OrbitTrace, Params, _check_params, digit_step, orbit

LABEL_UNIVERSAL = "universal_2cycle"
LABEL_FIXED_POINT = "fixed_point"
LABEL_ZERO = "degenerate_zero"
LABEL_OTHER = "other"

THEOREM1_PASS = "pass"
THEOREM1_FAIL = "fail"
THEOREM1_NOT_CHECKED = "not_checked"
THEOREM1_SKIPPED = "skipped"
THEOREM1_ERROR = "error"

_BLOCK = 4096  # box nodes resolved at once: the block's lists stay small beside its arrays


def max_digit_step(params: Params) -> int:
    """Largest value the per-digit map takes on any single base-k digit.

    Equals (t+1)*(t+2), attained at the digit t*p + 1 (always < k).
    """
    _check_params(params)
    return (params.t + 1) * (params.t + 2)


def z_upper_bound(m: int, params: Params) -> int:
    """Cap on the transform of any m-digit value: m times the digit maximum."""
    _check_int("digit count", m, 1)
    return m * max_digit_step(params)


def absorbing_bound(params: Params) -> int:
    """Certified bound B: [0, B] is forward-invariant and attracts every orbit.

    With S = max_digit_step, B = M*S for the largest M >= 2 with
    k**(M-1) <= M*S, or B = k - 1 when no such M exists.

    Proof.  An m-digit value maps to at most m*S.  Once k**(m-1) > m*S it
    stays so for every larger m: m*S grows by (m+1)/m <= 2 < k per digit,
    while k**(m-1) grows by k.  So the M-candidates are exactly 2..M.
    B < k**M, so values in [0, B] have at most M digits and map into
    [0, M*S] = [0, B].  Above B, an n with m <= M digits maps to at most
    m*S <= B < n, and an n with m > M digits to at most m*S < k**(m-1) <= n.
    When no M exists, 2*S < k, so B = k - 1 holds every one-digit image.
    """
    step_max = max_digit_step(params)
    k = params.k
    m, power = 1, k  # power = k**m; the loop stops with m = M, or 1 if no M
    while power <= (m + 1) * step_max:
        m += 1
        power *= k
    bound = max(k - 1, m * step_max)
    assert m * step_max <= bound < power and (m + 1) * step_max < power
    return bound


def _canonical_rotation(members: list[int]) -> tuple[int, ...]:
    pivot = members.index(min(members))
    return tuple(members[pivot:] + members[:pivot])


@dataclass(frozen=True)
class Cycle:
    """A periodic orbit segment in canonical rotation (minimum first)."""

    values: tuple[int, ...]
    basin_size: int

    @property
    def length(self) -> int:
        return len(self.values)

    @property
    def degenerate(self) -> bool:
        # 0 has the empty digit sum and maps to itself; the verifiers
        # quantify over positive integers and leave it aside.
        return self.values == (0,)


@dataclass(frozen=True)
class CycleCensus:
    """Every cycle reachable from a scanned range, with basin sizes.

    Cycles live inside [0, absorbing_bound]; ``scanned_range`` is the
    inclusive range of starting values attributed to basins, and basin
    sizes partition it exactly.
    """

    params: Params
    absorbing_bound: int
    cycles: tuple[Cycle, ...]
    scanned_range: tuple[int, int]


def cycle_census(params: Params, extra_range: int | None = None) -> CycleCensus:
    """Enumerate all cycles and attribute basins over the scanned range.

    The scanned range is [0, max(absorbing_bound, extra_range)].  Cycles
    are reported in canonical rotation, sorted by minimum element.
    """
    if extra_range is not None:
        _check_int("extra_range", extra_range, 0)
    return _census(params, extra_range)[0]


def _census(params: Params, n_max: int | None) -> tuple[CycleCensus, int, int | None]:
    """The census of [0, max(B, n_max)], the longest transient in [1, n_max]
    (``n_max`` defaults to B), and the witness: the smallest start n >= 1
    whose orbit ends in a positive cycle other than {1, 2}, or None.
    """
    bound = absorbing_bound(params)
    cycles, firsts, longest = _walk(params.k, partial(digit_step, p=params.p), bound, n_max)
    offending = (LABEL_FIXED_POINT, LABEL_OTHER)
    starts = [n for c, n in zip(cycles, firsts) if classify_cycle(c) in offending]
    hi = bound if n_max is None else max(bound, n_max)
    census = CycleCensus(params=params, absorbing_bound=bound, cycles=cycles, scanned_range=(0, hi))
    return census, longest, min(starts, default=None)


def _walk(
    k: int, digit: Callable[[int], int], bound: int, n_max: int | None
) -> tuple[tuple[Cycle, ...], tuple[int, ...], int]:
    """Every cycle of n -> sum of ``digit(a)`` over the base-k digits a of n,
    with basins over [0, max(bound, n_max)]; each cycle's smallest start, in
    the same order; and the longest transient in [1, n_max] (default bound).

    ``digit`` is any nonnegative map on 0..k-1; ``bound`` must be absorbing:
    [0, bound] maps into itself and every n above it maps below n.  The box
    is resolved in increasing blocks, each a row [c*k, c*k + k) cut to
    ``_BLOCK`` nodes, whose images are z(c) + digit(a) (0 maps to the empty
    sum 0).  ``cycle_id`` holds -1 for unresolved nodes and -2 for nodes on the
    walk in progress, so a walk that meets its own path has closed a new cycle;
    then it indexes ``found`` at the cycle n ends in, and ``depth[n]`` counts
    the steps n takes to enter it.  Only a node whose image is unresolved at its
    turn starts a walk, in increasing order, so the walk closing a cycle begins
    at its smallest start; the block then pulls the rest from its images, and
    resets its cycle members' depth to 0.  Images are checked against the box,
    and each start above ``bound`` is descended once, checking strict descent
    at every step: a broken certificate raises AbsorptionError.
    """
    size = bound + 1  # allocate first: a box past the address space fails at once
    typecode = "i" if bound < 2**31 - 1 else "q"
    cycle_id = array(typecode, [-1]) * size
    depth = array(typecode, [0]) * size
    table = tuple(map(digit, range(k)))

    def step(n: int, _table=table, _k=k) -> int:
        total = 0
        while n:
            n, a = divmod(n, _k)
            total += _table[a]
        return total

    left_box = f"step left the certified box [0, {bound}] from"
    found: list[tuple[tuple[int, ...], int]] = []
    members: list[int] = []  # a heap of the cycle members in blocks not yet pulled
    for row in range(0, size, k):
        high = step(row // k)
        for lo in range(row, min(row + k, size), _BLOCK):
            hi = min(lo + _BLOCK, row + k, size)
            images = [high + d for d in table[lo - row : hi - row]]
            if not lo:
                images[0] = 0  # the empty digit sum, whatever digit(0) is
            if max(images) > bound:
                raise AbsorptionError(f"{left_box} {lo + images.index(max(images))}")
            for start, image in zip(range(lo, hi), images):
                if image < lo or cycle_id[image] != -1 or cycle_id[start] != -1:
                    continue  # resolved already, or pulled below
                path: list[int] = []
                current = start
                while cycle_id[current] == -1:
                    cycle_id[current] = -2
                    path.append(current)
                    current = step(current)
                    if current > bound:
                        raise AbsorptionError(f"{left_box} {path[-1]}")
                cid = cycle_id[current]
                if cid == -2:
                    entry = path.index(current)
                    cid = len(found)
                    found.append((_canonical_rotation(path[entry:]), start))
                    for v in path[entry:]:
                        cycle_id[v] = cid
                        heappush(members, v)
                    del path[entry:]
                steps = depth[current]
                for v in reversed(path):
                    steps += 1
                    depth[v] = steps
                    cycle_id[v] = cid
            cycle_id[lo:hi] = array(typecode, [cycle_id[image] for image in images])
            depth[lo:hi] = array(typecode, [depth[image] + 1 for image in images])
            while members and members[0] < hi:
                depth[heappop(members)] = 0

    top = bound if n_max is None else n_max
    counts = [0] * len(found)
    for cid in cycle_id:
        counts[cid] += 1
    longest = max(islice(depth, 1, min(bound, top) + 1), default=0)  # a slice would copy
    for n in range(bound + 1, top + 1):
        current = n
        taken = 0
        while current > bound:
            nxt = step(current)
            if nxt >= current:
                raise AbsorptionError(
                    f"descent violated above certified bound {bound}: z({current}) = {nxt}"
                )
            current = nxt
            taken += 1
        counts[cycle_id[current]] += 1
        taken += depth[current]
        if taken > longest:
            longest = taken

    # Cycles are disjoint, so ordering by values orders by minimum element.
    ordered = sorted(zip(found, counts))
    cycles = tuple(Cycle(values=values, basin_size=count) for (values, _), count in ordered)
    return cycles, tuple(first for (_, first), _ in ordered), longest


def fixed_points(params: Params) -> list[int]:
    """All n in [0, absorbing_bound] with z(n) = n.

    Any fixed point is a cycle of length 1, and every cycle lies inside
    the absorbing box, so the census lists them all, in ascending order.
    """
    return [c.values[0] for c in cycle_census(params).cycles if c.length == 1]


def classify_cycle(cycle: Cycle) -> str:
    """Label a census cycle: the universal {1, 2} cycle, a fixed point,
    the degenerate zero, or other."""
    if cycle.degenerate:
        return LABEL_ZERO
    if set(cycle.values) == {1, 2}:
        return LABEL_UNIVERSAL
    if cycle.length == 1:
        return LABEL_FIXED_POINT
    return LABEL_OTHER


@dataclass(frozen=True)
class Lemma2Report:
    """Exact certificate of the digit shrink z(n) < k**(m-1) for every m >= 3.

    ``peak`` is the largest transform of any 3-digit value.
    """

    params: Params
    peak: int

    @property
    def passed(self) -> bool:
        return self.peak < self.params.k**2


def verify_lemma2(params: Params) -> Lemma2Report:
    """Decide whether every value with m >= 3 digits shrinks below k**(m-1).

    The largest transform of an m-digit value is exactly
    ``z_upper_bound(m, params)``, attained when every digit is t*p + 1
    (nonzero and below k).  So m = 3 decides every m: from one m to the
    next the cap grows by (m+1)/m <= 2 < k, while k**(m-1) grows by k.
    Requires condition (a), under which the certificate always passes.
    """
    if not check_a(params):
        raise PreconditionError(
            f"condition (a) does not hold for k={params.k}, p={params.p}",
            failed=("a",),
        )
    return Lemma2Report(params=params, peak=z_upper_bound(3, params))


@dataclass(frozen=True)
class Theorem1Report:
    """Exhaustive desk-scale check that every positive orbit ends in {1, 2}."""

    params: Params
    n_max: int
    passed: bool
    counterexample: OrbitTrace | None
    census: CycleCensus


def verify_theorem1(params: Params, n_max: int) -> Theorem1Report:
    """Confirm every orbit started in [1, n_max] terminates in {1, 2}.

    Preconditions: all of (a), (b), (c) hold; otherwise raises
    PreconditionError naming the failed conditions.  The census scan
    actually covers [0, max(absorbing_bound, n_max)], which subsumes the
    requested range.
    """
    _check_int("n_max", n_max, 1)
    report = check_all(params)
    if not report.satisfied:
        failed = report.failed_conditions
        names = ", ".join(f"({c})" for c in failed)
        raise PreconditionError(
            f"condition(s) {names} fail for k={params.k}, p={params.p}", failed=failed
        )
    census, _, witness = _census(params, n_max)
    return Theorem1Report(
        params=params,
        n_max=n_max,
        passed=witness is None,
        counterexample=None if witness is None else orbit(witness, params),
        census=census,
    )


@dataclass(frozen=True)
class CycleClassification:
    cycle: Cycle
    label: str


@dataclass(frozen=True)
class Theorem2Report:
    """Census classification under condition (a) alone.

    ``passed`` is ``all_orbits_terminated``, which is always true: the census
    counts each start of [0, max(B, n_max)] exactly once, or raises
    AbsorptionError.  The substantive answer is the classification table
    (non-{1,2} cycles need not be fixed points; no shape claim is made).
    """

    params: Params
    n_max: int
    census: CycleCensus
    classification: tuple[CycleClassification, ...]
    all_orbits_terminated: bool

    @property
    def passed(self) -> bool:
        return self.all_orbits_terminated


def verify_theorem2(params: Params, n_max: int) -> Theorem2Report:
    """Census and classify every cycle reachable from [1, n_max].

    Requires condition (a) only.  Each cycle is labelled as the universal
    {1, 2} cycle, a fixed point, the degenerate zero, or other.
    """
    _check_int("n_max", n_max, 1)
    if not check_a(params):
        raise PreconditionError(
            f"condition (a) fails for k={params.k}, p={params.p}", failed=("a",)
        )
    census = _census(params, n_max)[0]
    lo, hi = census.scanned_range
    terminated = sum(c.basin_size for c in census.cycles) == hi - lo + 1
    classification = tuple(
        CycleClassification(cycle=c, label=classify_cycle(c)) for c in census.cycles
    )
    return Theorem2Report(
        params=params,
        n_max=n_max,
        census=census,
        classification=classification,
        all_orbits_terminated=terminated,
    )


@dataclass(frozen=True)
class SweepRow:
    """One (k, p) cell of a parameter sweep."""

    k: int
    p: int
    skip_reason: str | None = None
    hypothesis: HypothesisReport | None = None
    absorbing_bound: int | None = None
    cycles: tuple[Cycle, ...] = ()
    theorem1_status: str = THEOREM1_SKIPPED
    max_transient: int | None = None
    error: str | None = None

    @property
    def num_cycles(self) -> int:
        return len(self.cycles)


def _sweep_cell(cell: tuple[int, int, int]) -> SweepRow:
    k, p, n_max = cell
    if k < 3:
        return SweepRow(k=k, p=p, skip_reason=f"base k={k} below 3")
    if p < 2:
        return SweepRow(k=k, p=p, skip_reason=f"modulus p={p} below 2")
    try:
        params = Params(k, p)
        hyp = check_all(params)
        census, max_transient, witness = _census(params, n_max)
        if hyp.satisfied:
            status = THEOREM1_PASS if witness is None else THEOREM1_FAIL
        else:
            status = THEOREM1_NOT_CHECKED
        return SweepRow(
            k=k,
            p=p,
            hypothesis=hyp,
            absorbing_bound=census.absorbing_bound,
            cycles=census.cycles,
            theorem1_status=status,
            max_transient=max_transient,
        )
    except Exception as exc:  # per-cell capture: the row reports the fault
        return SweepRow(
            k=k, p=p, theorem1_status=THEOREM1_ERROR, error=f"{type(exc).__name__}: {exc}"
        )


def sweep(
    k_range: tuple[int, int],
    p_range: tuple[int, int],
    n_max: int,
    jobs: int = 1,
) -> tuple[SweepRow, ...]:
    """Evaluate every (k, p) cell of the inclusive ranges.

    Cells outside the library domain (k < 3 or p < 2) become skipped rows
    with a reason; per-cell failures are captured in the row.  Rows come
    back in (k, p) lexicographic order regardless of ``jobs``.  At most
    ``min(jobs, cells, CPU count)`` worker processes start.
    """
    for name, bounds in (("k_range", k_range), ("p_range", p_range)):
        if not isinstance(bounds, tuple | list) or len(bounds) != 2:
            raise ParameterDomainError(f"{name} must be a (lo, hi) pair, got {_echo(bounds)}")
        for bound in bounds:  # no lower bound: k < 3 and p < 2 become skipped rows
            _check_int(f"{name} bound", bound)
    (k_lo, k_hi), (p_lo, p_hi) = k_range, p_range
    if k_lo > k_hi or p_lo > p_hi:
        raise ParameterDomainError("ranges must satisfy lo <= hi")
    _check_int("n_max", n_max, 1)
    _check_int("jobs", jobs, 1)
    cells = [(k, p, n_max) for k in range(k_lo, k_hi + 1) for p in range(p_lo, p_hi + 1)]
    workers = min(jobs, len(cells), os.cpu_count() or 1)
    if workers > 1:
        with multiprocessing.Pool(processes=workers) as pool:
            rows = pool.map(_sweep_cell, cells)
    else:
        rows = [_sweep_cell(cell) for cell in cells]
    return tuple(rows)
