"""Absorbing bounds, complete cycle censuses, and exact verifiers.

The per-digit map never exceeds ``(t+1)*(t+2)`` on a single digit, so an
m-digit value transforms to at most ``m*(t+1)*(t+2)``, which falls below
the value itself once it is large.  ``absorbing_bound`` turns that cap
into a certified finite box [0, B] that no orbit ever leaves; everything
else here (cycle enumeration, fixed points, the collapse verifiers, and
parameter sweeps) reduces to finite, exhaustively checked computation
inside the box.

One engine serves them all: ``_walk``, keyed by a digit table alone, resolves
every start in one pass, row by row, pulling most nodes' cycle from their
images ``z(c*k + a) = z(c) + table[a]`` by one C-level gather, tally and store
per block, so a node costs about the same whatever the digit map; a walk sums
an image of two digits inline.  The cycle-id table takes one signed byte per
node.  Only ``sweep`` reads transients, so only it asks for a depth table
(steps to the cycle) of the same width, gathered after the ids, whose stored
blocks add 1 by one ``bytearray.translate``; every other caller resolves the
box with the id table alone.  A cycle id past 127, or with transients a depth
past 127, sends the census back for one pass with 4- or 8-byte tables.  Above
the box every image lies below its row, so the pull alone resolves those rows;
blocks past the stored tables skip only the table writes, and basins and the
longest transient are counted in the same pass.  One rule, ``_tables``, sizes
the tables and counts the memory: ``_ENTRY`` bytes a digit (its table and
gather slots), ``_VALUE`` a distinct digit (its int and list slot), and tables
up to the row of the largest image at 1 byte a node (2 with depths), or 4 or 8
for the redo.  A census over the physical memory raises MemoryError before its
digit table is built, and a redo before it allocates.  ``_census`` feeds the
engine the closed-form table of ``_digit_table`` and ``absorbing_bound`` and
picks the Theorem 1 witness by ``classify_cycle``; ``cycle_census``,
``fixed_points``, both verifiers and ``sweep`` all read their answers from it.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import itemgetter

from .errors import AbsorptionError, ParameterDomainError, PreconditionError, _check_int, _echo
from .hypothesis import HypothesisReport, check_a, check_all
from .kadic import digit_count
from .transform import OrbitTrace, Params, _check_params, _digit_table, orbit

LABEL_UNIVERSAL = "universal_2cycle"
LABEL_FIXED_POINT = "fixed_point"
LABEL_ZERO = "degenerate_zero"
LABEL_OTHER = "other"

THEOREM1_PASS = "pass"
THEOREM1_FAIL = "fail"
THEOREM1_NOT_CHECKED = "not_checked"
THEOREM1_SKIPPED = "skipped"
THEOREM1_ERROR = "error"

_BLOCK = 4096  # nodes pulled at once: its tuples, 16 B a node, stay small beside the tables
_PLUS_ONE = bytes(range(1, 256)) + b"\0"  # a depth byte's successor, by bytearray.translate
# Bytes a census takes beside its node tables: _ENTRY a counted digit (k, and min(k, _BLOCK) for a
# cut last row's shape), its digit-table and gather slots; _VALUE a distinct digit, its int and its
# slot in a shape's sorted list.  tracemalloc read 16 a digit at k = p, and up to 86 a value more
# at p = 3 and 7; the pair covers each of 38 readings (README) beside the tables by 9 % or more.
_ENTRY = 24
_VALUE = 112
try:  # physical memory, the limit of every census (see _tables)
    _MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
except (AttributeError, ValueError, OSError):  # no sysconf, or it cannot report the memory
    _MEMORY = 2**47  # the user address space of a 64-bit process


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
    return _census(params, extra_range, transients=False)[0]


def _census(
    params: Params, n_max: int | None, transients: bool
) -> tuple[CycleCensus, int | None, int | None]:
    """The census of [0, max(B, n_max)], the longest transient in [1, n_max]
    (``n_max`` defaults to B; None unless ``transients``), and the witness:
    the smallest start n >= 1 whose orbit ends in a positive cycle other than
    {1, 2}, or None.  Only a caller that reads the longest transient passes
    ``transients``: without it the census keeps no depth table.  Before it
    builds anything, ``_tables`` counts the census's bytes at one-byte tables
    and raises MemoryError when they exceed the memory; else the digit table
    is built once, in closed form, with no call per digit.
    """
    bound = absorbing_bound(params)
    values = 2 * -(-params.k // params.p) + 1  # at most r, r+1 and (r+1)(r+2) for each block r
    hi, _ = _tables(params.k, max_digit_step(params), values, bound, n_max, transients, 1)
    table = _digit_table(params.k, params.p)
    cycles, firsts, longest = _walk(table, bound, n_max, transients)
    offending = (LABEL_FIXED_POINT, LABEL_OTHER)
    starts = [n for c, n in zip(cycles, firsts) if classify_cycle(c) in offending]
    census = CycleCensus(params=params, absorbing_bound=bound, cycles=cycles, scanned_range=(0, hi))
    return census, longest, min(starts, default=None)


def _tables(
    k: int, top: int, values: int, bound: int, n_max: int | None, transients: bool, itemsize: int
) -> tuple[int, int]:
    """The end of the census range, max(bound, n_max), and the size of its
    node tables, which reach the end of the row of the largest image any
    start has (``top`` is the largest digit-table entry), so no stored block
    reaches past them.  ``_resolve`` exports each table by one memoryview for
    its whole pass, so a block that did would raise BufferError, not grow it.

    Raises MemoryError when the census would exceed ``_MEMORY``: ``_ENTRY``
    bytes for each of the k digits and of the one more shape a cut last row
    adds (at most ``_BLOCK``), ``_VALUE`` for each of ``values`` distinct
    digits (or a bound on them), and ``itemsize`` a node in each node table.
    """
    end = bound if n_max is None else max(bound, n_max)
    size = min(max(bound, digit_count(end, k) * top) // k * k + k, end + 1)
    need = _ENTRY * (k + min(k, _BLOCK)) + _VALUE * values + (1 + transients) * itemsize * size
    if need > _MEMORY:
        raise MemoryError(f"a census of about {need} bytes, over {_MEMORY} bytes of memory")
    return end, size


def _walk(
    table: tuple[int, ...], bound: int, n_max: int | None, transients: bool
) -> tuple[tuple[Cycle, ...], tuple[int, ...], int | None]:
    """Every cycle of n -> sum of ``table[a]`` over the base-k digits a of n,
    k = len(table), with basins over [0, end], end = max(bound, n_max); each
    cycle's smallest start, in the same order; and the longest transient in
    [1, n_max] (default bound) if ``transients``, else None.

    Contract: ``table`` is nonnegative with ``table[0] == 0`` (the paper's
    f(0) = 0), and ``bound`` is absorbing as ``absorbing_bound`` proves it:
    [0, bound] maps into itself, and an m-digit n above it maps into [0, bound]
    or below k**(m-1) <= c*k for its row [c*k, c*k + k).  So one pass resolves
    [0, end] in increasing blocks, each a row cut to ``_BLOCK`` nodes, whose
    images are z(c) + table[a]: a block that starts in the box maps into it,
    one above it maps below its first node, or AbsorptionError is raised.
    ``cycle_id`` holds -1 for unresolved nodes and -2 for nodes on the walk in
    progress, so a walk that meets its own path has closed a new cycle, whose
    members take their id there and leave the path; then it indexes ``found``
    at the cycle n ends in.  With ``transients`` a second table, ``depth[n]``,
    counts the steps n takes to enter it; without them no depth is gathered,
    added to, written or reset, and the longest transient is not taken.  Only a
    block whose largest image reaches its first node can have an unresolved
    image, so only such a block looks up where its walks start.  Each block
    shape caches only its gather and its distinct digits, sorted: the last is
    the peak test's, and a plain bisection finds those whose image lies at or
    past the first node.  Nodes of equal digit share their image, so each
    image found starts one walk, in increasing order, unless it is resolved
    already.  A walk steps from an image below k*k by ``table[q] + table[a]``
    inline, and calls the digit sum past two digits.  Every cycle lies in the
    box, so its smallest start is the first node of ``cycle_id`` holding its
    index.  Each block's ids are gathered once, tallied by the table width
    (one-byte tables hold at most 128 cycles: the ids become a ``bytearray``,
    counted by ``bytearray.count``; wide tables by ``Counter.update``) and
    stored by one copy; its depths follow only when the depth table exists.

    Each table is allocated once, at the size ``_tables`` sets (up to the row
    of the largest image) once it has counted the pass's bytes at this width
    against the memory, with one signed byte a node: a stored block's + 1 is
    one ``bytearray.translate`` and its writes copy bytes.  A cycle id past 127,
    or with transients a depth past 127, raises OverflowError, from a walk's
    assignment or a translated depth of 128, and the census is redone once
    with wide tables, "i" below 2**31 - 1 and "q" from there, whose + 1 is a
    list comprehension; the redo's 4 or 8 bytes a node pass the same check,
    or raise MemoryError before they are allocated.
    """
    try:
        return _resolve(table, bound, n_max, transients, "b")
    except OverflowError:
        pass  # leave the handler first: its traceback holds the one-byte tables
    return _resolve(table, bound, n_max, transients, "i" if bound < 2**31 - 1 else "q")


def _resolve(
    table: tuple[int, ...], bound: int, n_max: int | None, transients: bool, typecode: str
) -> tuple[tuple[Cycle, ...], tuple[int, ...], int | None]:
    """One pass of ``_walk`` with tables of array ``typecode``: the cycle ids,
    and the depths if ``transients``."""
    k = len(table)
    itemsize = array(typecode).itemsize
    end, size = _tables(k, max(table), len(set(table)), bound, n_max, transients, itemsize)
    cycle_id = array(typecode, [-1]) * size
    id_view = memoryview(cycle_id)  # exported for the pass, so a block cannot grow the table
    depth = array(typecode, [0]) * size if transients else None
    depth_view = None if depth is None else memoryview(depth)

    square = k * k  # an image below it has two digits, summed inline

    def step(n: int, _table=table, _k=k) -> int:
        total = 0
        while n:
            n, a = divmod(n, _k)
            total += _table[a]
        return total

    left_box = f"step left the certified box [0, {bound}] from"
    found: list[tuple[int, ...]] = []
    members: list[int] = []  # a heap of the cycle members in blocks not yet pulled
    counts: Counter[int] = Counter()  # the basins: every block's cycle ids
    longest = 0  # the longest transient of the blocks past the tables
    shapes: dict[tuple[int, int], tuple] = {}  # gather, sorted distinct digits
    for row in range(0, end + 1, k):
        high = step(row // k)
        for lo in range(row, min(row + k, end + 1), _BLOCK):
            hi = min(lo + _BLOCK, row + k, end + 1)
            if (shape := (lo - row, hi - lo)) not in shapes:
                digits = table[lo - row : hi - row]
                gather = itemgetter(*digits) if hi - lo > 1 else lambda v, d=digits[0]: (v[d],)
                shapes[shape] = gather, sorted(set(digits))
            gather, values = shapes[shape]
            peak = high + values[-1]
            if peak >= lo:  # else every image lies below lo, so it is resolved already
                if peak > bound:
                    n = table.index(values[-1], lo - row) + row  # the largest digit's first node
                    descent = f"descent violated above certified bound {bound}: z({n}) = {peak}"
                    raise AbsorptionError(f"{left_box} {n}" if n <= bound else descent)
                for digit in values[bisect_left(values, lo - high) :]:
                    current = high + digit  # a walk starts at the image; the block pulls its nodes
                    if cycle_id[current] != -1:
                        continue  # resolved already: cheaper than an empty walk
                    path: list[int] = []
                    while cycle_id[current] == -1:
                        cycle_id[current] = -2
                        path.append(current)
                        if current < square:
                            current = table[current // k] + table[current % k]
                        else:
                            current = step(current)
                        if current > bound:
                            raise AbsorptionError(f"{left_box} {path[-1]}")
                    cid = cycle_id[current]
                    if cid == -2:
                        entry = path.index(current)
                        cid = len(found)
                        found.append(_canonical_rotation(path[entry:]))
                        for v in path[entry:]:
                            cycle_id[v] = cid
                            if depth is not None:  # members keep depth 0, reset after their block
                                heappush(members, v)
                        del path[entry:]
                    for v in path:
                        cycle_id[v] = cid
                    if depth is not None:
                        steps = depth[current]
                        for v in reversed(path):
                            steps += 1
                            depth[v] = steps
            block_ids = gather(id_view[high:])
            if typecode == "b":  # at most 128 cycles: a bytearray counts each id in C
                block_ids = bytearray(block_ids)
                for cid in range(len(found)):
                    counts[cid] += block_ids.count(cid)
            else:
                counts.update(block_ids)
            if lo < size:
                cycle_id[lo:hi] = array(typecode, block_ids)  # one-byte ids: a memcpy
            if depth is None:
                continue
            block_depths = gather(depth_view[high:])
            if lo >= size:  # counted only
                longest = max(longest, max(block_depths) + 1)
            elif typecode == "b":
                plus = bytearray(block_depths).translate(_PLUS_ONE)
                if 128 in plus:  # the byte would read back as -128
                    raise OverflowError("depth past 127 in a one-byte table")
                depth[lo:hi] = array("b", plus)
            else:
                depth[lo:hi] = array(typecode, [d + 1 for d in block_depths])
            while members and members[0] < hi:
                depth[heappop(members)] = 0

    if depth is not None:
        top = bound if n_max is None else n_max
        longest = max(longest, max(depth_view[1 : top + 1], default=0))
    # Cycles are disjoint, so ordering by values orders by minimum element.
    ids = range(len(found))
    ordered = sorted(zip(found, map(counts.__getitem__, ids), map(cycle_id.index, ids)))
    cycles = tuple(Cycle(values=values, basin_size=count) for values, count, _ in ordered)
    return cycles, tuple(first for _, _, first in ordered), None if depth is None else longest


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

    ``peak`` is the largest transform of any 3-digit value, and ``passed``
    whether it lies below k**2: true under condition (a), false at (4, 2)
    and (6, 2).
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

    Decided on every cell: ``passed`` equals ``absorbing_bound(params) < k**2``,
    that is, the box has at most two digits.  With S = max_digit_step,
    3*S < k**2 leaves M <= 2 and B <= max(k - 1, 2*S), and 3*S >= k**2 makes
    M >= 3.  As t <= (k-2)/2, 3*S <= 3k(k+2)/4 < k**2 once k > 6, so it fails
    only at (4, 2) and (6, 2), found by checking every k <= 6.
    """
    return Lemma2Report(params=params, peak=z_upper_bound(3, params))


@dataclass(frozen=True)
class Theorem1Report:
    """Theorem 1's verdict: does the orbit of every n >= 1 end in {1, 2}?

    ``passed`` decides every n >= 1, not only the starts up to ``n_max``:
    every cycle lies in [0, absorbing_bound] and every orbit enters it.
    ``counterexample`` is the orbit of the smallest positive start whose
    cycle is not {1, 2}; ``n_max`` sets only the census's basin range.
    """

    params: Params
    n_max: int
    passed: bool
    counterexample: OrbitTrace | None
    census: CycleCensus


def verify_theorem1(params: Params, n_max: int) -> Theorem1Report:
    """Decide whether the orbit of every n >= 1 terminates in {1, 2}.

    Preconditions: all of (a), (b), (c) hold; otherwise raises
    PreconditionError naming the failed conditions.  Every cycle lies in
    the box [0, absorbing_bound] and every orbit enters it, so resolving
    the box decides every n >= 1, and the counterexample is the smallest
    positive start with an offending cycle.  ``n_max`` sets only the
    census range [0, max(absorbing_bound, n_max)] over which basins count.
    """
    _check_int("n_max", n_max, 1)
    report = check_all(params)
    if not report.satisfied:
        failed = report.failed_conditions
        names = ", ".join(f"({c})" for c in failed)
        raise PreconditionError(
            f"condition(s) {names} fail for k={params.k}, p={params.p}", failed=failed
        )
    census, _, witness = _census(params, n_max, transients=False)
    return Theorem1Report(
        params=params,
        n_max=n_max,
        passed=witness is None,
        counterexample=None if witness is None else orbit(witness, params),
        census=census,
    )


@dataclass(frozen=True)
class Theorem2Report:
    """Census under condition (a) alone, for classification.

    It holds no verdict: the answer is the census, each of whose cycles
    ``classify_cycle`` labels (non-{1,2} cycles need not be fixed points; no
    shape claim is made).
    """

    params: Params
    n_max: int
    census: CycleCensus


def verify_theorem2(params: Params, n_max: int) -> Theorem2Report:
    """Census every cycle reachable from [1, n_max], for classification.

    Requires condition (a) only; otherwise raises PreconditionError.
    ``classify_cycle`` labels each census cycle as the universal {1, 2}
    cycle, a fixed point, the degenerate zero, or other.  Nothing is decided: the census counts each
    start of [0, max(B, n_max)] exactly once, or raises AbsorptionError.
    """
    _check_int("n_max", n_max, 1)
    if not check_a(params):
        raise PreconditionError(
            f"condition (a) fails for k={params.k}, p={params.p}", failed=("a",)
        )
    census = _census(params, n_max, transients=False)[0]
    return Theorem2Report(params=params, n_max=n_max, census=census)


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
        census, max_transient, witness = _census(params, n_max, transients=True)
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
        error = ": ".join(filter(None, (type(exc).__name__, str(exc))))  # bare: the name alone
        return SweepRow(k=k, p=p, theorem1_status=THEOREM1_ERROR, error=error)


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
        import multiprocessing  # here, so that only a pooled sweep loads it

        with multiprocessing.Pool(processes=workers) as pool:
            rows = pool.map(_sweep_cell, cells)
    else:
        rows = [_sweep_cell(cell) for cell in cells]
    return tuple(rows)
