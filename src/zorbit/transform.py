"""The per-digit map, the digit-sum transform it induces, and orbits.

Writing a digit ``a = r*p + j`` with ``0 <= j < p``, the digit map sends
residue 1 up to ``(r+1)*(r+2)`` and every other residue class down:
``r`` for ``j = 0`` and ``r + 1`` otherwise.  Summing the map over the
base-k digits of ``n`` gives the transform; iterating the transform
gives orbits, which are always eventually periodic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice, repeat

from .errors import BudgetExceededError, ParameterDomainError, _check_int, _echo
from .kadic import _LEAF_BITS, _leaf_chunks

DEFAULT_MAX_STEPS = 10_000


@dataclass(frozen=True)
class Params:
    """Base/modulus pair with the derived split k = t*p + s + 1, 1 <= s <= p.

    The split is unique and ``t`` caps the per-digit map: no digit below
    ``k`` maps above ``(t+1)*(t+2)``.  Minimum domain: k >= 3 (so the
    digits 1 and 2 both exist) and p >= 2; both at most 2**32.
    """

    k: int
    p: int
    t: int = field(init=False)
    s: int = field(init=False)

    def __post_init__(self) -> None:
        _check_int("base k", self.k, 3, word=True)
        _check_int("modulus", self.p, 2, word=True)
        t, s = divmod(self.k - 1, self.p)
        if s == 0:
            t, s = t - 1, self.p
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "s", s)


def _check_params(params) -> None:
    """Raise ParameterDomainError unless ``params`` is a Params."""
    if not isinstance(params, Params):
        raise ParameterDomainError(f"params must be a Params, got {_echo(params)}")


def digit_step(a: int, p: int) -> int:
    """Apply the per-digit map to ``a`` for modulus ``p``.

    Total for every a >= 0 (not only a < k); with a = r*p + j:
    returns (r+1)*(r+2) if j == 1, r if j == 0, and r + 1 otherwise.
    """
    _check_int("modulus", p, 2, word=True)
    _check_int("digit", a, 0)
    r, j = divmod(a, p)
    if j == 1:
        return (r + 1) * (r + 2)
    if j == 0:
        return r
    return r + 1


def _digit_table(k: int, p: int) -> tuple[int, ...]:
    """``tuple(digit_step(a, p) for a in range(k))`` in closed form (k >= 1 and
    p >= 2 unchecked): block r of p digits is [r, (r+1)*(r+2), r+1, ..., r+1],
    cut to k.  No more than k entries are built, whatever p, and a block's
    r + 1 entries share one int.
    """
    blocks = -(-k // p)  # the last one may be cut
    table = list(islice(chain.from_iterable(map(repeat, range(1, blocks + 1), repeat(p))), k))
    table[::p] = range(blocks)
    table[1::p] = [(r + 1) * (r + 2) for r in range(len(range(1, k, p)))]
    return tuple(table)


def z_transform(n: int, params: Params) -> int:
    """Sum of the per-digit map over the base-k digits of ``n``.

    ``z_transform(0) == 0`` (empty digit sum).  The digit loop is inlined
    because this is the step of every ``orbit`` (a census builds its k-entry
    table once, by ``_digit_table``, and sums that instead); it computes exactly
    sum(digit_step(a, p) for a in to_digits(n, k)).  Values longer than the
    leaf size are first split into leaf chunks, as in ``to_digits``, so a
    huge ``n`` costs a few big divisions, not one divmod per digit.
    """
    if n < 0:  # the hot path tests only the sign; the checks word the errors
        _check_int("value", n, 0)
    try:
        k, p = params.k, params.p
    except AttributeError:
        _check_params(params)
        raise
    if n.bit_length() > _LEAF_BITS:
        # Exact because the digit 0 maps to 0: z(hi*k**w + lo) = z(hi) + z(lo).
        return sum(z_transform(chunk, params) for chunk, _ in _leaf_chunks(n, k))
    total = 0
    while n:
        n, a = divmod(n, k)
        r, j = divmod(a, p)
        if j == 1:
            total += (r + 1) * (r + 2)
        elif j == 0:
            total += r
        else:
            total += r + 1
    return total


@dataclass(frozen=True)
class OrbitTrace:
    """A transform orbit up to and including its first repeated value.

    ``values[preperiod_length]`` is the first value belonging to the
    eventual cycle; the final entry is the first repeat and equals it.
    All entries before the final one are pairwise distinct, which makes
    both ``preperiod_length`` and ``cycle_length`` minimal.
    """

    params: Params
    values: tuple[int, ...]
    preperiod_length: int
    cycle_length: int

    @property
    def cycle(self) -> tuple[int, ...]:
        lam = self.preperiod_length
        return self.values[lam : lam + self.cycle_length]


def orbit(n: int, params: Params, max_steps: int = DEFAULT_MAX_STEPS) -> OrbitTrace:
    """Iterate the transform from ``n`` until the first repeated value.

    Keeps a value -> index map over the trace (orbits collapse into a
    small absorbing set within a few steps, so the trace stays short) and
    reads the minimal preperiod and cycle length straight off the map.

    Raises BudgetExceededError carrying the partial trace if no repeat
    shows up within ``max_steps`` transform applications.
    """
    _check_int("max_steps", max_steps, 1)
    _check_int("value", n, 0)
    seen = {n: 0}  # its insertion order is the trace
    current = n
    for step in range(1, max_steps + 1):
        current = z_transform(current, params)
        first = seen.get(current)
        if first is not None:
            return OrbitTrace(
                params=params,
                values=(*seen, current),
                preperiod_length=first,
                cycle_length=step - first,
            )
        seen[current] = step
    raise BudgetExceededError(
        f"no repeated value within {max_steps} steps starting from {_echo(n)}", seen
    )
