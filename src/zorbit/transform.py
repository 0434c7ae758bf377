"""The per-digit map, the digit-sum transform it induces, and orbits.

Writing a digit ``a = r*p + j`` with ``0 <= j < p``, the digit map sends
residue 1 up to ``(r+1)*(r+2)`` and every other residue class down:
``r`` for ``j = 0`` and ``r + 1`` otherwise.  Summing the map over the
base-k digits of ``n`` gives the transform; iterating the transform
gives orbits, which are always eventually periodic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    The equivalent quotient forms divide exactly; the assertions guard
    that no truncation ever happens.
    """
    _check_int("modulus", p, 2, word=True)
    _check_int("digit", a, 0)
    r, j = divmod(a, p)
    if j == 1:
        out = (r + 1) * (r + 2)
        assert (a + p - 1) * (a + 2 * p - 1) == out * p * p
        return out
    if j == 0:
        assert a == r * p
        return r
    out = r + 1
    assert a + p - j == out * p
    return out


def z_transform(n: int, params: Params) -> int:
    """Sum of the per-digit map over the base-k digits of ``n``.

    ``z_transform(0) == 0`` (empty digit sum).  The digit loop is inlined
    because this is the step of every ``orbit`` (the census engine sums a
    k-slot table of ``digit_step`` instead); it computes exactly
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
    seen = {n: 0}
    values = [n]
    current = n
    for _ in range(max_steps):
        current = z_transform(current, params)
        values.append(current)
        first = seen.get(current)
        if first is not None:
            return OrbitTrace(
                params=params,
                values=tuple(values),
                preperiod_length=first,
                cycle_length=len(values) - 1 - first,
            )
        seen[current] = len(values) - 1
    raise BudgetExceededError(
        f"no repeated value within {max_steps} steps starting from {_echo(n)}", values
    )
