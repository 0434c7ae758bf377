"""Huge values: the divide-and-conquer digit split against per-digit oracles.

Every value ``to_digits`` decomposes goes through the one splitter,
``_leaf_chunks``: a value of at most the leaf size is its own single leaf,
a longer one is split into leaf chunks before any per-digit loop runs.
``digit_count`` is the length of ``to_digits``, and ``z_transform`` splits
values longer than the leaf size the same way.  The inputs straddle that
size and aim at the splitter's edges: powers ``k**m`` and their
neighbours at power-of-two ``m`` (where the squares ``k**(w * 2**i)`` it
divides by sit), and long runs of zero digits (zero halves that must be
padded, never trimmed, unless nothing nonzero lies above them).

The split's divisions recurse (``_div2n1n``) only above ``_DIV_LIMIT``
bits, past the values the oracles can afford, so the recursion is tested
with the limit lowered: against the builtin ``divmod`` on its own, and
through the digit and ``z`` properties once more.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from zorbit import kadic
from zorbit.kadic import _LEAF_BITS, _div2n1n, digit_count, from_digits, to_digits
from zorbit.transform import Params, z_transform

from oracles import digits_by_divmod, z_by_digit_sum

MAX_BITS = 6 * _LEAF_BITS  # a few split levels; the oracles are quadratic

bases = st.sampled_from([3, 10, 137, 4800, 2**32])
moduli = st.integers(min_value=2, max_value=60)


@st.composite
def across_leaf(draw) -> int:
    bits = draw(st.integers(min_value=_LEAF_BITS - 64, max_value=MAX_BITS))
    return draw(st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1))


@st.composite
def near_power(draw, k: int) -> int:
    top = (MAX_BITS // k.bit_length()).bit_length() - 1
    m = 1 << draw(st.integers(min_value=0, max_value=top))
    return k**m + draw(st.sampled_from([-1, 0, 1]))


@st.composite
def zero_runs(draw, k: int) -> int:
    """Few nonzero digits at scattered places, zeros everywhere else."""
    top = MAX_BITS // k.bit_length()
    places = draw(st.lists(st.integers(0, top), min_size=1, max_size=4, unique=True))
    return sum(draw(st.integers(1, k - 1)) * k**place for place in places)


def huge(k: int):
    return st.one_of(across_leaf(), near_power(k), zero_runs(k))


base_and_value = bases.flatmap(lambda k: st.tuples(st.just(k), huge(k)))


def check_digits(k: int, n: int) -> None:
    digits = to_digits(n, k)
    assert list(digits) == digits_by_divmod(n, k)
    assert from_digits(digits) == n
    assert digit_count(n, k) == len(digits_by_divmod(n, k))


@given(base_and_value)
@settings(max_examples=300, deadline=None)
def test_to_digits_matches_divmod_oracle(case):
    check_digits(*case)


@given(base_and_value, moduli)
@settings(max_examples=300, deadline=None)
def test_z_transform_matches_digit_sum_oracle(case, p):
    k, n = case
    assert z_transform(n, Params(k, p)) == z_by_digit_sum(n, k, p)


# -- the recursive division ---------------------------------------------------

LOW_LIMIT = 64  # every division of the properties above recurses a few levels


def low_limit():
    return mock.patch.object(kadic, "_DIV_LIMIT", LOW_LIMIT)


@st.composite
def division(draw) -> tuple[int, int, int]:
    """``(a, b, n)`` with ``b`` of exactly ``n`` bits and ``0 <= a < b << n``."""
    n = draw(st.integers(min_value=LOW_LIMIT + 1, max_value=40 * LOW_LIMIT))
    low, high = 1 << (n - 1), (1 << n) - 1
    b = draw(st.one_of(st.just(low), st.just(high), st.integers(low, high)))
    top = (b << n) - 1
    # Quotients near 2**n make the top half-blocks of a and b equal.
    a = draw(st.one_of(st.just(top), st.integers(0, top), st.integers(top - b, top)))
    return a, b, n


@given(division())
# The largest a over an all-ones b: the top half-blocks of a and b are equal.
@example((((2**1024 - 1) << 1024) - 1, 2**1024 - 1, 1024))
# The largest a over a power of two (b2 = 0) of odd length: a and b are padded.
@example(((2**1000 << 1001) - 1, 2**1000, 1001))
# The quotient estimate overshoots, and an odd length deeper down pads.
@example((3**1400 % (3**701 << 1112), 3**701, 1112))
# All three: padding, equal top half-blocks and the correction.
@example((((2**600 + 2**300 - 1) << 601) - 2**599, 2**600 + 2**300 - 1, 601))
@settings(max_examples=300, deadline=None)
def test_div2n1n_matches_builtin_divmod(case):
    a, b, n = case
    with low_limit():
        assert _div2n1n(a, b, n) == divmod(a, b)


@given(base_and_value)
@settings(max_examples=300, deadline=None)
def test_to_digits_matches_divmod_oracle_through_the_recursion(case):
    with low_limit():
        check_digits(*case)


@given(base_and_value, moduli)
@settings(max_examples=300, deadline=None)
def test_z_transform_matches_digit_sum_oracle_through_the_recursion(case, p):
    k, n = case
    with low_limit():
        assert z_transform(n, Params(k, p)) == z_by_digit_sum(n, k, p)
