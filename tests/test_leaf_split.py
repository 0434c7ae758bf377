"""Huge values: the divide-and-conquer digit split against per-digit oracles.

``to_digits``, ``digit_count`` and ``z_transform`` split values longer
than the leaf size into leaf chunks before any per-digit loop runs.  The inputs straddle
that size and aim at the splitter's edges: powers ``k**m`` and their
neighbours at power-of-two ``m`` (where the squares ``k**(w * 2**i)`` it
divides by sit), and long runs of zero digits (zero halves that must be
padded, never trimmed, unless nothing nonzero lies above them).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from zorbit.kadic import _LEAF_BITS, digit_count, from_digits, to_digits
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


@given(base_and_value)
@settings(max_examples=300, deadline=None)
def test_to_digits_matches_divmod_oracle(case):
    k, n = case
    digits = to_digits(n, k)
    assert list(digits) == digits_by_divmod(n, k)
    assert from_digits(digits) == n
    assert digit_count(n, k) == len(digits_by_divmod(n, k))


@given(base_and_value, moduli)
@settings(max_examples=300, deadline=None)
def test_z_transform_matches_digit_sum_oracle(case, p):
    k, n = case
    assert z_transform(n, Params(k, p)) == z_by_digit_sum(n, k, p)
