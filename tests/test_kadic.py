"""Digit decomposition: frozen examples, round-trips, and the addition law."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zorbit.errors import DigitDomainError, ParameterDomainError
from zorbit.kadic import KAdicDigits, MAX_BASE, digit_count, from_digits, to_digits

from oracles import long_add

bases = st.integers(min_value=2, max_value=10_000)
values = st.integers(min_value=0, max_value=10**40)


# -- frozen examples ---------------------------------------------------------


def test_to_digits_worked_example():
    # 123789 = 6*137**2 + 81*137 + 78, checked by repeated divmod
    assert tuple(to_digits(123789, 137)) == (78, 81, 6)


def test_to_digits_zero_is_empty():
    assert tuple(to_digits(0, 10)) == ()


def test_to_digits_two_digit_case():
    assert tuple(to_digits(6, 5)) == (1, 1)


def test_from_digits_worked_example():
    assert from_digits([78, 81, 6], 137) == 123789


def test_from_digits_empty_is_zero():
    assert from_digits([], 7) == 0


def test_from_digits_two_digit_case():
    assert from_digits([1, 1], 5) == 6


def test_from_digits_accepts_leading_zeros():
    assert from_digits([1, 1, 0, 0], 5) == 6


def test_digit_count_examples():
    assert digit_count(123789, 137) == 3  # 137**2 = 18769 <= 123789 < 137**3
    assert digit_count(0, 10) == 1
    assert digit_count(136, 137) == 1


# -- domain errors -----------------------------------------------------------


@pytest.mark.parametrize("bad_base", [1, 0, -3, MAX_BASE + 1])
def test_base_domain_rejected(bad_base):
    with pytest.raises(ParameterDomainError):
        to_digits(5, bad_base)
    with pytest.raises(ParameterDomainError):
        digit_count(5, bad_base)


def test_negative_value_rejected():
    with pytest.raises(ParameterDomainError):
        to_digits(-1, 10)
    with pytest.raises(ParameterDomainError):
        digit_count(-1, 10)


def test_from_digits_rejects_out_of_range_digit():
    with pytest.raises(DigitDomainError):
        from_digits([5], 5)
    with pytest.raises(DigitDomainError):
        from_digits([-1], 5)


@pytest.mark.parametrize(
    "digits, base, error",
    [
        ([3, 7, 1], 5, DigitDomainError),
        ([-1], 5, DigitDomainError),
        ([1, 2.0], 10, DigitDomainError),
        ([1, "1"], 10, DigitDomainError),
        ([1, 2], 1, ParameterDomainError),
        ([1], MAX_BASE + 1, ParameterDomainError),
        ([1], 10.0, ParameterDomainError),
    ],
)
def test_from_digits_raw_sequence_fails_as_the_vector_does(digits, base, error):
    with pytest.raises(error) as expected:
        KAdicDigits(base, digits)
    with pytest.raises(error, match=f"^{re.escape(str(expected.value))}$"):
        from_digits(digits, base)


def test_from_digits_requires_base_for_raw_sequences():
    with pytest.raises(ParameterDomainError):
        from_digits([1, 2])


def test_from_digits_rejects_conflicting_bases():
    vector = to_digits(42, 7)
    with pytest.raises(ParameterDomainError):
        from_digits(vector, 8)
    assert from_digits(vector, 7) == 42


def test_kadic_digits_validates_and_trims():
    vector = KAdicDigits(base=5, digits=(1, 1, 0, 0))
    assert vector.digits == (1, 1)
    assert len(vector) == 2
    assert list(vector) == [1, 1]
    assert vector[1] == 1
    with pytest.raises(DigitDomainError):
        KAdicDigits(base=5, digits=(6,))
    with pytest.raises(DigitDomainError):
        KAdicDigits(10, (10,))


@pytest.mark.parametrize(
    "n,k", [(0, 7), (42, 10), (10**400, 10), (7**2000 + 1, 7), (10**700, 2**32)]
)
def test_to_digits_builds_the_vector_the_checked_constructor_builds(n, k):
    # to_digits skips the constructor's per-digit check and trim
    vector = to_digits(n, k)
    assert vector == KAdicDigits(base=k, digits=vector.digits)
    assert hash(vector) == hash(KAdicDigits(base=k, digits=vector.digits))


def test_kadic_digits_trims_a_long_zero_tail():
    # one slice, not one per zero: slicing per zero was quadratic in the tail
    assert len(KAdicDigits(base=10, digits=(1,) + (0,) * 30_000)) == 1


def test_huge_value_round_trip():
    n = 10**120 + 12345
    assert from_digits(to_digits(n, 137)) == n


# -- properties --------------------------------------------------------------


@given(values, bases)
@settings(max_examples=300, deadline=None)
def test_round_trip(n, k):
    assert from_digits(to_digits(n, k)) == n


@given(st.integers(min_value=1, max_value=10**40), bases)
@settings(max_examples=300, deadline=None)
def test_canonical_no_leading_zero(n, k):
    digits = to_digits(n, k)
    assert digits.digits[-1] != 0


@given(st.integers(min_value=0, max_value=10**40), bases)
@settings(max_examples=300, deadline=None)
def test_digit_count_matches_length(n, k):
    expected = len(to_digits(n, k)) if n else 1
    assert digit_count(n, k) == expected


@given(values, values, bases)
@settings(max_examples=300, deadline=None)
def test_long_addition_matches_integer_addition(a, b, k):
    summed = long_add(list(to_digits(a, k)), list(to_digits(b, k)), k)
    assert from_digits(summed, k) == a + b


def test_long_addition_randomized_bulk():
    rng = random.Random(987123)
    for _ in range(2_000):
        k = rng.randrange(2, 5_000)
        a = rng.randrange(0, 10 ** rng.randrange(1, 25))
        b = rng.randrange(0, 10 ** rng.randrange(1, 25))
        assert from_digits(long_add(list(to_digits(a, k)), list(to_digits(b, k)), k), k) == a + b
