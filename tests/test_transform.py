"""Digit map, transform, and orbit behaviour against independent oracles."""

from __future__ import annotations

import inspect
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zorbit
from zorbit.dynamics import cycle_census, sweep, verify_theorem1, verify_theorem2, z_upper_bound
from zorbit.errors import BudgetExceededError, DigitDomainError, ParameterDomainError
from zorbit.kadic import MAX_BASE, KAdicDigits, digit_count, from_digits, to_digits
from zorbit.transform import DEFAULT_MAX_STEPS, Params, digit_step, orbit, z_transform

from oracles import digit_map_by_formula, naive_orbit, z_by_digit_sum

moduli = st.integers(min_value=2, max_value=1_000)
digits_any = st.integers(min_value=0, max_value=10**9)


# -- Params ------------------------------------------------------------------


@pytest.mark.parametrize(
    "k,p,t,s",
    [
        (137, 11, 12, 4),
        (5, 3, 1, 1),
        (10, 5, 1, 4),
        (7, 3, 1, 3),  # k-1 divisible by p forces s = p
        (13, 3, 3, 3),
        (3, 29, 0, 2),  # modulus above the base is fine
    ],
)
def test_params_split(k, p, t, s):
    params = Params(k, p)
    assert (params.t, params.s) == (t, s)
    assert params.k == params.t * params.p + params.s + 1
    assert 1 <= params.s <= params.p


@pytest.mark.parametrize("k,p", [(2, 5), (1, 2), (5, 1), (MAX_BASE + 1, 3), (5, MAX_BASE + 1)])
def test_params_domain_rejected(k, p):
    with pytest.raises(ParameterDomainError):
        Params(k, p)


# Exact arithmetic needs integer bases, moduli and digits: a float or a
# Fraction must raise, never flow through divmod into a float answer.
NON_INTEGER_CALLS = {
    "Params k": (lambda: Params(137.0, 11), ParameterDomainError),
    "Params p": (lambda: Params(137, 11.0), ParameterDomainError),
    "to_digits base": (lambda: to_digits(10, 3.0), ParameterDomainError),
    "to_digits value": (lambda: to_digits(Fraction(10), 3), ParameterDomainError),
    "digit_count base": (lambda: digit_count(10, 3.0), ParameterDomainError),
    "digit_step digit": (lambda: digit_step(6.0, 5), ParameterDomainError),
    "digit_step modulus": (lambda: digit_step(6, 5.0), ParameterDomainError),
    "from_digits base": (lambda: from_digits([1, 2], 10.0), ParameterDomainError),
    "from_digits digit": (lambda: from_digits([1.5], 10), DigitDomainError),
    "from_digits long": (lambda: from_digits([1] * 999 + [2.0], 10), DigitDomainError),
    "KAdicDigits digit": (lambda: KAdicDigits(10, (Fraction(3),)), DigitDomainError),
    "orbit float start": (lambda: orbit(5.0, Params(10, 5)), ParameterDomainError),
    "orbit str start": (lambda: orbit("5", Params(10, 5)), ParameterDomainError),
    "orbit max_steps": (lambda: orbit(5, Params(10, 5), max_steps=2.5), ParameterDomainError),
    "cycle_census extra_range": (lambda: cycle_census(Params(10, 5), 20.5), ParameterDomainError),
    "verify_theorem1 n_max": (
        lambda: verify_theorem1(Params(137, 11), 100.5),
        ParameterDomainError,
    ),
    "verify_theorem2 n_max": (lambda: verify_theorem2(Params(10, 5), 100.5), ParameterDomainError),
    "sweep n_max": (lambda: sweep((5, 6), (3, 4), 10.5), ParameterDomainError),
    "sweep jobs": (lambda: sweep((5, 6), (3, 4), 10, jobs=1.5), ParameterDomainError),
    "sweep k_range": (lambda: sweep((5.0, 6), (3, 4), 10), ParameterDomainError),
    "z_upper_bound": (lambda: z_upper_bound(2.5, Params(10, 5)), ParameterDomainError),
}


@pytest.mark.parametrize("call", sorted(NON_INTEGER_CALLS))
def test_non_integer_inputs_rejected(call):
    make, error = NON_INTEGER_CALLS[call]
    with pytest.raises(error):
        make()


# A 5 000-digit argument is past the interpreter's default int/str cap of
# 4 300 digits, so a message that echoes it in decimal would itself raise.
HUGE = 10**5_000
HUGE_VALUE_CALLS = {
    "Params k": (lambda: Params(HUGE, 3), ParameterDomainError),
    "Params p": (lambda: Params(10, HUGE), ParameterDomainError),
    "to_digits base": (lambda: to_digits(5, HUGE), ParameterDomainError),
    "to_digits value": (lambda: to_digits(-HUGE, 10), ParameterDomainError),
    "to_digits Fraction": (lambda: to_digits(Fraction(HUGE, 3), 10), ParameterDomainError),
    "digit_step modulus": (lambda: digit_step(3, HUGE), ParameterDomainError),
    "from_digits digit": (lambda: from_digits([HUGE], 10), DigitDomainError),
    "from_digits base": (
        lambda: from_digits(KAdicDigits(10, (1,)), HUGE),
        ParameterDomainError,
    ),
    "z_transform start": (lambda: z_transform(-HUGE, Params(10, 5)), ParameterDomainError),
    "orbit start": (lambda: orbit(-HUGE, Params(10, 5)), ParameterDomainError),
    "orbit budget": (lambda: orbit(HUGE, Params(10, 5), max_steps=1), BudgetExceededError),
    "verify_theorem1 n_max": (
        lambda: verify_theorem1(Params(137, 11), -HUGE),
        ParameterDomainError,
    ),
    "orbit long str start": (lambda: orbit("x" * 100_000, Params(10, 5)), ParameterDomainError),
}


@pytest.fixture
def default_digit_cap():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit cap")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4_300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("call", sorted(HUGE_VALUE_CALLS))
def test_huge_values_get_typed_errors_with_short_messages(call, default_digit_cap):
    make, error = HUGE_VALUE_CALLS[call]
    with pytest.raises(error) as caught:
        make()
    assert len(str(caught.value).encode()) < 200


# Every public function taking ``params`` rejects a value that is not a
# Params with the typed error, not the AttributeError of a missing field.
TAKES_PARAMS = sorted(
    name
    for name in zorbit.__all__
    if inspect.isfunction(getattr(zorbit, name))
    and "params" in inspect.signature(getattr(zorbit, name)).parameters
)
OTHER_ARGUMENTS = {"n": 5, "m": 3, "n_max": 10}


def test_takes_params_lists_every_layer():
    layers = {"check_all", "cycle_census", "orbit", "verify_lemma2", "z_transform"}
    assert layers <= set(TAKES_PARAMS)


@pytest.mark.parametrize("name", TAKES_PARAMS)
@pytest.mark.parametrize("params", [None, (10, 5)])
def test_non_params_rejected(name, params):
    function = getattr(zorbit, name)
    required = [
        arg
        for arg, spec in inspect.signature(function).parameters.items()
        if arg != "params" and spec.default is spec.empty
    ]
    with pytest.raises(ParameterDomainError, match="params must be a Params"):
        function(params=params, **{arg: OTHER_ARGUMENTS[arg] for arg in required})


def test_bools_are_integers():
    assert tuple(to_digits(True, 3)) == (1,)
    assert from_digits([True, False, True], 2) == 5
    assert digit_step(True, 5) == 2


# -- digit_step --------------------------------------------------------------


def test_digit_step_frozen_examples():
    assert digit_step(78, 11) == 72  # 78 = 7*11 + 1 -> 8*9
    assert digit_step(0, 2) == 0
    assert digit_step(0, 97) == 0
    assert digit_step(1, 3) == 2
    assert digit_step(2, 3) == 1
    assert digit_step(6, 5) == 6  # the fixed digit behind the k=10, p=5 fixed point


def test_digit_step_total_beyond_base():
    # accepts any nonnegative argument, not only digits below some base
    assert digit_step(10**12 + 1, 10**6) == (10**6 + 1) * (10**6 + 2)


def test_digit_step_domain_errors():
    with pytest.raises(ParameterDomainError):
        digit_step(3, 1)
    with pytest.raises(ParameterDomainError):
        digit_step(-1, 5)


@given(digits_any, moduli)
@settings(max_examples=500, deadline=None)
def test_digit_step_matches_quotient_formulas(a, p):
    assert digit_step(a, p) == digit_map_by_formula(a, p)


@given(digits_any, moduli)
@settings(max_examples=300, deadline=None)
def test_exact_divisibility(a, p):
    # residue 1 digits divide by p*p exactly; everything else by p exactly
    j = a % p
    if j == 1:
        assert (a + p - 1) * (a + 2 * p - 1) % (p * p) == 0
    else:
        assert (a + (p - j) % p) % p == 0


# -- z_transform -------------------------------------------------------------


def test_z_transform_frozen_examples():
    assert z_transform(123789, Params(137, 11)) == 81
    assert z_transform(6, Params(5, 3)) == 4
    assert z_transform(0, Params(19, 7)) == 0


@pytest.mark.parametrize("k,p", [(3, 2), (5, 3), (10, 5), (137, 11), (1000, 7), (3, 1000)])
def test_universal_two_cycle(k, p):
    params = Params(k, p)
    assert z_transform(1, params) == 2
    assert z_transform(2, params) == 1


@given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=3, max_value=2_000), moduli)
@settings(max_examples=400, deadline=None)
def test_z_transform_matches_digit_sum_oracle(n, k, p):
    params = Params(k, p)
    assert z_transform(n, params) == z_by_digit_sum(n, k, p)
    assert z_transform(n, params) == sum(digit_step(a, p) for a in to_digits(n, k))


@pytest.mark.parametrize("k,p", [(5, 3), (10, 5), (137, 11), (9, 4)])
def test_single_digit_agreement(k, p):
    params = Params(k, p)
    for n in range(k):
        assert z_transform(n, params) == digit_step(n, p)


@pytest.mark.parametrize("k,p", [(5, 3), (10, 5), (137, 11), (50, 7), (3, 2)])
def test_non_unit_residue_contraction(k, p):
    params = Params(k, p)
    for n in range(2, k):
        if n % p != 1:
            assert z_transform(n, params) < n


def test_negative_value_rejected():
    with pytest.raises(ParameterDomainError):
        z_transform(-1, Params(5, 3))


# -- orbit -------------------------------------------------------------------


def test_orbit_worked_example():
    trace = orbit(123789, Params(137, 11))
    assert trace.values == (123789, 81, 8, 1, 2, 1)
    assert trace.preperiod_length == 3
    assert trace.cycle_length == 2
    assert trace.cycle == (1, 2)


def test_orbit_fixed_point():
    trace = orbit(6, Params(10, 5))
    assert trace.values == (6, 6)
    assert (trace.preperiod_length, trace.cycle_length) == (0, 1)


def test_orbit_two_cycles():
    trace = orbit(4, Params(5, 3))
    assert trace.values == (4, 6, 4)
    assert (trace.preperiod_length, trace.cycle_length) == (0, 2)
    trace = orbit(2, Params(5, 3))
    assert trace.values == (2, 1, 2)
    assert (trace.preperiod_length, trace.cycle_length) == (0, 2)


def test_orbit_zero():
    trace = orbit(0, Params(10, 5))
    assert trace.values == (0, 0)
    assert (trace.preperiod_length, trace.cycle_length) == (0, 1)


def test_orbit_budget_error_carries_partial_trace():
    with pytest.raises(BudgetExceededError) as info:
        orbit(123789, Params(137, 11), max_steps=2)
    assert info.value.partial == (123789, 81, 8)


def test_orbit_rejects_bad_budget():
    with pytest.raises(ParameterDomainError):
        orbit(5, Params(5, 3), max_steps=0)


def test_orbit_default_budget_constant():
    assert DEFAULT_MAX_STEPS == 10_000


def test_orbit_invariants_and_minimality_random():
    rng = random.Random(424242)
    for _ in range(300):
        k = rng.randrange(3, 500)
        p = rng.randrange(2, 100)
        n = rng.randrange(0, 10**9)
        params = Params(k, p)
        trace = orbit(n, params)
        values, lam, cycle_length = naive_orbit(n, k, p)
        assert list(trace.values) == values
        assert trace.preperiod_length == lam
        assert trace.cycle_length == cycle_length
        # consecutive pairs really are transform steps, repeat closes the cycle
        for a, b in zip(trace.values, trace.values[1:]):
            assert z_transform(a, params) == b
        end = lam + cycle_length
        assert trace.values[end] == trace.values[lam]
        assert len(set(trace.values[:end])) == end
