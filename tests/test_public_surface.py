"""The package's public names and the parameter names of its callables.

A name leaves ``__all__``, or a callable gains or drops a parameter, only
with a CHANGES.md note.
"""

from __future__ import annotations

import inspect

import zorbit

PUBLIC_NAMES = [
    "AbsorptionError",
    "BudgetExceededError",
    "CONGRUENCE",
    "Cycle",
    "CycleCensus",
    "DEFAULT_MAX_STEPS",
    "DigitDomainError",
    "EQUALITY",
    "HypothesisReport",
    "KAdicDigits",
    "Lemma2Report",
    "OrbitTrace",
    "ParameterDomainError",
    "Params",
    "PreconditionError",
    "SweepRow",
    "Theorem1Report",
    "Theorem2Report",
    "ZorbitError",
    "absorbing_bound",
    "check_a",
    "check_all",
    "check_b",
    "check_c",
    "classify_cycle",
    "cycle_census",
    "digit_count",
    "digit_step",
    "fixed_points",
    "from_digits",
    "max_digit_step",
    "orbit",
    "sweep",
    "to_digits",
    "verify_lemma2",
    "verify_theorem1",
    "verify_theorem2",
    "z_transform",
    "z_upper_bound",
]


def test_all_lists_exactly_the_public_names():
    assert zorbit.__all__ == PUBLIC_NAMES
    assert all(hasattr(zorbit, name) for name in PUBLIC_NAMES)

# None: an exception class that keeps the built-in Exception constructor,
# which has no signature to inspect.
PUBLIC_SIGNATURES = {
    "AbsorptionError": None,
    "BudgetExceededError": ("message", "partial"),
    "Cycle": ("values", "basin_size"),
    "CycleCensus": ("params", "absorbing_bound", "cycles", "scanned_range"),
    "DigitDomainError": None,
    "HypothesisReport": ("params", "a_holds", "b_holds", "b_violations", "c_holds", "c_violations"),
    "KAdicDigits": ("base", "digits"),
    "Lemma2Report": ("params", "peak"),
    "OrbitTrace": ("params", "values", "preperiod_length", "cycle_length"),
    "ParameterDomainError": None,
    "Params": ("k", "p"),
    "PreconditionError": ("message", "failed"),
    "SweepRow": (
        "k",
        "p",
        "skip_reason",
        "hypothesis",
        "absorbing_bound",
        "cycles",
        "theorem1_status",
        "max_transient",
        "error",
    ),
    "Theorem1Report": ("params", "n_max", "passed", "counterexample", "census"),
    "Theorem2Report": ("params", "n_max", "census"),
    "ZorbitError": None,
    "absorbing_bound": ("params",),
    "check_a": ("params",),
    "check_all": ("params",),
    "check_b": ("params",),
    "check_c": ("params",),
    "classify_cycle": ("cycle",),
    "cycle_census": ("params", "extra_range"),
    "digit_count": ("n", "k"),
    "digit_step": ("a", "p"),
    "fixed_points": ("params",),
    "from_digits": ("digits", "base"),
    "max_digit_step": ("params",),
    "orbit": ("n", "params", "max_steps"),
    "sweep": ("k_range", "p_range", "n_max", "jobs"),
    "to_digits": ("n", "k"),
    "verify_lemma2": ("params",),
    "verify_theorem1": ("params", "n_max"),
    "verify_theorem2": ("params", "n_max"),
    "z_transform": ("n", "params"),
    "z_upper_bound": ("m", "params"),
}


def _parameter_names(obj) -> tuple[str, ...] | None:
    try:
        return tuple(inspect.signature(obj).parameters)
    except ValueError:
        return None


def test_public_callables_keep_their_parameter_names():
    found = {
        name: _parameter_names(getattr(zorbit, name))
        for name in zorbit.__all__
        if callable(getattr(zorbit, name))
    }
    assert found == PUBLIC_SIGNATURES
