"""The package's public names: one leaves ``__all__`` only with a CHANGES.md note."""

from __future__ import annotations

import zorbit

PUBLIC_NAMES = [
    "AbsorptionError",
    "BudgetExceededError",
    "CONGRUENCE",
    "Cycle",
    "CycleCensus",
    "CycleClassification",
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
