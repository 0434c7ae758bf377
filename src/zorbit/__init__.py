"""Base-k digit-sum dynamics: exact transforms, cycle censuses, verifiers.

The package decomposes nonnegative integers into base-k digits, applies a
piecewise per-digit map keyed by residue classes mod p, and studies the
orbits of the induced digit-sum transform: their eventual cycles and fixed
points, the parameter conditions under which every positive orbit collapses
into the {1, 2} cycle, and machine-certified absorbing bounds that make the
whole analysis finite and exhaustively checkable.
"""

from .errors import (
    AbsorptionError,
    BudgetExceededError,
    DigitDomainError,
    ParameterDomainError,
    PreconditionError,
    ZorbitError,
)
from .kadic import KAdicDigits, digit_count, from_digits, to_digits
from .transform import DEFAULT_MAX_STEPS, OrbitTrace, Params, digit_step, orbit, z_transform
from .hypothesis import (
    CONGRUENCE,
    EQUALITY,
    HypothesisReport,
    check_a,
    check_all,
    check_b,
    check_c,
)
from .dynamics import (
    Cycle,
    CycleCensus,
    Lemma2Report,
    SweepRow,
    Theorem1Report,
    Theorem2Report,
    absorbing_bound,
    classify_cycle,
    cycle_census,
    fixed_points,
    max_digit_step,
    sweep,
    verify_lemma2,
    verify_theorem1,
    verify_theorem2,
    z_upper_bound,
)

__version__ = "0.1.0"

__all__ = [
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
