"""Parameter screening: three conditions gating total orbit collapse.

Condition (a) is a window tying the base to the modulus.  Conditions (b)
and (c) exclude the small quotients whose expanded digit image could
recreate an earlier value; both scan every nonnegative q with q*q < k,
using integer arithmetic only.  ``check_all`` bundles the verdicts with
explicit witnesses for every violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .transform import Params, _check_params

CONGRUENCE = "congruence"
EQUALITY = "equality"


def _q_limit(k: int) -> int:
    # largest q with q*q < k; strict, so a perfect-square root is excluded
    return isqrt(k - 1)


def check_a(params: Params) -> bool:
    """Window condition: p >= 3 and 2p - 1 <= k <= 3p**2."""
    _check_params(params)
    k, p = params.k, params.p
    return p >= 3 and 2 * p - 1 <= k <= 3 * p * p


def check_b(params: Params) -> tuple[bool, tuple[int, ...]]:
    """Hunt q with q*q < k and (q+1)(q+2) = -1 (mod p); holds iff none.

    Returns (verdict, violating q values); residues are compared on the
    nonnegative canonical representative p - 1.
    """
    _check_params(params)
    k, p = params.k, params.p
    bad = tuple(q for q in range(_q_limit(k) + 1) if (q + 1) * (q + 2) % p == p - 1)
    return not bad, bad


def check_c(params: Params) -> tuple[bool, tuple[tuple[int, str], ...]]:
    """Hunt q with q*q < k violating either exclusion against k itself.

    Records ``(q, "congruence")`` when (q+1)(q+2) = k (mod p) and
    ``(q, "equality")`` when k = (q+1)(q+2) - 1 - q*p, the latter
    evaluated over the integers (a negative right side simply never
    matches).  Holds iff nothing is recorded.
    """
    _check_params(params)
    k, p = params.k, params.p
    k_residue = k % p
    found: list[tuple[int, str]] = []
    for q in range(_q_limit(k) + 1):
        product = (q + 1) * (q + 2)
        if product % p == k_residue:
            found.append((q, CONGRUENCE))
        if k == product - 1 - q * p:
            found.append((q, EQUALITY))
    return not found, tuple(found)


@dataclass(frozen=True)
class HypothesisReport:
    """Joint verdict of conditions (a), (b), (c) with violation witnesses."""

    params: Params
    a_holds: bool
    b_holds: bool
    b_violations: tuple[int, ...]
    c_holds: bool
    c_violations: tuple[tuple[int, str], ...]

    @property
    def satisfied(self) -> bool:
        return self.a_holds and self.b_holds and self.c_holds

    @property
    def failed_conditions(self) -> tuple[str, ...]:
        flags = (("a", self.a_holds), ("b", self.b_holds), ("c", self.c_holds))
        return tuple(name for name, ok in flags if not ok)


def check_all(params: Params) -> HypothesisReport:
    """Evaluate all three conditions for one parameter pair."""
    b_ok, b_bad = check_b(params)
    c_ok, c_bad = check_c(params)
    return HypothesisReport(
        params=params,
        a_holds=check_a(params),
        b_holds=b_ok,
        b_violations=b_bad,
        c_holds=c_ok,
        c_violations=c_bad,
    )
