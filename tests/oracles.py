"""Independent brute-force reference implementations used only by tests.

These deliberately take different arithmetic routes than the library
(quotient formulas instead of residue branches, list scans instead of
index maps, per-start orbits instead of memoized graph traversal) so that
agreement is evidence, not tautology.
"""

from __future__ import annotations

import random


def digit_map_by_formula(a: int, p: int) -> int:
    """Per-digit map via the literal quotient formulas with exactness checks.

    ``digit_step`` takes the residue route and checks no quotient form itself;
    the tests compare it with this quotient route.
    """
    j = a % p
    if j == 1:
        numerator = (a + p - 1) * (a + 2 * p - 1)
        assert numerator % (p * p) == 0
        return numerator // (p * p)
    numerator = a + (p - j) % p
    assert numerator % p == 0
    return numerator // p


def z_by_digit_sum(n: int, k: int, p: int) -> int:
    """Digit-sum transform built on the formula route."""
    total = 0
    while n:
        n, a = divmod(n, k)
        total += digit_map_by_formula(a, p)
    return total


def digits_by_divmod(n: int, k: int) -> list[int]:
    """Little-endian base-k digits, one divmod per digit (empty for 0)."""
    digits = []
    while n:
        n, d = divmod(n, k)
        digits.append(d)
    return digits


def naive_orbit(n: int, k: int, p: int, max_steps: int = 10_000):
    """Seen-set orbit detection: list scan locates the first repeat.

    Returns (values, preperiod, cycle_length).
    """
    return _orbit_by_seen_set(n, lambda m: z_by_digit_sum(m, k, p), max_steps)


def orbit_by_table(n: int, k: int, table, max_steps: int = 10_000):
    """``naive_orbit`` for any digit map: n -> sum of table[a] over the base-k
    digits a of n, split one divmod at a time."""
    return _orbit_by_seen_set(n, lambda m: sum(table[a] for a in digits_by_divmod(m, k)), max_steps)


def _orbit_by_seen_set(n: int, step, max_steps: int):
    values = [n]
    seen = {n}
    for _ in range(max_steps):
        n = step(n)
        values.append(n)
        if n in seen:
            lam = values.index(n)
            return values, lam, len(values) - 1 - lam
        seen.add(n)
    raise AssertionError(f"no repeat within {max_steps} steps")


def canonical_cycle(values, lam, cycle_length) -> tuple[int, ...]:
    cyc = values[lam : lam + cycle_length]
    pivot = cyc.index(min(cyc))
    return tuple(cyc[pivot:] + cyc[:pivot])


def cycles_by_independent_orbits(k: int, p: int, bound: int) -> set[tuple[int, ...]]:
    """All cycles found by running the naive orbit from every start in [0, bound]."""
    found = set()
    for n in range(bound + 1):
        values, lam, cycle_length = naive_orbit(n, k, p)
        found.add(canonical_cycle(values, lam, cycle_length))
    return found


def lemma2_violations_by_sampling(
    k: int, p: int, m_max: int, samples: int, seed: int
) -> tuple[int, list[tuple[int, int, int]]]:
    """Sample the digit shrink z(n) < k**(m-1) for each m in [3, m_max].

    Per m: ``samples`` draws from [k**(m-1), k**m) by ``random.Random(seed)``,
    then all digits k - 1, then all digits t*p + 1 (the digit with the
    largest image).  Returns the count checked and every ``(m, n, z(n))``
    that failed to shrink.
    """
    rng = random.Random(seed)
    heaviest = (k - 2) // p * p + 1  # k = t*p + s + 1 with 1 <= s <= p
    checked = 0
    violations = []
    for m in range(3, m_max + 1):
        lo, hi = k ** (m - 1), k**m
        batch = [rng.randrange(lo, hi) for _ in range(samples)]
        batch.append(hi - 1)
        batch.append(sum(heaviest * k**i for i in range(m)))
        for n in batch:
            image = z_by_digit_sum(n, k, p)
            checked += 1
            if image >= lo:
                violations.append((m, n, image))
    return checked, violations


def hypothesis_b_by_loop(k: int, p: int) -> list[int]:
    """Literal restatement: loop q from 0 while q*q < k."""
    bad = []
    q = 0
    while q * q < k:
        if ((q + 1) * (q + 2)) % p == p - 1:
            bad.append(q)
        q += 1
    return bad


def hypothesis_c_by_loop(k: int, p: int) -> list[tuple[int, str]]:
    """Literal restatement of both exclusion clauses."""
    bad = []
    q = 0
    while q * q < k:
        product = (q + 1) * (q + 2)
        if product % p == k % p:
            bad.append((q, "congruence"))
        if k == product - 1 - q * p:
            bad.append((q, "equality"))
        q += 1
    return bad


def long_add(xs, ys, k: int) -> list[int]:
    """Base-k long addition: digit-wise add with carry, little-endian."""
    out = []
    carry = 0
    for i in range(max(len(xs), len(ys))):
        total = carry
        if i < len(xs):
            total += xs[i]
        if i < len(ys):
            total += ys[i]
        carry, digit = divmod(total, k)
        out.append(digit)
    while carry:
        carry, digit = divmod(carry, k)
        out.append(digit)
    return out
