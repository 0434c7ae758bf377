"""Exact positional base-k digit decomposition of nonnegative integers.

Digits are stored little-endian: ``digits[i]`` is the coefficient of
``base**i``.  Zero is canonically the empty digit vector; ``digit_count``
still reports one digit so a displayed zero has width 1.  Decomposed
values may be arbitrarily large Python ints; bases must fit a machine
word so that every per-digit product downstream stays within 128 bits.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Set
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .errors import MAX_BASE, DigitDomainError, ParameterDomainError, _check_int, _echo


# Values longer than this many bits are split into leaf chunks of at most
# this many bits before any per-digit loop runs.  Peeling one digit per
# divmod costs time linear in the value's length, so the loop is quadratic
# overall.  Measured on CPython 3.11 (x86-64): splitting first is
# break-even just above 1 kbit and 10-20x faster at 3*10**4 digits; 512-bit
# leaves were up to 15 % faster at that size but up to 25 % slower than
# the plain loop just above 512 bits.  The split's big divisions recurse
# (``_div2n1n``), so a huge value costs a few Karatsuba multiplications of
# its size, not the schoolbook divmod's quadratic time: a 10**6-digit
# decimal value splits into base-137 digits in 1.6 s instead of 10.6 s.
_LEAF_BITS = 1024

# Quotients of at most this many bits go to the builtin divmod.  Measured
# on the same host over starts of 10**3 to 3*10**4 digits, the split time
# barely moved between 1 000 and 4 000 bits and grew by half at 16 000;
# CPython 3.12's ``_pylong`` uses the same cut-over.
_DIV_LIMIT = 4000


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """``divmod(a, b)`` for ``b`` of exactly ``n`` bits and ``0 <= a < b << n``.

    Burnikel and Ziegler's recursive division (Fast Recursive Division,
    MPI-I-98-1-022, 1998), as in CPython 3.12's ``_pylong.int_divmod``:
    two divisions of 3 half-blocks by 2, each one of half the size.
    """
    if a.bit_length() - n <= _DIV_LIMIT:
        return divmod(a, b)
    pad = n & 1
    if pad:
        a, b, n = a << 1, b << 1, n + 1
    half = n >> 1
    mask = (1 << half) - 1
    b1, b2 = b >> half, b & mask
    q1, r = _div3n2n(a >> n, (a >> half) & mask, b, b1, b2, half)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, half)
    return q1 << half | q2, r >> pad


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, n: int) -> tuple[int, int]:
    """Divide ``a12 << n | a3`` by ``b = b1 << n | b2``; the quotient is below ``2**n``."""
    if a12 >> n == b1:
        q, r = (1 << n) - 1, a12 - (b1 << n) + b1
    else:
        q, r = _div2n1n(a12, b1, n)
    r = (r << n | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


def _leaf_chunks(n: int, k: int) -> Iterator[tuple[int, int]]:
    """Split any ``n >= 0`` into base-``k`` leaf chunks, least significant first.

    Yields ``(chunk, width)`` pairs: the chunk's digits, padded with zeros
    to ``width`` digits, are the next digits of ``n``.  The top chunk has
    width 0 (never padded), so no trailing zero digits appear; every chunk
    is below ``2**_LEAF_BITS``.  A value of at most ``_LEAF_BITS`` bits,
    zero included, is the single top leaf ``(n, 0)``.  A longer one is
    divided by the repeated squares ``P_i = k**(w * 2**i)``, built once per
    call, keeping ``x < P_i**2`` at each node so both halves are below
    ``P_i``; a zero half below a nonzero one is yielded at once as a zero
    chunk of the half's full width.  ``x < P_i**2`` is the precondition
    ``x < P_i << n`` of ``_div2n1n`` with ``n`` the bit length of ``P_i``,
    so each division costs a few Karatsuba multiplications of its size,
    not the quadratic time of the builtin divmod on CPython 3.11.
    """
    if n.bit_length() <= _LEAF_BITS:
        yield n, 0
        return
    width = max(1, _LEAF_BITS // k.bit_length())
    powers = [k**width]
    # P**2 >= 2**(2 * P.bit_length() - 2) > n ends the chain.
    while 2 * powers[-1].bit_length() - 2 < n.bit_length():
        powers.append(powers[-1] * powers[-1])
    # An explicit stack, not recursion: each node is dropped as soon as it
    # is divided, which keeps the allocator's heap from growing call by call.
    pending = [(n, len(powers) - 1, 0)]
    while pending:
        x, i, pad = pending.pop()
        if i < 0 or not x:
            yield x, pad
            continue
        power = powers[i]
        hi, lo = _div2n1n(x, power, power.bit_length())
        half = width << i
        if hi or pad:
            pending.append((hi, i - 1, pad and half))
        pending.append((lo, i - 1, half if hi or pad else 0))


@dataclass(frozen=True)
class KAdicDigits:
    """Canonical little-endian digit vector of a nonnegative integer.

    Attributes:
        base: the radix, between 2 and 2**32.
        digits: tuple with ``digits[i]`` multiplying ``base**i``.  Trailing
            (most-significant) zeros are trimmed on construction, so zero
            is represented by the empty tuple.
    """

    base: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        base = self.base
        _check_int("base", base, 2, word=True)
        digits = self.digits
        if isinstance(digits, (Set, Mapping)) or not isinstance(digits, Iterable):
            raise ParameterDomainError(f"digits must be an ordered sequence, got {_echo(digits)}")
        digits = tuple(digits)
        for d in digits:
            if not (isinstance(d, int) and 0 <= d < base):
                raise DigitDomainError(f"digit {_echo(d)} is not an integer in [0, {base})")
        end = len(digits)
        while end and digits[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "digits", digits[:end])

    @classmethod
    def _trusted(cls, base: int, digits: tuple[int, ...]) -> KAdicDigits:
        """Wrap digits already canonical for ``base``, skipping ``__post_init__``."""
        vector = object.__new__(cls)
        object.__setattr__(vector, "base", base)
        object.__setattr__(vector, "digits", digits)
        return vector

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits)

    def __getitem__(self, index: int) -> int:
        return self.digits[index]


def to_digits(n: int, k: int) -> KAdicDigits:
    """Decompose ``n`` into its canonical base-``k`` digit vector.

    ``n = 0`` yields the empty vector; otherwise the top digit is nonzero
    and recomposition is exact for arbitrarily large ``n``.
    """
    _check_int("base", k, 2, word=True)
    _check_int("value", n, 0)
    digits: list[int] = []
    for chunk, width in _leaf_chunks(n, k):
        end = len(digits) + width
        while chunk:
            chunk, d = divmod(chunk, k)
            digits.append(d)
        digits += [0] * (end - len(digits))
    return KAdicDigits._trusted(k, tuple(digits))


def from_digits(digits: Union[KAdicDigits, Sequence[int]], base: int | None = None) -> int:
    """Recompose the integer sum(digits[i] * base**i) exactly.

    Accepts either a :class:`KAdicDigits` (whose own base is used) or a raw
    little-endian digit sequence together with ``base``, which goes through
    ``KAdicDigits`` and so may carry leading (most-significant) zeros but
    no digit outside [0, base).
    """
    if isinstance(digits, KAdicDigits):
        if base is not None and base != digits.base:
            raise ParameterDomainError(
                f"conflicting bases: vector carries {digits.base}, argument says {_echo(base)}"
            )
    elif base is None:
        raise ParameterDomainError("base is required with a raw digit sequence")
    else:
        digits = KAdicDigits(base, digits)
    base, seq = digits.base, digits.digits
    # Leaf blocks of at most _LEAF_BITS bits by Horner's rule, then joined
    # by _join_blocks: one Horner pass over a long value is quadratic.
    width = max(1, _LEAF_BITS // base.bit_length())
    blocks = [_horner(seq[i : i + width], base) for i in range(0, len(seq), width)]
    return _join_blocks(blocks or [0], base**width)


def _join_blocks(blocks: list[int], power: int) -> int:
    """``sum(block * power**i)`` over little-endian ``blocks``, each below ``power``.

    Neighbours are combined pairwise as ``lo + hi * power``, squaring the
    power per level, so the products are balanced and the cost subquadratic.
    """
    while len(blocks) > 1:
        if len(blocks) % 2:
            blocks.append(0)
        blocks = [lo + hi * power for lo, hi in zip(blocks[::2], blocks[1::2])]
        if len(blocks) > 1:
            power *= power
    return blocks[0]


def _horner(seq: Sequence[int], base: int) -> int:
    value = 0
    for d in reversed(seq):
        value = value * base + d
    return value


def digit_count(n: int, k: int) -> int:
    """Number of base-``k`` digits of ``n``: the m with k**(m-1) <= n < k**m.

    Returns 1 for ``n = 0`` (a displayed zero has one digit).
    """
    return len(to_digits(n, k)) or 1
