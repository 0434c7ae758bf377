"""Exact positional base-k digit decomposition of nonnegative integers.

Digits are stored little-endian: ``digits[i]`` is the coefficient of
``base**i``.  Zero is canonically the empty digit vector; ``digit_count``
still reports one digit so a displayed zero has width 1.  Decomposed
values may be arbitrarily large Python ints; bases must fit a machine
word so that every per-digit product downstream stays within 128 bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .errors import MAX_BASE, DigitDomainError, ParameterDomainError, _check_int, _echo


# Values longer than this many bits are split into leaf chunks of at most
# this many bits before any per-digit loop runs.  Peeling one digit per
# divmod costs time linear in the value's length, so the loop is quadratic
# overall.  Measured on CPython 3.11 (x86-64): splitting first is
# break-even just above 1 kbit and 10-20x faster at 3*10**4 digits; 512-bit
# leaves were up to 15 % faster at that size but up to 25 % slower than
# the plain loop just above 512 bits.
_LEAF_BITS = 1024


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
    chunk of the half's full width.
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
        hi, lo = divmod(x, powers[i])
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
        digits = tuple(self.digits)
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
    little-endian digit sequence together with ``base``.  Raw sequences may
    carry leading (most-significant) zeros; each digit must lie in
    [0, base).
    """
    if isinstance(digits, KAdicDigits):
        if base is not None and base != digits.base:
            raise ParameterDomainError(
                f"conflicting bases: vector carries {digits.base}, argument says {_echo(base)}"
            )
        base = digits.base
        seq: Sequence[int] = digits.digits
    else:
        if base is None:
            raise ParameterDomainError("base is required with a raw digit sequence")
        seq = tuple(digits)
    _check_int("base", base, 2, word=True)
    # Leaf blocks of at most _LEAF_BITS bits by Horner's rule, then
    # neighbours combined pairwise as lo + hi * base**width, squaring the
    # power per level: one Horner pass over a long value is quadratic.
    width = max(1, _LEAF_BITS // base.bit_length())
    if len(seq) <= width:
        return _horner(seq, base)
    blocks = [_horner(seq[i : i + width], base) for i in range(0, len(seq), width)]
    power = base**width
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
        if not (isinstance(d, int) and 0 <= d < base):
            raise DigitDomainError(f"digit {_echo(d)} is not an integer in [0, {base})")
        value = value * base + d
    return value


def digit_count(n: int, k: int) -> int:
    """Number of base-``k`` digits of ``n``: the m with k**(m-1) <= n < k**m.

    Returns 1 for ``n = 0`` (a displayed zero has one digit).
    """
    return len(to_digits(n, k)) or 1
