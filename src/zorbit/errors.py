"""Exception types shared across the library, and its one argument check.

``_check_int`` checks every integer argument.  Every message that shows a
caller's value shows it through ``_echo``, which gives a long int by its bit
length, so no message trips the interpreter's 4 300-digit int/str cap.
"""

from __future__ import annotations

MAX_BASE = 2**32
_ECHO_BITS = 256  # ints of up to 77 decimal digits are echoed whole


class ZorbitError(Exception):
    """Base class for every error raised by this package."""


class ParameterDomainError(ZorbitError, ValueError):
    """A base, modulus, or other argument lies outside its admitted domain."""


class DigitDomainError(ZorbitError, ValueError):
    """A digit lies outside [0, base)."""


class PreconditionError(ParameterDomainError):
    """A verifier was invoked on parameters that fail its precondition.

    ``failed`` names the parameter conditions ("a", "b", "c") that did not
    hold.
    """

    def __init__(self, message: str, failed: tuple[str, ...] = ()):
        super().__init__(message)
        self.failed = tuple(failed)


class BudgetExceededError(ZorbitError, RuntimeError):
    """Orbit iteration hit its step budget before finding a repeat.

    Every orbit is eventually periodic, so this signals an undersized
    budget (or a bug), never a genuinely divergent orbit.  ``partial``
    carries the values produced before giving up.
    """

    def __init__(self, message: str, partial):
        super().__init__(message)
        self.partial = tuple(partial)


class AbsorptionError(ZorbitError, RuntimeError):
    """A certified absorbing bound was violated at runtime.

    The bound construction proves forward invariance and strict descent;
    seeing this error means an internal arithmetic fault, not bad input.
    """


def _echo(value) -> str:
    """Show ``value`` in a message without ever raising."""
    if isinstance(value, int) and value.bit_length() > _ECHO_BITS:
        return f"a {'negative ' if value < 0 else ''}{value.bit_length()}-bit int"
    try:
        return repr(value)
    except ValueError:  # a Fraction past the digit cap, say
        return f"a {type(value).__name__}"


def _check_int(name: str, value, low: int | None = None, *, word: bool = False) -> None:
    """Raise ParameterDomainError unless ``value`` is an int >= low, and <= MAX_BASE if word."""
    if not isinstance(value, int) or (low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise ParameterDomainError(f"{name} must be an integer{bound}, got {_echo(value)}")
    if word and value > MAX_BASE:
        raise ParameterDomainError(f"{name} must be <= 2**32, got {_echo(value)}")
