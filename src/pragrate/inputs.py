"""The one input-check layer, called by every public function before it computes.  A real
is an int, float or Fraction that a double holds (not a bool, str, None, Decimal or complex;
nan lies in no interval); an integer is an int, not a bool.  Bad input raises DomainError."""

from __future__ import annotations

import math
import reprlib
from fractions import Fraction
from numbers import Real

from .errors import DomainError


class _Brief(reprlib.Repr):
    """reprlib's brief names, but an int or Fraction past the digit limit of int's str, which has
    no repr, is named by its sign and size in bits at any depth, not by an object address."""

    def repr1(self, x: object, level: int) -> str:
        if isinstance(x, (int, Fraction)):
            try:
                repr(x)
            except ValueError:
                bits = max(x.numerator.bit_length(), x.denominator.bit_length())
                return f"{'-' * (x < 0)}<{type(x).__name__} of {bits} bits>"
        return super().repr1(x, level)


brief = _Brief().repr  # a value named in brief: long strings, numbers and containers cut short


def describe(x: object) -> str:
    """``repr(x)``, or where a number with no repr makes that raise, :func:`brief`'s name."""
    try:
        return repr(x)
    except ValueError:
        return brief(x)


def check_integer(name: str, value: int, least: int | None = None) -> None:
    """Refuse ``value`` unless it is an integer, and at least ``least`` if one is given."""
    if isinstance(value, bool) or not isinstance(value, int) or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise DomainError(f"{name} must be an integer{bound}, got {describe(value)}")


def check_blocklength(n: int) -> None:
    """Refuse n unless it is an integer >= 1 that a double holds: the formulas divide by it."""
    check_integer("blocklength n", n, 1)
    check_real("blocklength n", n, need="be an integer >= 1 that a double holds")


def check_real(name: str, x: float, lo: float = -math.inf, hi: float = math.inf, *,
               lo_open: bool = True, hi_open: bool = True, need: str | None = None) -> float:
    """``x`` as a float, refused unless a real between ``lo`` and ``hi`` (each end open or closed).
    The refusal says that ``name`` must ``need``, or else names the interval a real lies outside."""
    real = isinstance(x, Real) and not isinstance(x, bool)
    try:
        value = float(x) if real else math.nan
    except OverflowError:  # an int or Fraction past the largest double
        value, real = math.nan, False
    if (lo < value if lo_open else lo <= value) and (value < hi if hi_open else value <= hi):
        return value
    if need or not real:
        raise DomainError(f"{name} must {need or 'be a real number that a double holds'}, got {describe(x)}")
    raise DomainError(f"{name}={describe(x)} outside {'[('[lo_open]}{lo!r}, {hi!r}{'])'[hi_open]}")
