"""Floor quantization at level delta.

This is the only boundary between real-valued optimization state and the
integer consensus protocol: the quantizer returns the integer multiple
count, and scaling back by delta happens only at protocol exit, so all
consensus arithmetic stays exact.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction


class QuantizationLevel:
    """Positive quantization step, held as an exact rational.

    Strings and Decimals are parsed exactly (so CLI values like "0.01"
    mean the decimal 1/100); floats are interpreted through their shortest
    decimal repr for the same reason.  The level's float must be positive
    and finite (levels are named and reported as floats); this is checked
    before the exact conversion, which could otherwise build a huge power
    of ten.  str() gives back the text the level was written as, so a
    config echo reproduces it verbatim.
    """

    def __init__(self, delta):
        self._text = str(delta)
        if isinstance(delta, QuantizationLevel):
            delta = delta.delta
        try:
            if isinstance(delta, (str, float)):
                delta = Decimal(repr(delta) if isinstance(delta, float) else delta)
            if isinstance(delta, bool) or not 0 < float(delta) < math.inf:
                raise ValueError
            self.delta: Fraction = Fraction(delta)
        except (ArithmeticError, TypeError, ValueError):  # no number, or out of range
            raise ValueError("quantization level must be a decimal with "
                             f"0 < float(level) < inf, got {self._text!r}") from None
        self._ratio = self.delta.as_integer_ratio()  # (a, b) for quantize_floor

    def __float__(self):
        return float(self.delta)

    def __str__(self):
        return self._text

    def __eq__(self, other):
        return isinstance(other, QuantizationLevel) and self.delta == other.delta

    def __repr__(self):
        return f"QuantizationLevel({str(self.delta)!r})"


def quantize_floor(xi, q: QuantizationLevel) -> int:
    """Largest integer count c with c * delta <= xi (floor toward -inf).

    The quantized value is c * delta; the error xi - c*delta lies in
    [0, delta).  Computed in integers: with xi = num/den exactly (a float's
    binary value, anything else through Fraction) and delta = a/b, both
    denominators positive, c = num*b // (den*a).
    """
    if isinstance(xi, float):
        if not math.isfinite(xi):
            raise ValueError(f"cannot quantize non-finite value {xi}")
        num, den = xi.as_integer_ratio()  # exact binary value
    else:
        try:
            if isinstance(xi, (bool, str)):  # True or "1e400" is no estimate
                raise TypeError
            num, den = Fraction(xi).as_integer_ratio()
        except TypeError:
            raise ValueError(f"cannot quantize {xi!r}: not a number") from None
        except (OverflowError, ValueError):  # a Decimal infinity or NaN
            raise ValueError(f"cannot quantize non-finite value {xi!r}") from None
    a, b = q._ratio
    return num * b // (den * a)
