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
    decimal repr for the same reason.  str() gives back the text the level
    was written as, so a config echo reproduces it verbatim.
    """

    def __init__(self, delta):
        self._text = str(delta)
        if isinstance(delta, QuantizationLevel):
            delta = delta.delta
        if isinstance(delta, float):
            delta = Decimal(repr(delta))
        try:
            delta = Fraction(Decimal(delta) if isinstance(delta, str) else delta)
        except ArithmeticError:  # not a decimal number, or infinite
            raise ValueError(
                f"quantization level must be a finite decimal, got {self._text!r}"
            ) from None
        if delta <= 0:
            raise ValueError(f"quantization level must be positive, got {delta}")
        self.delta: Fraction = delta

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
    [0, delta).
    """
    if isinstance(xi, float):
        if not math.isfinite(xi):
            raise ValueError(f"cannot quantize non-finite value {xi}")
        xi = Fraction(xi)  # exact binary value
    else:
        xi = Fraction(xi)
    return math.floor(xi / q.delta)


def quantized_value(xi, q: QuantizationLevel) -> Fraction:
    """The quantized value itself: floor(xi/delta) * delta, exact."""
    return quantize_floor(xi, q) * q.delta
