import math
import random
from fractions import Fraction

import pytest

from quagd.quantizer import QuantizationLevel, quantize_floor, quantized_value


class TestExamples:
    def test_positive(self):
        q = QuantizationLevel("0.5")
        assert quantize_floor(2.7, q) == 5
        assert quantized_value(2.7, q) == Fraction(5, 2)

    def test_negative_floors_toward_minus_infinity(self):
        q = QuantizationLevel("0.5")
        assert quantize_floor(-1.3, q) == -3
        assert quantized_value(-1.3, q) == Fraction(-3, 2)

    def test_exact_multiple(self):
        q = QuantizationLevel("1")
        assert quantize_floor(3.0, q) == 3
        assert quantized_value(3.0, q) == 3


class TestProperties:
    def test_error_in_half_open_interval(self):
        rnd = random.Random(31)
        for _ in range(500):
            delta = Fraction(rnd.randint(1, 50), rnd.randint(1, 50))
            q = QuantizationLevel(delta)
            xi = rnd.uniform(-100, 100)
            err = Fraction(xi) - quantized_value(xi, q)
            assert 0 <= err < delta

    def test_monotone(self):
        rnd = random.Random(32)
        q = QuantizationLevel("0.25")
        for _ in range(300):
            a = rnd.uniform(-50, 50)
            b = a + rnd.uniform(0, 10)
            assert quantize_floor(a, q) <= quantize_floor(b, q)

    def test_idempotent_on_grid(self):
        q = QuantizationLevel(Fraction(3, 7))
        for count in range(-20, 21):
            xi = count * Fraction(3, 7)
            assert quantize_floor(xi, q) == count
            assert quantized_value(xi, q) == xi


class TestQuantizationLevel:
    def test_decimal_string_is_exact(self):
        assert QuantizationLevel("0.1").delta == Fraction(1, 10)
        assert QuantizationLevel("1e-6").delta == Fraction(1, 10**6)

    def test_float_uses_decimal_repr(self):
        assert QuantizationLevel(0.1).delta == Fraction(1, 10)

    def test_str_is_the_source_text(self):
        for text in ("1e-3", "0.010"):
            assert str(QuantizationLevel(text)) == text
        assert str(QuantizationLevel(QuantizationLevel("1e-3"))) == "1e-3"

    def test_rejects_non_decimal_or_infinite_text(self):
        for bad in ("abc", "inf", "nan", "", math.inf):
            with pytest.raises(ValueError):
                QuantizationLevel(bad)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            QuantizationLevel("0")
        with pytest.raises(ValueError):
            QuantizationLevel("-0.5")

    def test_rejects_non_finite_input(self):
        q = QuantizationLevel("1")
        with pytest.raises(ValueError):
            quantize_floor(math.inf, q)
        with pytest.raises(ValueError):
            quantize_floor(math.nan, q)
