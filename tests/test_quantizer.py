import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from quagd.quantizer import QuantizationLevel, quantize_floor


class TestExamples:
    def test_positive(self):
        q = QuantizationLevel("0.5")
        assert quantize_floor(2.7, q) == 5
        assert quantize_floor(2.7, q) * q.delta == Fraction(5, 2)

    def test_negative_floors_toward_minus_infinity(self):
        q = QuantizationLevel("0.5")
        assert quantize_floor(-1.3, q) == -3
        assert quantize_floor(-1.3, q) * q.delta == Fraction(-3, 2)

    def test_exact_multiple(self):
        q = QuantizationLevel("1")
        assert quantize_floor(3.0, q) == 3
        assert quantize_floor(3.0, q) * q.delta == 3


class TestProperties:
    def test_error_in_half_open_interval(self):
        rnd = random.Random(31)
        for _ in range(500):
            delta = Fraction(rnd.randint(1, 50), rnd.randint(1, 50))
            q = QuantizationLevel(delta)
            xi = rnd.uniform(-100, 100)
            err = Fraction(xi) - quantize_floor(xi, q) * q.delta
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
            assert quantize_floor(xi, q) * q.delta == xi


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
        for bad in ("abc", "inf", "nan", "", math.inf, None, [1], 1 + 2j, b"0.1"):
            with pytest.raises(ValueError, match="0 < float"):
                QuantizationLevel(bad)

    def test_rejects_levels_outside_the_float_range(self):
        # checked before the exact conversion, which for "1e10000000" alone
        # would build 10**10**7
        for bad in ("1e400", "1e-400", "1e999999999", "1e10000000", "-1e-400",
                    Decimal("1e400"), Fraction(1, 10**400), 10**400):
            with pytest.raises(ValueError, match="0 < float"):
                QuantizationLevel(bad)

    def test_keeps_levels_at_the_ends_of_the_float_range(self):
        for text in ("5e-324", "1.7976931348623157e308"):
            assert QuantizationLevel(text).delta == Fraction(Decimal(text))

    def test_repr_shows_the_exact_level(self):
        assert repr(QuantizationLevel("0.1")) == "QuantizationLevel('1/10')"

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            QuantizationLevel("0")
        with pytest.raises(ValueError):
            QuantizationLevel("-0.5")

    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_a_bool(self, flag):
        # True would equal level 1
        with pytest.raises(ValueError, match="0 < float"):
            QuantizationLevel(flag)

    def test_rejects_non_finite_input(self):
        q = QuantizationLevel("1")
        with pytest.raises(ValueError):
            quantize_floor(math.inf, q)
        with pytest.raises(ValueError):
            quantize_floor(math.nan, q)

    @pytest.mark.parametrize("xi", [True, False, "1", "1e400", b"1"],
                             ids=["true", "false", "str", "huge-str", "bytes"])
    def test_rejects_a_bool_or_text(self, xi):
        # True would quantize as 1, and "1e400" as an exact 10**400
        with pytest.raises(ValueError, match="not a number"):
            quantize_floor(xi, QuantizationLevel("1"))

    @pytest.mark.parametrize("text", ["Infinity", "-Infinity", "NaN", "sNaN"])
    def test_rejects_a_non_finite_decimal(self, text):
        with pytest.raises(ValueError, match="cannot quantize non-finite value Decimal"):
            quantize_floor(Decimal(text), QuantizationLevel("0.1"))

    def test_keeps_ints_fractions_and_decimals(self):
        q = QuantizationLevel("0.1")
        exact = (3, Fraction(1, 3), Decimal("0.35"))
        assert [quantize_floor(x, q) for x in exact] == [30, 3, 3]
