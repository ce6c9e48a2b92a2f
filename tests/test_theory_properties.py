"""Hypothesis property of the theory calculators: for every step size
strictly inside a nonempty admissible interval and every Young parameter in
(0, young_upper), the contraction factor theta lies in (0, 1).  So the
`theta not in (0, 1)` check in compute_theta_and_floor guards against a
wrong formula, not against any valid input."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from quagd.optimizer import (  # noqa: E402
    compute_theta_and_floor,
    step_size_interval,
    young_delta_interval,
)

# a fraction strictly between 0 and 1
INTERIOR = st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(
    lambda t: 0 < t < 1
)


@settings(derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(1, 50),
    mu=st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000),
    ratio=st.fractions(min_value=1, max_value=6, max_denominator=1000),  # L / mu
    t=INTERIOR,
    s=INTERIOR,
)
def test_theta_in_unit_interval_inside_both_intervals(n, mu, ratio, t, s):
    big_l = mu * ratio
    interval = step_size_interval(big_l, mu, n)
    assume(interval.nonempty)  # L / mu below 3 + 2 sqrt(2)
    alpha = interval.lower + t * (interval.upper - interval.lower)
    _, young_upper = young_delta_interval(alpha, big_l, mu, n)
    consts = compute_theta_and_floor(alpha, s * young_upper, big_l, mu, n, 0)
    assert 0 < consts.theta < 1
