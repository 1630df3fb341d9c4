"""Rational series arithmetic and expansion."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinelab.series import GradedDims, PowerSeriesRat, geometric, one_plus, series_equal


def test_geometric_expansion():
    assert PowerSeriesRat.make([1], [1, -1]).coefficients(3) == (1, 1, 1, 1)
    assert geometric(4).coefficients(9) == (1, 0, 0, 0, 1, 0, 0, 0, 1, 0)


def test_sigma3_series():
    s = one_plus(3) * geometric(4)
    assert s.coefficients(8) == (1, 0, 0, 1, 1, 0, 0, 1, 1)


def test_expand_requires_unit_constant_term():
    with pytest.raises(ValueError):
        PowerSeriesRat.make([1], [2, 1]).coefficients(4)
    with pytest.raises(ZeroDivisionError):
        PowerSeriesRat.make([1], [0])


def test_rational_function_equality():
    a = geometric(2)
    b = PowerSeriesRat.make([1, 1], [1, 1, -1, -1])  # (1+t)/((1+t)(1-t^2))
    assert a.same_function(b)
    assert series_equal(a, b, 30)


def test_graded_dims_validation():
    with pytest.raises(ValueError):
        GradedDims(2, (1, 0))
    with pytest.raises(ValueError):
        GradedDims(1, (1, -1))


@settings(max_examples=50)
@given(
    num=st.lists(st.integers(-3, 3), min_size=1, max_size=5),
    den_tail=st.lists(st.integers(-2, 2), min_size=0, max_size=4),
)
def test_mul_then_expand_matches_convolution(num, den_tail):
    den = [1] + den_tail
    s = PowerSeriesRat.make(num, den)
    t = geometric(2)
    left = (s * t).coefficients(12)
    a, b = s.coefficients(12), t.coefficients(12)
    conv = tuple(sum(a[i] * b[d - i] for i in range(d + 1)) for d in range(13))
    assert left == conv


@settings(max_examples=50)
@given(
    num=st.lists(st.integers(-3, 3), min_size=1, max_size=5),
    den_tail=st.lists(st.integers(-2, 2), min_size=0, max_size=4),
)
def test_add_matches_coefficientwise_sum(num, den_tail):
    den = [1] + den_tail
    s = PowerSeriesRat.make(num, den)
    t = one_plus(3)
    got = (s + t).coefficients(12)
    a, b = s.coefficients(12), t.coefficients(12)
    assert got == tuple(x + y for x, y in zip(a, b))
