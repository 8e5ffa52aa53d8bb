"""Arithmetic kernels: integer binomials, polynomials, truncated series."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ycalc.series import (
    TruncatedSeries,
    UniPoly,
    XPolynomial,
    binomial,
    comb_int,
    gauss_2f1_truncated,
    linear_ratio_series,
    lowering_factorial,
    raising_factorial,
    xpoly_from_unipoly_x0,
)


def test_comb_int_small_table():
    assert comb_int(5, 2) == 10
    assert comb_int(5, 0) == 1
    assert comb_int(5, 7) == 0
    assert comb_int(0, 0) == 1
    assert comb_int(3, -1) == 0
    # negative upper argument follows the falling-product convention
    assert comb_int(-1, 3) == -1
    assert comb_int(-2, 2) == 3
    assert comb_int(-3, 3) == -10


@settings(deadline=None, derandomize=True)
@given(st.integers(-40, 40), st.integers(0, 12))
def test_comb_int_pascal_rule(m, j):
    assert comb_int(m, j) == comb_int(m - 1, j) + comb_int(m - 1, j - 1)


@settings(deadline=None, derandomize=True)
@given(st.integers(-30, -1), st.integers(0, 10))
def test_comb_int_negative_reflection(m, j):
    # C(m, j) = (-1)^j C(j - m - 1, j) for m < 0
    assert comb_int(m, j) == (-1) ** j * comb_int(j - m - 1, j)


def test_factorials_and_binomial():
    x = Fraction(7, 2)
    assert raising_factorial(x, 3) == x * (x + 1) * (x + 2)
    assert lowering_factorial(x, 3) == x * (x - 1) * (x - 2)
    assert raising_factorial(x, 0) == 1
    assert binomial(Fraction(9, 2), 2) == Fraction(9, 2) * Fraction(7, 2) / 2
    with pytest.raises(ValueError):
        raising_factorial(x, -1)


def test_factorials_on_unipoly():
    x = UniPoly.x()
    p = raising_factorial(x, 3)
    assert p.coefficient(3) == 1
    assert p(2) == 2 * 3 * 4
    q = lowering_factorial(x, 2)
    assert q == x * x - x


def test_unipoly_basic_algebra():
    x = UniPoly.x()
    p = (x + 1) * (x - 1)
    assert p == x * x - 1
    assert p(3) == 8
    assert p.degree == 2
    assert (p - p).is_zero()
    assert UniPoly((0, 0, 0)).is_zero()
    assert (2 * x + 3) == UniPoly((3, 2))
    assert (x**3).coefficient(3) == 1
    assert x.coefficient(10) == 0


@settings(deadline=None, derandomize=True)
@given(
    st.lists(st.integers(-5, 5), max_size=4),
    st.lists(st.integers(-5, 5), max_size=4),
    st.lists(st.integers(-5, 5), max_size=4),
)
def test_unipoly_ring_laws(a, b, c):
    p, q, r = UniPoly(a), UniPoly(b), UniPoly(c)
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)


def test_unipoly_evaluation_is_ring_map():
    p = UniPoly((1, -2, 0, 1))
    q = UniPoly((0, 3, 1))
    v = Fraction(5, 3)
    assert (p * q)(v) == p(v) * q(v)
    assert (p + q)(v) == p(v) + q(v)


def test_xpolynomial_algebra():
    x0 = XPolynomial.x0()
    x2 = XPolynomial.symbol(2)
    p = (x0 + x2) * (x0 - x2)
    assert p == x0 * x0 - x2 * x2
    assert XPolynomial.symbol(0) == x0
    # monomial keys store partitions weakly decreasing
    m = XPolynomial.monomial((1, 3, 2))
    assert list(m.terms) == [(0, (3, 2, 1))]
    assert XPolynomial.constant(0) == XPolynomial()
    assert (p - p) == 0


def test_xpolynomial_substitute():
    p = XPolynomial.x0(2) * 3 + XPolynomial.monomial((2, 1), Fraction(1, 2))
    val = p.substitute(Fraction(2), lambda i: Fraction(i + 1))
    assert val == 12 + Fraction(1, 2) * 3 * 2


def test_xpoly_from_unipoly_roundtrip():
    u = UniPoly((1, 0, -3, 2))
    p = xpoly_from_unipoly_x0(u)
    for v in (Fraction(0), Fraction(5, 7), Fraction(-2)):
        assert p.substitute(v, lambda i: Fraction(0)) == u(v)


def _series(var="t", order=6):
    return TruncatedSeries.variable(var, (var,), order)


def test_series_constructor_truncates_and_drops_zeros():
    s = TruncatedSeries(("t",), 3, {(0,): Fraction(1), (2,): Fraction(0), (5,): Fraction(9)})
    assert s.coeffs == {(0,): Fraction(1)}
    with pytest.raises(ValueError):
        TruncatedSeries(("t",), 3, {(0, 0): Fraction(1)})
    with pytest.raises(ValueError):
        TruncatedSeries(("t",), -1)


def test_series_mul_respects_order():
    t = _series(order=4)
    p = (1 + t) ** 6
    for k in range(5):
        assert p.coefficient((k,)) == comb_int(6, k)
    assert p.coefficient((5,)) == 0  # beyond the cut


def test_series_first_difference_ordering():
    vs = ("u", "v")
    a = TruncatedSeries(vs, 4, {(0, 1): Fraction(1), (2, 0): Fraction(5)})
    b = TruncatedSeries(vs, 4, {(0, 1): Fraction(1), (2, 0): Fraction(7)})
    key, ca, cb = a.first_difference(b)
    assert key == (2, 0)
    assert (ca, cb) == (5, 7)
    assert a.first_difference(a) is None


def test_series_with_xpoly_coefficients():
    # the series ring must accept XPolynomial entries transparently
    x0 = XPolynomial.x0()
    t = _series(order=4)
    s = t.one().scale(x0) + t.scale(XPolynomial.symbol(1))
    sq = s * s
    assert sq.coefficient((0,)) == x0 * x0
    assert sq.coefficient((1,)) == XPolynomial.symbol(1) * x0 * 2
    zero = s - s
    assert not zero.coeffs


def test_gauss_2f1_values():
    # 2F1(1, 1; 2; z) = -log(1-z)/z has coefficients 1/(i+1)
    s = gauss_2f1_truncated(1, 1, 2, 6)
    for i in range(7):
        assert s.coefficient(i) == Fraction(1, i + 1)
    # 2F1(a, b; b; z) = (1-z)^{-a}
    s2 = gauss_2f1_truncated(3, 2, 2, 6)
    for i in range(7):
        assert s2.coefficient(i) == comb_int(i + 2, 2)
    with pytest.raises(ValueError):
        gauss_2f1_truncated(1, 1, 0, 4)


def test_linear_ratio_series():
    num = (Fraction(5, 3), Fraction(-2), Fraction(0))
    den = (Fraction(1, 2), Fraction(-7, 4), Fraction(3))
    order = 7
    ratio = linear_ratio_series(num, den, order)
    back = ratio
    for b in den:
        back = (back * UniPoly((1, b))).truncate(order)
    want = UniPoly((1,))
    for a in num:
        want = want * UniPoly((1, a))
    assert back == want
    c = Fraction(5, 3)
    inv = linear_ratio_series((), (c,), order)
    assert [inv.coefficient(m) for m in range(order + 1)] == [(-c) ** m for m in range(order + 1)]
    assert inv.coefficient(order + 1) == 0
    with pytest.raises(ValueError):
        linear_ratio_series(num, den, -1)
