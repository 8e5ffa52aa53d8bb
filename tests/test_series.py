"""Arithmetic kernels: integer binomials, polynomials, truncated series."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import linear_ratio_reference

from ycalc.series import (
    BiSeries,
    XPolynomial,
    comb_int,
    linear_ratio_integers,
    lowering_factorial,
)
from ycalc.verify import _entries, _graded_keys, _Recorder


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
    assert lowering_factorial(x, 3) == x * (x - 1) * (x - 2)
    assert lowering_factorial(x, 0) == 1
    # [m]_j = j! C(m, j) at every integer m, negative ones included
    for m in range(-4, 7):
        for j in range(5):
            assert lowering_factorial(m, j) == math.factorial(j) * comb_int(m, j)
    with pytest.raises(ValueError):
        lowering_factorial(x, -1)


def _evaluate(p: XPolynomial, value) -> Fraction:
    """p at X0 = value, for p a polynomial in X0 alone."""
    return sum((c * value**e0 for (e0, _), c in p.terms.items()), Fraction(0))


def test_factorials_on_xpolynomial():
    x = XPolynomial.x0()
    p = lowering_factorial(x + 2, 3)  # the raising factorial (x)_3
    assert p == XPolynomial({(1, ()): 2, (2, ()): 3, (3, ()): 1})
    assert _evaluate(p, 2) == 2 * 3 * 4
    q = lowering_factorial(x, 2)
    assert q == x * x - x
    assert _evaluate(lowering_factorial(x - Fraction(1, 2), 2), Fraction(5, 3)) == Fraction(7, 6) * Fraction(1, 6)


def test_xpolynomial_algebra():
    x0 = XPolynomial.x0()
    x2 = XPolynomial.symbol(2)
    p = (x0 + x2) * (x0 - x2)
    assert p == x0 * x0 - x2 * x2
    assert XPolynomial.symbol(0) == x0
    # products key their symbols by a weakly decreasing partition
    m = XPolynomial.symbol(1) * XPolynomial.symbol(3) * XPolynomial.symbol(2)
    assert list(m.terms) == [(0, (3, 2, 1))]
    assert XPolynomial.constant(0) == XPolynomial()
    assert (p - p) == 0


class _FractionXPolynomial:
    """The XPolynomial that held every coefficient as a Fraction, kept as
    the reference for the one that holds integral coefficients as ints."""

    def __init__(self, terms=()):
        self.terms = {}
        for key, c in dict(terms).items():
            c = Fraction(c)
            if c != 0:
                self.terms[key] = c

    @classmethod
    def constant(cls, c):
        return cls({(0, ()): Fraction(c)})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _FractionXPolynomial.constant(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, 0) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return _FractionXPolynomial(out)

    def __neg__(self):
        return _FractionXPolynomial({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _FractionXPolynomial.constant(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if other == 0:
                return _FractionXPolynomial()
            return _FractionXPolynomial({k: c * other for k, c in self.terms.items()})
        out = {}
        for (e0a, mua), ca in self.terms.items():
            for (e0b, mub), cb in other.terms.items():
                key = (e0a + e0b, tuple(sorted(mua + mub, reverse=True)))
                s = out.get(key, 0) + ca * cb
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        return _FractionXPolynomial(out)

    def __repr__(self):
        if not self.terms:
            return "XPolynomial(0)"
        chunks = []
        for (e0, mu), c in sorted(self.terms.items()):
            bits = [str(c)]
            if e0 == 1:
                bits.append("X0")
            elif e0 > 1:
                bits.append(f"X0^{e0}")
            if mu:
                bits.append("X[" + ",".join(map(str, mu)) + "]")
            chunks.append("*".join(bits))
        return "XPolynomial(" + " + ".join(chunks) + ")"


_X_KEYS = st.tuples(
    st.integers(0, 2),
    st.lists(st.integers(1, 3), max_size=2).map(lambda parts: tuple(sorted(parts, reverse=True))),
)
# integral coefficients half the time, as in the symbolic expansion family
_X_COEFFS = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)
_X_TERMS = st.dictionaries(_X_KEYS, _X_COEFFS, max_size=4)


def _assert_matches_reference(got, want):
    assert got.terms == want.terms
    assert repr(got) == repr(want)
    for c in got.terms.values():
        assert type(c) is (int if c.denominator == 1 else Fraction), c


@settings(deadline=None, derandomize=True, max_examples=200)
@given(_X_TERMS, _X_TERMS, _X_COEFFS)
def test_xpolynomial_matches_fraction_reference(a, b, scalar):
    p, q = XPolynomial(a), XPolynomial(b)
    rp, rq = _FractionXPolynomial(a), _FractionXPolynomial(b)
    _assert_matches_reference(p, rp)
    _assert_matches_reference(p + q, rp + rq)
    _assert_matches_reference(p - q, rp - rq)
    _assert_matches_reference(p * q, rp * rq)
    _assert_matches_reference(p * scalar, rp * scalar)
    _assert_matches_reference(scalar * p, rp * scalar)
    _assert_matches_reference(p + scalar, rp + scalar)
    _assert_matches_reference(p - scalar, rp - scalar)
    assert (p == q) == (rp.terms == rq.terms)
    assert (p == scalar) == (rp.terms == _FractionXPolynomial.constant(scalar).terms)


def _nonzero_keys(s):
    return [(i, j) for i, row in enumerate(s.rows) for j, c in enumerate(row) if c]


def test_series_constructor_truncates_and_drops_zeros():
    s = BiSeries(3, {(0, 0): Fraction(1), (2, 0): Fraction(0), (5, 0): Fraction(9), (1, 3): 4})
    assert [len(row) for row in s.rows] == [4, 3, 2, 1]
    assert _nonzero_keys(s) == [(0, 0)]
    for bad in [(0, 0, 0), (0,), (-1, 0), (0, -2)]:
        with pytest.raises(ValueError):
            BiSeries(3, {bad: Fraction(1)})
    with pytest.raises(ValueError):
        BiSeries(-1)


def test_series_mul_respects_order():
    one_plus_u = BiSeries(4, {(0, 0): 1, (1, 0): 1})
    p = BiSeries(4, {(0, 0): 1})
    for _ in range(6):
        p = p * one_plus_u
    assert [row[0] for row in p.rows] == [comb_int(6, k) for k in range(5)]  # u^5 and u^6 are beyond the cut
    # (1 + u + v)^3 cut at total degree 2 keeps the trinomial terms up to 2
    w = BiSeries(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    cube = w * w * w
    assert cube.rows == [[1, 3, 3], [3, 6], [3]]
    with pytest.raises(ValueError):
        BiSeries(3, {(1, 0): 1}) * BiSeries(4, {(1, 0): 1})


def test_series_with_xpoly_coefficients():
    # the series ring must accept XPolynomial entries transparently
    x0 = XPolynomial.x0()
    s = BiSeries(4, {(0, 0): x0, (1, 0): XPolynomial.symbol(1)})
    sq = s * s
    assert sq.rows[0][0] == x0 * x0
    assert sq.rows[1][0] == XPolynomial.symbol(1) * x0 * 2
    assert (s * x0).rows[1][0] == XPolynomial.symbol(1) * x0
    zero = s - s
    assert not _nonzero_keys(zero)


def _times(p, q, order):
    """The product of two coefficient lists, cut after t^order."""
    out = [0] * (order + 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            if i + j <= order:
                out[i + j] += a * b
    return out


def _first_difference(a, b):
    keys = _graded_keys(a.order)
    for key, ca, cb in zip(keys, _entries(a, keys), _entries(b, keys)):
        if ca != cb:
            return key, ca, cb
    return None


def test_series_first_difference_ordering():
    # the checkers read a BiSeries in (total degree, key) order and name
    # the first key where two series differ
    a = BiSeries(4, {(0, 1): 1, (2, 0): 5})
    b = BiSeries(4, {(0, 1): 1, (2, 0): 7})
    assert _first_difference(a, b) == ((2, 0), 5, 7)
    assert _first_difference(a, a) is None
    # smaller total degree first, then the smaller key within a degree
    c = BiSeries(4, {(0, 3): 1, (1, 1): 2, (2, 0): 3})
    d = BiSeries(4, {(0, 2): 9, (1, 1): 9, (2, 0): 9})
    assert _first_difference(c, d) == ((0, 2), 0, 9)
    # zeros are entries too: the first nonzero key of c against an empty series
    assert _first_difference(c, BiSeries(4)) == ((1, 1), 2, 0)
    # the recorder reports that same key
    keys = _graded_keys(4)
    rec = _Recorder()
    rec.numerators(_entries(c, keys), _entries(d, keys), 1, keys)
    assert rec.report("x", {}).counterexample == {"key": [0, 2], "lhs": "0", "rhs": "9"}


def test_linear_ratio_series():
    # the ratio times the denominator factors is the numerator product
    num, den, order = (5, -2, 0), (1, -7, 3), 7
    ratio = linear_ratio_integers(num, den, order)
    back = ratio
    for b in den:
        back = _times(back, [1, b], order)
    want = [1]
    for a in num:
        want = _times(want, [1, a], order)
    assert back == want
    c = -3
    inv = linear_ratio_integers((), (c,), order)
    assert inv == [(-c) ** m for m in range(order + 1)]
    with pytest.raises(ValueError):
        linear_ratio_integers(num, den, -1)


_ratio_factors = st.lists(st.one_of(st.integers(-9, 9), st.just(0)), max_size=7)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(_ratio_factors, _ratio_factors, st.integers(0, 12))
def test_linear_ratio_series_matches_fraction_loop(num, den, order):
    got = linear_ratio_integers(num, den, order)
    assert got == linear_ratio_reference(num, den, order)
    assert all(type(c) is int for c in got)
