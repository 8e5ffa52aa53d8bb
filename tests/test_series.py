"""Arithmetic kernels: integer binomials, polynomials, truncated series."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ycalc.series import (
    BiSeries,
    UniPoly,
    XPolynomial,
    binomial,
    comb_int,
    gauss_2f1_truncated,
    linear_ratio_series,
    lowering_factorial,
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
    assert lowering_factorial(x, 3) == x * (x - 1) * (x - 2)
    assert lowering_factorial(x, 0) == 1
    assert binomial(Fraction(9, 2), 2) == Fraction(9, 2) * Fraction(7, 2) / 2
    with pytest.raises(ValueError):
        lowering_factorial(x, -1)


def _evaluate(p: UniPoly, value) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * value + c
    return acc


def test_factorials_on_unipoly():
    x = UniPoly.x()
    p = lowering_factorial(x + 2, 3)  # the raising factorial (x)_3
    assert p == UniPoly((0, 2, 3, 1))
    assert _evaluate(p, 2) == 2 * 3 * 4
    q = lowering_factorial(x, 2)
    assert q == x * x - x


def test_unipoly_basic_algebra():
    x = UniPoly.x()
    p = (x + 1) * (x - 1)
    assert p == x * x - 1
    assert _evaluate(p, 3) == 8
    assert len(p.coeffs) == 3
    assert (p - p).is_zero()
    assert UniPoly((0, 0, 0)).is_zero()
    assert (2 * x + 3) == UniPoly((3, 2))
    assert (x * x * x).coefficient(3) == 1
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
    assert _evaluate(p * q, v) == _evaluate(p, v) * _evaluate(q, v)
    assert _evaluate(p + q, v) == _evaluate(p, v) + _evaluate(q, v)


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
    assert got.sorted_terms() == sorted(want.terms.items())
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
    assert s.coefficient((5, 0)) == 0 and s.coefficient((1, 3)) == 0
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
    for k in range(5):
        assert p.coefficient((k, 0)) == comb_int(6, k)
    assert p.coefficient((5, 0)) == 0  # beyond the cut
    # (1 + u + v)^3 cut at total degree 2 keeps the trinomial terms up to 2
    w = BiSeries(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    cube = w * w * w
    assert cube.rows == [[1, 3, 3], [3, 6], [3]]
    with pytest.raises(ValueError):
        BiSeries(3, {(1, 0): 1}) * BiSeries(4, {(1, 0): 1})


def test_series_first_difference_ordering():
    a = BiSeries(4, {(0, 1): Fraction(1), (2, 0): Fraction(5)})
    b = BiSeries(4, {(0, 1): Fraction(1), (2, 0): Fraction(7)})
    key, ca, cb = a.first_difference(b)
    assert key == (2, 0)
    assert (ca, cb) == (5, 7)
    assert a.first_difference(a) is None
    # smaller total degree first, then the smaller key within a degree
    c = BiSeries(4, {(0, 3): 1, (1, 1): 2, (2, 0): 3})
    d = BiSeries(4, {(0, 2): 9, (1, 1): 9, (2, 0): 9})
    assert c.first_difference(d) == ((0, 2), 0, 9)
    # int entries, zeros included, read as Fractions
    _, lhs, rhs = c.first_difference(BiSeries(4))
    assert (type(lhs), type(rhs)) == (Fraction, Fraction)


def test_series_first_difference_reports_entries_by_type():
    # int against Fraction: equal entries pass, the reported ones read as Fractions
    a = BiSeries(3, {(1, 0): 2, (0, 2): 5})
    b = BiSeries(3, {(1, 0): Fraction(2), (0, 2): Fraction(7, 2)})
    key, lhs, rhs = a.first_difference(b)
    assert (key, lhs, rhs) == ((0, 2), Fraction(5), Fraction(7, 2))
    assert (type(lhs), type(rhs)) == (Fraction, Fraction)
    assert b.first_difference(BiSeries(3, {(1, 0): 2, (0, 2): Fraction(7, 2)})) is None
    # XPolynomial entries are reported as they are, a zero beyond them as a Fraction
    x0, x1 = XPolynomial.x0(), XPolynomial.symbol(1)
    e = BiSeries(2, {(0, 0): x0, (1, 0): x0 * 2, (1, 1): x1})
    f = BiSeries(2, {(0, 0): x0, (1, 0): x0 * 3, (1, 1): x1})
    key, lhs, rhs = e.first_difference(f)
    assert (key, lhs, rhs) == ((1, 0), x0 * 2, x0 * 3)
    assert (type(lhs), type(rhs)) == (XPolynomial, XPolynomial)
    key, lhs, rhs = e.first_difference(BiSeries(2, {(0, 0): x0, (1, 0): x0 * 2}))
    assert (key, lhs, rhs) == ((1, 1), x1, Fraction(0))
    assert (type(lhs), type(rhs)) == (XPolynomial, Fraction)
    assert e.first_difference(e) is None


def test_series_with_xpoly_coefficients():
    # the series ring must accept XPolynomial entries transparently
    x0 = XPolynomial.x0()
    s = BiSeries(4, {(0, 0): x0, (1, 0): XPolynomial.symbol(1)})
    sq = s * s
    assert sq.coefficient((0, 0)) == x0 * x0
    assert sq.coefficient((1, 0)) == XPolynomial.symbol(1) * x0 * 2
    assert (s * x0).coefficient((1, 0)) == XPolynomial.symbol(1) * x0
    zero = s - s
    assert not _nonzero_keys(zero)


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


def _linear_ratio_reference(num, den, order):
    """The Fraction loop linear_ratio_series replaced: one Fraction
    multiply-add per coefficient and factor."""
    cs = [Fraction(0)] * (order + 1)
    cs[0] = Fraction(1)
    for a in num:
        if a:
            for i in range(order, 0, -1):
                cs[i] += a * cs[i - 1]
    for b in den:
        if b:
            for i in range(1, order + 1):
                cs[i] -= b * cs[i - 1]
    return UniPoly(cs)


_ratio_factors = st.lists(
    st.one_of(
        st.integers(-9, 9),
        st.just(0),
        st.builds(Fraction, st.integers(-30, 30), st.integers(1, 16)),
    ),
    max_size=7,
)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(_ratio_factors, _ratio_factors, st.integers(0, 12))
def test_linear_ratio_series_matches_fraction_loop(num, den, order):
    got = linear_ratio_series(num, den, order)
    assert got.coeffs == _linear_ratio_reference(num, den, order).coeffs
    assert all(type(c) is Fraction for c in got.coeffs)
