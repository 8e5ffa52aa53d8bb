"""Content power sums, moment polynomials, content-alphabet expansions."""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import c_rows_reference, formula_value_reference, linear_ratio_reference

from ycalc import shifted
from ycalc.coefficients import marked_row, stirling_inverse_t
from ycalc.partitions import EMPTY, Partition, enumerate_partitions, partitions_upto
from ycalc.series import XPolynomial, comb_int, lowering_factorial
from ycalc.shifted import _MomentTable, _shifted_numerators, d_k, dk_from_shifted, moment_table
from ycalc.verify import DEFAULT_ALPHA_SET

ALPHAS = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 5))
KERNEL_ALPHAS = DEFAULT_ALPHA_SET + (Fraction(7, 3),)

shapes_small = st.tuples(st.integers(0, 6), st.integers(0, 400))


def _contents(la, alpha):
    """The alpha-contents (j-1) - (i-1)/alpha of la's cells, row-major."""
    return tuple(Fraction(j - 1) - Fraction(i - 1) / alpha for i, j in la.cells())


def _shape(n, pick):
    options = enumerate_partitions(n)
    return options[pick % len(options)]


def test_d_k_frozen_values():
    la = Partition((2, 2))
    half = Fraction(1, 2)
    assert [d_k(la, half, k) for k in range(4)] == [
        Fraction(4),
        Fraction(-2),
        Fraction(6),
        Fraction(-8),
    ]
    assert d_k(la, Fraction(1), 1) == 0
    assert d_k(la, Fraction(1), 2) == 2
    assert d_k(EMPTY, Fraction(1), 0) == 0
    with pytest.raises(ValueError):
        d_k(la, half, -1)


@settings(deadline=None, derandomize=True)
@given(shapes_small, st.sampled_from(ALPHAS), st.integers(0, 5))
def test_d_k_conjugation_duality(shape, alpha, k):
    n, pick = shape
    la = _shape(n, pick)
    assert d_k(la.conjugate(), 1 / alpha, k) == (-alpha) ** k * d_k(la, alpha, k)


def _shifted_power_sum(la, alpha, k):
    """p*_k = a^k p*_k / a^k from the integer row-end products."""
    return Fraction(_shifted_numerators(la, alpha, k)[k], alpha.numerator**k)


def test_shifted_power_sum_values():
    la = Partition((2, 2))
    # p*_1 is always the cell count
    for alpha in ALPHAS:
        assert _shifted_power_sum(la, alpha, 1) == la.weight
    # p*_2 at alpha = 1: [2]_2 + [1]_2 - [0]_2 - [-1]_2 = 2 + 0 - 0 - 2
    assert _shifted_power_sum(la, Fraction(1), 2) == 0


def _dk_shifted(la, alpha, k_max):
    """d_0 .. d_k_max from dk_from_shifted, each T_k over a^(k+1) (k+1)!."""
    a = alpha.numerator
    return [Fraction(t, a ** (k + 1) * math.factorial(k + 1)) for k, t in enumerate(dk_from_shifted(la, alpha, k_max))]


@settings(deadline=None, derandomize=True)
@given(shapes_small, st.sampled_from(ALPHAS), st.integers(0, 6))
def test_dk_from_shifted_matches_direct(shape, alpha, k):
    n, pick = shape
    la = _shape(n, pick)
    assert _dk_shifted(la, alpha, k) == [d_k(la, alpha, j) for j in range(k + 1)]


# The Fraction definition of p*_k that the integer row products replaced,
# kept as the reference for them.


@lru_cache(maxsize=None)
def _shifted_power_sum_reference(la, alpha, k):
    total = Fraction(0)
    for i, part in enumerate(la.parts, start=1):
        shift = Fraction(i - 1) / alpha
        total += lowering_factorial(Fraction(part) - shift, k)
        total -= lowering_factorial(-shift, k)
    return total


def _dk_from_shifted_reference(la, alpha, k):
    total = Fraction(0)
    for m in range(0, k + 1):
        t = stirling_inverse_t(k, m)
        if t:
            total += Fraction(t) * _shifted_power_sum_reference(la, alpha, m + 1) / (m + 1)
    return total


@pytest.mark.parametrize("alpha", KERNEL_ALPHAS)
def test_shifted_sums_match_fraction_definition(alpha):
    for la in partitions_upto(8):
        for k in range(1, 9):
            assert _shifted_power_sum(la, alpha, k) == _shifted_power_sum_reference(la, alpha, k), (la, k)
        want = [_dk_from_shifted_reference(la, alpha, k) for k in range(0, 9)]
        assert _dk_shifted(la, alpha, 8) == want, la


def test_dk_from_shifted_rejects_negative():
    with pytest.raises(ValueError, match="k must be nonnegative"):
        dk_from_shifted(Partition((2,)), Fraction(1), -1)


def _k(la, alpha, n, m, shift):
    """[K(n, m)[p] for p = 0 .. m] at this shift, from the n! K polynomials
    of shifted._k_formula read one dict entry at a time."""
    table = moment_table(la, alpha)
    return [Fraction(formula_value_reference(terms, table.power_sum), math.factorial(n)) for terms in shifted._k_formula(n, m, shift, m)]


def test_f_npk_conventions_match_abstract_family():
    # K(n, m) has the m + 1 entries p = 0 .. m, and column k = 0 holds the
    # convention value, 1 at m = p = 0 and 0 elsewhere: K(0, 0) = (1,),
    # K(0, m) vanishes past m = 0, and K(n, 0)[0] = C(|la| + shift, n).
    for la in (EMPTY, Partition((3, 1))):
        for shift in (-2, 0, 3):
            assert _k(la, Fraction(2), 0, 0, shift) == [1]
            for n in range(1, 5):
                assert _k(la, Fraction(2), 0, n, shift) == [0] * (n + 1)
                assert _k(la, Fraction(2), n, 0, shift) == [comb_int(la.weight + shift, n)]
                assert all(len(_k(la, Fraction(2), n, m, shift)) == m + 1 for m in range(5))


@pytest.mark.parametrize("alpha", KERNEL_ALPHAS)
def test_bounded_rows_equal_full_rows(alpha):
    # At shift -|la|, C(|la| + shift, k - k') = C(0, k - k') keeps only the
    # term k' = k, so k! K(k, m) is k! times column k of row m.  Read
    # through the compiled evaluator on a new table per order of k
    # (ascending, descending, scattered), it equals the full marked_row at
    # X_i = P_i column by column.
    ks = list(range(9))
    for la in partitions_upto(7):
        full_rows = [marked_row(m, _MomentTable(la, alpha).power_sum) for m in range(9)]
        plans = {(m, k): shifted._compile(shifted._k_formula(k, m, -la.weight, m), None) for m in range(9) for k in range(m + 1)}
        for order in (ks, ks[::-1], ks[1::2] + ks[::2]):
            table = _MomentTable(la, alpha)
            for m in range(9):
                for k in order:
                    if k <= m:
                        (values,) = table.evaluate([plans[m, k]], m)
                        assert values == tuple(math.factorial(k) * line[k] for line in full_rows[m]), (la, m, k)


def test_p0_k_sums_match_the_columns():
    # Every (n, m) = (i, j), i + j <= 10, that rel5.1 (order 10) and the row
    # and column binomials read, at the default alphas and their reciprocals
    # (Theorem 11.2's conjugates), on two fresh tables: the p = 0 k-sums
    # i! K(i, j)[0], asked alone and evaluated through the compiled plan,
    # equal entry p = 0 of the whole i! K(i, j) at shift -j.
    alphas = {*DEFAULT_ALPHA_SET, *(1 / alpha for alpha in DEFAULT_ALPHA_SET)}
    keys = [(i, s - i) for s in range(11) for i in range(s + 1)]
    for i, j in keys:
        assert shifted._k_formula(i, j, -j, 0) == shifted._k_formula(i, j, -j, j)[:1], (i, j)
    for la in partitions_upto(6):
        for alpha in alphas:
            p0, full = _MomentTable(la, alpha), _MomentTable(la, alpha)
            (k0,) = p0.evaluate([shifted._p0_plan(10)], 10)
            assert len(k0) == len(keys)
            for (i, j), v in zip(keys, k0):
                assert v == formula_value_reference(shifted._k_formula(i, j, -j, j)[0], full.power_sum), (la, alpha, i, j)


def test_c_rows_match_the_formula_term_by_term(fresh_memos):
    # the compiled plan against the formula's dict, entry by entry, on new
    # tables: every shape of weight <= 8 at the default alphas, r <= 12
    for la in partitions_upto(8):
        for alpha in DEFAULT_ALPHA_SET:
            table = _MomentTable(la, alpha)
            want = c_rows_reference(shifted._c_formula, table.power_sum, table.a, 12)
            assert table.c_rows(12) == want, (la, alpha)


def test_c_plan_reads_the_formula_it_is_cleared_with(fresh_memos, monkeypatch):
    # _c_plan looks _c_formula up through the module, and is a memo that
    # fresh_memos clears, so a patched formula reaches every new table
    formula = shifted._c_formula

    def bumped(r):
        rows = formula(r)
        return rows if r != 3 else (rows[0], {**rows[1], (0, ()): rows[1].get((0, ()), 0) + 1}, *rows[2:])

    monkeypatch.setattr(shifted, "_c_formula", bumped)
    table = _MomentTable(Partition((2, 1)), Fraction(3, 5))
    want = c_rows_reference(bumped, table.power_sum, table.a, 4)
    assert table.c_rows(4) == want
    assert want[3][1] == c_rows_reference(formula, table.power_sum, table.a, 4)[3][1] + 27  # a^3 = 27
    assert callable(shifted._c_plan.cache_clear)


def test_c_formula_shape():
    # C[r][0] and C[r][r] vanish; every coefficient is an int; and giving
    # |la| weight 1 and P_k weight k + 1, every term of C[r][e] has weight
    # at most r - e, reached for 1 <= e <= r - 1.
    for r in range(1, 13):
        formula = shifted._c_formula(r)
        assert len(formula) == r + 1
        assert not formula[0] and not formula[r], r
        for e, terms in enumerate(formula):
            assert all(type(v) is int for v in terms.values()), (r, e)
            weights = [e0 + sum(mu) + len(mu) for e0, mu in terms]
            assert all(w <= r - e for w in weights), (r, e)
            if 1 <= e <= r - 1:
                assert r - e in weights, (r, e)
    assert sum(len(terms) for r in range(11) for terms in shifted._c_formula(r)) == 358


def test_f_npk_first_values_by_hand():
    # f_{m,p,k} = A[m][p][k] / (m! a^m), read through K(1, m)[p] = A[m][p][1]
    # (at any shift) and K(2, 2)[0] at shift -|la|, which is A[2][0][2]
    # since C(0, 1) = 0.
    # n = k = 1: the only shape is (1), npbi = 1, z = 1, so f = d_1
    for alpha in ALPHAS:
        for la in (Partition((2, 1)), Partition((4,))):
            assert _k(la, alpha, 1, 1, 0) == [alpha.numerator * d_k(la, alpha, 1)] * 2
    # n = 2, k = 1: shapes (2) with npbi((2),0,1) = 2, z = 2; (1,1) excluded
    # (its support starts at k = 2), so f = d_2
    la = Partition((3, 2))
    for alpha in ALPHAS:
        scale = 2 * alpha.numerator**2
        assert _k(la, alpha, 1, 2, 0)[0] == scale * d_k(la, alpha, 2)
        # k = 2 picks up (2) once and (1,1) with npbi = 1, z = 2
        assert _k(la, alpha, 2, 2, -la.weight)[0] == scale * Fraction(1, 2) * (
            d_k(la, alpha, 2) + d_k(la, alpha, 1) ** 2
        )


@settings(deadline=None, derandomize=True)
@given(shapes_small, st.sampled_from(ALPHAS), st.integers(0, 4))
def test_c_k_is_raising_factorial_coefficient(shape, alpha, k):
    # e_k of the content alphabet is the x^(|la|-k) coefficient of
    # (x)_la, the product of x + c over the contents c
    n, pick = shape
    la = _shape(n, pick)
    contents = _contents(la, alpha)
    x = XPolynomial.x0()
    poly = XPolynomial.constant(1)
    for c in contents:
        poly = poly * (x + c)
    e_k = sum((math.prod(sub) for sub in itertools.combinations(contents, k)), Fraction(0))
    if k <= la.weight:
        assert poly.terms.get((la.weight - k, ()), 0) == e_k
    else:
        assert e_k == 0


@pytest.mark.parametrize("alpha", ALPHAS)
def test_big_c_k_is_inverse_lowering_expansion(alpha):
    # 1/[x]_la = x^{-|la|} sum_k h_k(contents) t^k with t = 1/x
    la = Partition((2, 2, 1))
    order = 6
    contents = _contents(la, alpha)
    acc = linear_ratio_reference((), [-c for c in contents], order)
    for k in range(order + 1):
        h_k = sum((math.prod(sub) for sub in itertools.combinations_with_replacement(contents, k)), Fraction(0))
        assert acc[k] == h_k
