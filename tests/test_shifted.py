"""Content power sums, moment polynomials, content-alphabet expansions."""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ycalc.coefficients import marked_row, stirling_inverse_t
from ycalc.partitions import EMPTY, Partition, content_alphabet, enumerate_partitions, partitions_upto
from ycalc.series import UniPoly, linear_ratio_series, lowering_factorial
from ycalc.shifted import _MomentTable, _shifted_numerators, d_k, dk_from_shifted, moment_table
from ycalc.verify import DEFAULT_ALPHA_SET

ALPHAS = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 5))
KERNEL_ALPHAS = DEFAULT_ALPHA_SET + (Fraction(7, 3),)

shapes_small = st.tuples(st.integers(0, 6), st.integers(0, 400))


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


@settings(deadline=None, derandomize=True)
@given(shapes_small, st.sampled_from(ALPHAS), st.integers(0, 6))
def test_dk_from_shifted_matches_direct(shape, alpha, k):
    n, pick = shape
    la = _shape(n, pick)
    assert dk_from_shifted(la, alpha, k) == [d_k(la, alpha, j) for j in range(k + 1)]


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
        assert dk_from_shifted(la, alpha, 8) == want, la


def test_dk_from_shifted_rejects_negative():
    with pytest.raises(ValueError, match="k must be nonnegative"):
        dk_from_shifted(Partition((2,)), Fraction(1), -1)


def _f(la, alpha, n, p, k):
    """f_{n,p,k} = A[n][p][k] / (n! a^n), read from the moment table."""
    table = moment_table(la, alpha)
    return Fraction(table.row(n)[p][k], table.denominator(n))


def test_f_npk_conventions_match_abstract_family():
    # Row n of the table is (n+1) x (n+1) in (p, k); column k = 0 holds
    # the convention value: 1 at n = p = 0 and 0 elsewhere.
    for la in (EMPTY, Partition((3, 1))):
        table = moment_table(la, Fraction(2))
        assert table.row(0) == ((1,),)
        for n in range(1, 5):
            row = table.row(n)
            assert len(row) == n + 1 and all(len(line) == n + 1 for line in row)
            assert all(line[0] == 0 for line in row)


@pytest.mark.parametrize("alpha", KERNEL_ALPHAS)
def test_bounded_rows_equal_full_rows(alpha):
    # Columns 0 .. k of a row built up to column k, one column at a time,
    # equal those of the full marked_row; so does a row first built at
    # k = 1 and then extended to k = m, and a read at a smaller bound after
    # an extension returns the whole extended row.
    for la in partitions_upto(7):
        stepwise, jump = _MomentTable(la, alpha), _MomentTable(la, alpha)
        for m in range(9):
            full = marked_row(m, stepwise.power_sum)
            for k in range(m + 1):
                cut = tuple(line[: k + 1] for line in full)
                assert marked_row(m, stepwise.power_sum, k) == cut, (la, m, k)
                assert stepwise.row(m, k) == cut, (la, m, k)
            assert stepwise.row(m) == full, (la, m)
            jump.row(m, 1)
            assert jump.row(m, m) == full, (la, m)
            assert jump.row(m, 1) == full, (la, m)
            assert marked_row(m, jump.power_sum, m, 2) == tuple(line[2:] for line in full), (la, m)


def test_f_npk_first_values_by_hand():
    # n = k = 1: the only shape is (1), npbi = 1, z = 1, so f = d_1
    for alpha in ALPHAS:
        for la in (Partition((2, 1)), Partition((4,))):
            assert _f(la, alpha, 1, 0, 1) == d_k(la, alpha, 1)
            assert _f(la, alpha, 1, 1, 1) == d_k(la, alpha, 1)
    # n = 2, k = 1: shapes (2) with npbi((2),0,1) = 2, z = 2; (1,1) excluded
    # (its support starts at k = 2), so f = d_2
    la = Partition((3, 2))
    for alpha in ALPHAS:
        assert _f(la, alpha, 2, 0, 1) == d_k(la, alpha, 2)
        # k = 2 picks up (2) once and (1,1) with npbi = 1, z = 2
        assert _f(la, alpha, 2, 0, 2) == Fraction(1, 2) * (
            d_k(la, alpha, 2) + d_k(la, alpha, 1) ** 2
        )


@settings(deadline=None, derandomize=True)
@given(shapes_small, st.sampled_from(ALPHAS), st.integers(0, 4))
def test_c_k_is_raising_factorial_coefficient(shape, alpha, k):
    # e_k of the content alphabet is the x^(|la|-k) coefficient of
    # (x)_la, the product of x + c over the contents c
    n, pick = shape
    la = _shape(n, pick)
    contents = content_alphabet(la, alpha)
    x = UniPoly.x()
    poly = UniPoly((1,))
    for c in contents:
        poly = poly * (x + c)
    e_k = sum((math.prod(sub) for sub in itertools.combinations(contents, k)), Fraction(0))
    if k <= la.weight:
        assert poly.coefficient(la.weight - k) == e_k
    else:
        assert e_k == 0


@pytest.mark.parametrize("alpha", ALPHAS)
def test_big_c_k_is_inverse_lowering_expansion(alpha):
    # 1/[x]_la = x^{-|la|} sum_k h_k(contents) t^k with t = 1/x
    la = Partition((2, 2, 1))
    order = 6
    contents = content_alphabet(la, alpha)
    acc = linear_ratio_series((), [-c for c in contents], order)
    for k in range(order + 1):
        h_k = sum((math.prod(sub) for sub in itertools.combinations_with_replacement(contents, k)), Fraction(0))
        assert acc.coefficient(k) == h_k
