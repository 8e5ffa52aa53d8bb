"""Content power sums, moment polynomials, partition factorials."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ycalc.partitions import EMPTY, Partition, enumerate_partitions
from ycalc.series import UniPoly, linear_ratio_series
from ycalc.shifted import (
    big_c_k_generalized,
    c_k_generalized,
    d_k,
    d_mu,
    dk_from_shifted,
    f_nk,
    f_npk,
    lowering_factorial_partition,
    raising_factorial_partition,
    shifted_power_sum,
)

ALPHAS = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 5))

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


def test_d_mu_is_a_product():
    la = Partition((3, 1))
    alpha = Fraction(2)
    mu = Partition((2, 1, 1))
    assert d_mu(la, alpha, mu) == d_k(la, alpha, 2) * d_k(la, alpha, 1) ** 2
    assert d_mu(la, alpha, EMPTY) == 1


@settings(deadline=None, derandomize=True)
@given(shapes_small, st.sampled_from(ALPHAS), st.integers(0, 5))
def test_d_k_conjugation_duality(shape, alpha, k):
    n, pick = shape
    la = _shape(n, pick)
    assert d_k(la.conjugate(), 1 / alpha, k) == (-alpha) ** k * d_k(la, alpha, k)


def test_shifted_power_sum_values():
    la = Partition((2, 2))
    # p*_1 is always the cell count
    for alpha in ALPHAS:
        assert shifted_power_sum(la, alpha, 1) == la.weight
    # p*_2 at alpha = 1: [2]_2 + [1]_2 - [0]_2 - [-1]_2 = 2 + 0 - 0 - 2
    assert shifted_power_sum(la, Fraction(1), 2) == 0
    with pytest.raises(ValueError, match="k must be positive"):
        shifted_power_sum(la, Fraction(1), 0)


@settings(deadline=None, derandomize=True)
@given(shapes_small, st.sampled_from(ALPHAS), st.integers(0, 6))
def test_dk_from_shifted_matches_direct(shape, alpha, k):
    n, pick = shape
    la = _shape(n, pick)
    assert dk_from_shifted(la, alpha, k) == d_k(la, alpha, k)


def test_dk_from_shifted_rejects_negative():
    with pytest.raises(ValueError, match="k must be nonnegative"):
        dk_from_shifted(Partition((2,)), Fraction(1), -1)


def test_f_npk_conventions_match_abstract_family():
    la = Partition((3, 1))
    alpha = Fraction(2)
    assert f_npk(la, alpha, 0, 0, 0) == 1
    assert f_npk(la, alpha, 3, 1, 0) == 0
    assert f_npk(la, alpha, 2, 0, 5) == 0
    with pytest.raises(ValueError, match="p out of range"):
        f_npk(la, alpha, 2, 3, 1)
    # f_{n,0,k} under the name f_nk
    assert f_nk(la, alpha, 3, 2) == f_npk(la, alpha, 3, 0, 2)


def test_f_npk_first_values_by_hand():
    # n = k = 1: the only shape is (1), npbi = 1, z = 1, so f = d_1
    for alpha in ALPHAS:
        for la in (Partition((2, 1)), Partition((4,))):
            assert f_npk(la, alpha, 1, 0, 1) == d_k(la, alpha, 1)
            assert f_npk(la, alpha, 1, 1, 1) == d_k(la, alpha, 1)
    # n = 2, k = 1: shapes (2) with npbi((2),0,1) = 2, z = 2; (1,1) excluded
    # (its support starts at k = 2), so f = d_2
    la = Partition((3, 2))
    for alpha in ALPHAS:
        assert f_npk(la, alpha, 2, 0, 1) == d_k(la, alpha, 2)
        # k = 2 picks up (2) once and (1,1) with npbi = 1, z = 2
        assert f_npk(la, alpha, 2, 0, 2) == Fraction(1, 2) * (
            d_k(la, alpha, 2) + d_k(la, alpha, 1) ** 2
        )


def test_partition_factorials():
    la = Partition((2, 1))
    alpha = Fraction(1)
    x = UniPoly.x()
    up = raising_factorial_partition(x, la, alpha)
    down = lowering_factorial_partition(x, la, alpha)
    # contents at alpha = 1: 0, 1, -1
    assert up == x * (x + 1) * (x - 1)
    assert down == x * (x - 1) * (x + 1)
    assert raising_factorial_partition(Fraction(3), la, alpha) == 3 * 4 * 2


@settings(deadline=None, derandomize=True)
@given(shapes_small, st.sampled_from(ALPHAS), st.integers(0, 4))
def test_c_k_is_raising_factorial_coefficient(shape, alpha, k):
    n, pick = shape
    la = _shape(n, pick)
    x = UniPoly.x()
    poly = raising_factorial_partition(x, la, alpha)
    if k <= la.weight:
        assert poly.coefficient(la.weight - k) == c_k_generalized(la, alpha, k)
    else:
        assert c_k_generalized(la, alpha, k) == 0


@pytest.mark.parametrize("alpha", ALPHAS)
def test_big_c_k_is_inverse_lowering_expansion(alpha):
    # 1/[x]_la = x^{-|la|} sum_k C_k t^k with t = 1/x
    la = Partition((2, 2, 1))
    order = 6
    from ycalc.partitions import content_alphabet

    acc = linear_ratio_series((), [-c for c in content_alphabet(la, alpha)], order)
    for k in range(order + 1):
        assert acc.coefficient(k) == big_c_k_generalized(la, alpha, k)
