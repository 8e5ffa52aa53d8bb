"""Transition atoms, corner weights, and the three moment routes.

Low moments are pinned to their published closed forms:
    s_0 = 1, s_1 = 0, s_2 = |la|/alpha,
    s_3 = 2 d_1/alpha + |la|(alpha-1)/alpha^2,
    sigma_0 = |la|, sigma_1 = 2 d_1 + |la|,
    sigma_2 = 3 d_2 + (3 + 1/alpha) d_1 + |la| - C(|la|, 2)/alpha.
Everything else is route-against-route agreement.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ycalc.moments import (
    chu_vandermonde_sides,
    content_ratio_series,
    cor52_coefficient,
    corner_binomials,
    h_series_of_difference,
    lagrange_interpolation_sum,
    pieri_coefficients,
    row_column_binomials,
    s_moment_series,
    s_r_closed,
    s_r_direct,
    s_r_from_u,
    s_r_lagrange,
    sigma_moment_series,
    sigma_r_closed,
    sigma_r_direct,
    sigma_r_lagrange,
    stirling_inverse_lemma_sides,
    u_ijk_coefficients,
)
from ycalc.partitions import EMPTY, Partition, enumerate_partitions, partitions_upto
from ycalc.series import comb_int
from ycalc.shifted import d_k

ALPHAS = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 5))
SHAPES = [la for la in partitions_upto(6)]


def test_pieri_empty_and_single_cell():
    assert pieri_coefficients(EMPTY, Fraction(1)) == ((1, Fraction(1)),)
    for alpha in ALPHAS:
        atoms = dict(pieri_coefficients(Partition((1,)), alpha))
        # appending beside the cell has weight 1/(alpha+1), below it alpha/(alpha+1)
        assert atoms == {1: 1 / (alpha + 1), 2: alpha / (alpha + 1)}


def test_pieri_frozen_at_alpha_one():
    assert dict(pieri_coefficients(Partition((2,)), Fraction(1))) == {
        1: Fraction(1, 3),
        2: Fraction(2, 3),
    }
    assert dict(pieri_coefficients(Partition((2, 2)), Fraction(1))) == {
        1: Fraction(1, 2),
        3: Fraction(1, 2),
    }


@pytest.mark.parametrize("alpha", ALPHAS)
def test_pieri_normalization_and_support(alpha):
    for la in SHAPES:
        atoms = pieri_coefficients(la, alpha)
        assert {i for i, _ in atoms} == set(la.addable_rows())
        total = sum((w for _, w in atoms), Fraction(0))
        assert total == 1
        assert all(w > 0 for _, w in atoms)


def test_corner_weights_sum_to_cell_count():
    for alpha in ALPHAS:
        for la in SHAPES:
            if not la.weight:
                assert corner_binomials(la, alpha) == ()
                continue
            atoms = corner_binomials(la, alpha)
            assert {i for i, _ in atoms} == set(la.removable_rows())
            assert sum((w for _, w in atoms), Fraction(0)) == la.weight
    assert dict(corner_binomials(Partition((2, 2)), Fraction(1))) == {2: Fraction(4)}


@pytest.mark.parametrize("alpha", ALPHAS)
def test_s_low_moments_pinned(alpha):
    for la in SHAPES:
        w = la.weight
        assert s_r_direct(la, alpha, 0) == 1
        assert s_r_direct(la, alpha, 1) == 0
        assert s_r_direct(la, alpha, 2) == Fraction(w) / alpha
        want3 = 2 * d_k(la, alpha, 1) / alpha + w * (alpha - 1) / alpha**2
        assert s_r_direct(la, alpha, 3) == want3


@pytest.mark.parametrize("alpha", ALPHAS)
def test_sigma_low_moments_pinned(alpha):
    for la in SHAPES:
        w = la.weight
        assert sigma_r_direct(la, alpha, 0) == w
        assert sigma_r_direct(la, alpha, 1) == 2 * d_k(la, alpha, 1) + w
        want2 = (
            3 * d_k(la, alpha, 2)
            + (3 + 1 / alpha) * d_k(la, alpha, 1)
            + w
            - Fraction(comb_int(w, 2)) / alpha
        )
        assert sigma_r_direct(la, alpha, 2) == want2


@pytest.mark.parametrize("alpha", ALPHAS)
def test_s_three_routes_agree(alpha):
    for la in SHAPES:
        for r in range(7):
            direct = s_r_direct(la, alpha, r)
            assert s_r_closed(la, alpha, r) == direct, (la, r)
            assert s_r_lagrange(la, alpha, r) == direct, (la, r)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_sigma_three_routes_agree(alpha):
    for la in SHAPES:
        for r in range(6):
            direct = sigma_r_direct(la, alpha, r)
            assert sigma_r_closed(la, alpha, r) == direct, (la, r)
            assert sigma_r_lagrange(la, alpha, r) == direct, (la, r)


def test_s_regrouped_route_agrees():
    for alpha in (Fraction(2), Fraction(3, 5)):
        for la in partitions_upto(5):
            for r in range(6):
                assert s_r_from_u(la, alpha, r) == s_r_direct(la, alpha, r)


def test_u_coefficients_are_nonnegative_integers():
    for r in range(8):
        for i in range(r // 2 + 1):
            for j in range(r - 2 * i + 1):
                for k in range(min(i, j) + 1):
                    for rho in enumerate_partitions(j):
                        u = u_ijk_coefficients(r, i, j, k, rho)
                        assert isinstance(u, int) and u >= 0


def test_u_empty_inner_shape_reduction():
    # j = 0 forces k = 0 and the sum collapses to one binomial
    for r in range(8):
        for i in range(r // 2 + 1):
            assert u_ijk_coefficients(r, i, 0, 0, EMPTY) == comb_int(
                r - i - 1, r - 2 * i
            )


def test_u_domain_errors():
    with pytest.raises(ValueError, match="weight j"):
        u_ijk_coefficients(4, 1, 2, 1, Partition((1,)))
    with pytest.raises(ValueError, match="k out of range"):
        u_ijk_coefficients(4, 1, 1, 2, Partition((1,)))
    with pytest.raises(ValueError):
        u_ijk_coefficients(2, 1, 1, 0, Partition((1,)))  # r - 2i - j < 0


def test_cor52_leading_coefficients():
    for alpha in ALPHAS:
        for y in (Fraction(1), Fraction(-1, 3), Fraction(5, 7)):
            for la in partitions_upto(4):
                assert cor52_coefficient(la, alpha, y, 0) == 1
                assert cor52_coefficient(la, alpha, y, 1) == 0


@pytest.mark.parametrize("alpha", ALPHAS)
def test_content_ratio_series_matches_collected_coefficients(alpha):
    y = Fraction(5, 7)
    for la in partitions_upto(4):
        series = content_ratio_series(la, alpha, y, order=6)
        for r in range(7):
            want = cor52_coefficient(la, alpha, y, r) * (-1) ** r
            assert series.coefficient(r) == want, (la, r)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_moment_generating_series(alpha):
    for la in partitions_upto(4):
        s_series = s_moment_series(la, alpha, order=6)
        for r in range(7):
            assert s_series.coefficient(r) == (-1) ** r * s_r_direct(la, alpha, r)
        sig_series = sigma_moment_series(la, alpha, order=5)
        for r in range(6):
            assert sig_series.coefficient(r) == (-1) ** r * sigma_r_direct(
                la, alpha, r
            )


def test_lagrange_h_series_small():
    # {x} minus the empty alphabet: plain geometric series
    s = h_series_of_difference((Fraction(3),), (), 4)
    assert [s.coefficient(k) for k in range(5)] == [1, 3, 9, 27, 81]


@settings(deadline=None, derandomize=True)
@given(
    st.lists(st.integers(-6, 6), min_size=1, max_size=4, unique=True),
    st.lists(st.integers(-6, 6), max_size=4),
    st.integers(0, 5),
)
def test_lagrange_interpolation_lemma(a, b, r):
    # sum_{x in A} x^r prod_B (x-b) / prod_{x'!=x} (x-x') = h_{r+|B|-|A|+1}(A-B)
    a = [Fraction(v) for v in a]
    b = [Fraction(v) for v in b]
    idx = r + len(b) - len(a) + 1
    if idx < 0:
        want = Fraction(0)
    else:
        want = h_series_of_difference(a, b, max(idx, 0)).coefficient(idx)
    assert lagrange_interpolation_sum(a, b, r) == want


def test_lagrange_rejects_repeated_nodes():
    with pytest.raises(ValueError, match="distinct"):
        lagrange_interpolation_sum((Fraction(1), Fraction(1)), (), 2)


def test_sigma_lagrange_first_difference_is_minus_one():
    # h_1(A - B) = sum A - sum B = -1 for every corner alphabet pair
    from ycalc.moments import sigma_lagrange_alphabets

    for alpha in ALPHAS:
        for la in SHAPES:
            a, b = sigma_lagrange_alphabets(la, alpha)
            assert sum(a) - sum(b) == -1


def test_row_column_binomials_basics():
    for alpha in ALPHAS:
        for la in partitions_upto(5):
            assert row_column_binomials(la, alpha, 0) == (Fraction(1), Fraction(1))
            if la.weight:
                row1, col1 = row_column_binomials(la, alpha, 1)
                assert row1 == la.weight and col1 == la.weight
            # support: rows cap at la_1, columns at l(la)
            row_big, col_big = row_column_binomials(la, alpha, la.weight + 1)
            assert row_big == 0 and col_big == 0
            if la.weight:
                _, col = row_column_binomials(la, alpha, la.length + 1)
                assert col == 0
                row, _ = row_column_binomials(la, alpha, la.part(1) + 1)
                assert row == 0


def test_row_binomial_single_row_is_plain_binomial():
    for alpha in ALPHAS:
        for n in range(1, 6):
            for p in range(n + 2):
                row, _ = row_column_binomials(Partition((n,)), alpha, p)
                assert row == comb_int(n, p)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_row_column_conjugation_duality(alpha):
    for la in partitions_upto(5):
        for p in range(la.weight + 1):
            row, _ = row_column_binomials(la, alpha, p)
            _, col = row_column_binomials(la.conjugate(), 1 / alpha, p)
            assert row == col, (la, p)


def test_chu_vandermonde_pole_handling():
    la = Partition((2, 1))
    alpha = Fraction(2)
    # y = 0 puts a zero in the denominator product
    assert chu_vandermonde_sides(la, alpha, Fraction(0)) is None
    sides = chu_vandermonde_sides(la, alpha, Fraction(5, 7))
    assert sides is not None
    lhs, rhs = sides
    assert lhs == rhs


@pytest.mark.parametrize("alpha", ALPHAS)
def test_chu_vandermonde_generic_values(alpha):
    for la in partitions_upto(4):
        for y in (Fraction(2), Fraction(-1, 3), Fraction(5, 7)):
            sides = chu_vandermonde_sides(la, alpha, y)
            if sides is None:
                continue
            assert sides[0] == sides[1], (la, y)


@pytest.mark.parametrize("k", range(1, 6))
def test_stirling_inverse_lemma(k):
    lhs, rhs = stirling_inverse_lemma_sides(k, order=8)
    assert lhs == rhs
