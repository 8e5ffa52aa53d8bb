"""Row and diagram binomial families against independent oracles.

The frozen nbi table below was worked out by hand from the closed sum
(n/k) sum_r C(p,r) C(n-p,r) C(n-r-1,k-r-1); the diagram family is
checked against a direct enumeration of cell subsets meeting every row.
"""

import itertools
import math
from fractions import Fraction

import pytest

from ycalc.coefficients import (
    gn_closed_forms,
    gn_series,
    jz_sides,
    nbi,
    nbi_from_hypergeometric,
    npbi,
    npbi_table,
    pbi,
    stirling_first,
    stirling_first_unsigned,
    stirling_inverse_t,
)
from ycalc.partitions import EMPTY, Partition, partitions_upto
from ycalc.series import XPolynomial, lowering_factorial

# (n, p, k) -> value, hand-derived
_NBI_FROZEN = {
    (1, 0, 1): 1,
    (1, 1, 1): 1,
    (2, 0, 1): 2,
    (2, 1, 1): 2,
    (2, 0, 2): 1,
    (2, 1, 2): 2,
    (2, 2, 2): 1,
    (3, 0, 1): 3,
    (3, 2, 1): 3,
    (3, 0, 2): 3,
    (3, 1, 2): 6,
    (3, 2, 2): 6,
    (3, 3, 2): 3,
    (3, 0, 3): 1,
    (3, 1, 3): 3,
    (3, 2, 3): 3,
    (4, 0, 2): 6,
    (4, 1, 2): 12,
    (4, 2, 2): 14,
    (4, 0, 3): 4,
    (4, 1, 3): 12,
    (4, 2, 3): 16,
    (4, 0, 4): 1,
    (4, 1, 4): 4,
    (4, 2, 4): 6,
}


def test_nbi_frozen_values():
    for (n, p, k), want in _NBI_FROZEN.items():
        assert nbi(n, p, k) == want, (n, p, k)


def test_nbi_reduces_to_plain_binomial_at_p0():
    import math

    for n in range(1, 9):
        for k in range(1, n + 1):
            assert nbi(n, 0, k) == math.comb(n, k)
            assert nbi(n, n, k) == math.comb(n, k)


def test_nbi_marking_symmetry():
    for n in range(1, 9):
        for p in range(n + 1):
            for k in range(1, n + 1):
                assert nbi(n, p, k) == nbi(n, n - p, k)


def test_nbi_domain_errors():
    with pytest.raises(ValueError, match="p out of range"):
        nbi(3, 4, 1)
    with pytest.raises(ValueError, match="p out of range"):
        nbi(3, -1, 1)
    with pytest.raises(ValueError, match="k must be positive"):
        nbi(3, 0, 0)
    assert nbi(3, 1, 7) == 0


def test_nbi_hypergeometric_route():
    # analytic generating function reproduces every entry and the zero tail
    for n in range(1, 7):
        for p in range(n + 1):
            nums, big_d = nbi_from_hypergeometric(n, p, order=n + 3)
            assert len(nums) == n + 4
            assert nums[0] == 0
            for k in range(1, n + 1):
                assert nums[k] == big_d * nbi(n, p, k)
            for k in range(n + 1, n + 4):
                assert nums[k] == 0


def _pbi_bruteforce(la: Partition, k: int) -> int:
    cells = list(la.cells())
    rows = set(range(1, la.length + 1))
    count = 0
    for sub in itertools.combinations(cells, k):
        if {i for i, _ in sub} == rows:
            count += 1
    return count


@pytest.mark.parametrize("la", [p for p in partitions_upto(5) if p.weight])
def test_pbi_counts_row_covering_subsets(la):
    for k in range(1, la.weight + 1):
        assert pbi(la, k) == _pbi_bruteforce(la, k)


def test_pbi_support_and_errors():
    la = Partition((3, 2))
    assert pbi(la, 1) == 0  # fewer cells than rows
    assert pbi(la, 6) == 0
    assert pbi(la, 5) == 1  # the whole diagram
    with pytest.raises(ValueError, match="k must be positive"):
        pbi(la, 0)


def test_npbi_reduces_to_single_row_and_pbi():
    for n in range(1, 7):
        row = Partition((n,))
        for p in range(n + 1):
            for k in range(1, n + 1):
                assert npbi(row, p, k) == nbi(n, p, k)
    for la in partitions_upto(6):
        if not la.weight:
            continue
        for k in range(1, la.weight + 1):
            assert npbi(la, 0, k) == pbi(la, k)


def test_npbi_support_window():
    la = Partition((3, 2, 1))
    table = npbi_table(la)
    ks = {k for (_, k) in table}
    assert min(ks) == la.length and max(ks) == la.weight
    for (p, k), v in table.items():
        assert v > 0
        assert 0 <= p <= la.weight
    # marking symmetry survives the row convolution
    for p in range(la.weight + 1):
        for k in range(1, la.weight + 1):
            assert npbi(la, p, k) == npbi(la, la.weight - p, k)


def test_npbi_entries_start_at_the_length():
    # each row of mu adds at least one to k, so npbi(mu, p, k) = 0 for
    # k < l(mu), so marked_row and shifted._k_formula, which iterate these
    # maps, reach no column k below the length of mu
    for la in partitions_upto(10):
        assert all(k >= la.length for (_, k) in npbi_table(la)), la


def _npbi_rows_reference(la):
    """Every nonzero npbi(la, p, k), convolving the rows' nbi tables one
    row at a time from the empty shape's {(0, 0): 1}."""
    table = {(0, 0): 1}
    for a in la.parts:
        nxt = {}
        for (p0, k0), c in table.items():
            for p in range(a + 1):
                for k in range(1, a + 1):
                    if nbi(a, p, k):
                        nxt[p0 + p, k0 + k] = nxt.get((p0 + p, k0 + k), 0) + c * nbi(a, p, k)
        table = nxt
    return table


def test_npbi_table_is_the_row_convolution(fresh_memos):
    # the tables are built from their prefixes' tables, which must give
    # the same entries in the same order as a convolution from scratch
    for la in partitions_upto(10):
        assert list(npbi_table(la).items()) == list(_npbi_rows_reference(la).items()), la


def test_npbi_table_of_a_long_shape(fresh_memos):
    # 500 rows from cold memos: the prefixes are built 100 rows at a time,
    # so the recursion stays within the interpreter's limit.  A column of
    # n cells has npbi(p, n) = C(n, p).
    assert npbi_table(Partition((1,) * 500)) == {(p, 500): math.comb(500, p) for p in range(501)}


def test_npbi_errors():
    la = Partition((2, 1))
    with pytest.raises(ValueError, match="p out of range"):
        npbi(la, 4, 2)
    with pytest.raises(ValueError, match="k must be positive"):
        npbi(la, 0, 0)


@pytest.mark.parametrize("n", range(1, 7))
def test_gn_closed_form_matches_table(n):
    # each polynomial is cut at order 2n from one recurrence run at order 12
    closed = gn_closed_forms(6)[n - 1]
    assert closed.order == 2 * n
    assert closed.rows == gn_series(n, 2 * n).rows


def test_gn_small_cases_by_hand():
    (g1,) = gn_closed_forms(1)
    # single cell: one subset, marked or not -> x + xy
    assert g1.rows[0][1] == 1
    assert g1.rows[1][1] == 1
    assert sum(1 for row in g1.rows for c in row if c) == 2
    # no positive n up to 0; a negative bound is no order
    assert gn_closed_forms(0) == []
    with pytest.raises(ValueError):
        gn_closed_forms(-1)


def test_stirling_first_kind():
    # (x)_4 = x^4 + 6x^3 + 11x^2 + 6x
    assert [stirling_first_unsigned(4, k) for k in range(5)] == [0, 6, 11, 6, 1]
    assert stirling_first(4, 2) == 11
    assert stirling_first_unsigned(5, 2) == 50
    assert stirling_first(5, 2) == -50
    assert stirling_first(5, 3) == 35
    assert stirling_first_unsigned(0, 0) == 1
    assert stirling_first_unsigned(3, 5) == 0


def _x0_coefficient(poly: XPolynomial, e: int):
    return poly.terms.get((e, ()), 0)


@pytest.mark.parametrize("n", range(7))
def test_stirling_generating_polynomials(n):
    x = XPolynomial.x0()
    up = lowering_factorial(x + n - 1, n)  # the raising factorial (x)_n
    down = lowering_factorial(x, n)
    for k in range(n + 1):
        assert _x0_coefficient(up, k) == stirling_first_unsigned(n, k)
        assert _x0_coefficient(down, k) == stirling_first(n, k)


@pytest.mark.parametrize("k", range(7))
def test_stirling_inverse_expands_powers(k):
    # x^k = sum_m t(k, m) [x]_m
    x = XPolynomial.x0()
    acc = XPolynomial()
    for m in range(k + 1):
        acc = acc + lowering_factorial(x, m) * stirling_inverse_t(k, m)
    assert acc == XPolynomial({(k, ()): 1})
    assert stirling_inverse_t(4, 2) == 7


def test_jz_sides_agree():
    for mu in partitions_upto(5):
        for n in range(1, 7):
            lhs, rhs = jz_sides(mu, n)
            assert lhs == rhs, (mu, n)


def _jz_sides_reference(mu, n):
    """Both sides summed as XPolynomial binomials in X0, over Fractions."""
    x = XPolynomial.x0()
    lhs = rhs = XPolynomial()
    for k in range(mu.length, min(n, mu.weight) + 1):
        c = 1 if k == 0 else pbi(mu, k)
        lhs = lhs + lowering_factorial(x - mu.weight, n - k) * Fraction(c, math.factorial(n - k))
        rhs = rhs + lowering_factorial(x - k, n - k) * Fraction((-1) ** (k - mu.length) * c, math.factorial(n - k))
    return lhs, rhs


def _over_factorial(side, n):
    """An integer list over n!, entry e at X0^e, as an XPolynomial."""
    return XPolynomial({(e, ()): Fraction(v, math.factorial(n)) for e, v in enumerate(side)})


def test_jz_sides_match_fraction_reference():
    # a fault shared by both sides passes test_jz_sides_agree, not this
    for mu in partitions_upto(6):
        for n in range(0, 9):
            sides = jz_sides(mu, n)
            assert all(len(side) == n + 1 and all(type(v) is int for v in side) for side in sides), (mu, n)
            assert tuple(_over_factorial(side, n) for side in sides) == _jz_sides_reference(mu, n), (mu, n)


def test_jz_empty_shape_is_plain_binomial():
    # both sides are C(X0, 4) = [X0]_4 / 4!, over 4!
    lhs, rhs = jz_sides(EMPTY, 4)
    assert lhs == rhs == [stirling_first(4, e) for e in range(5)]
