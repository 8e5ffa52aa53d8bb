import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ycalc.partitions import (
    EMPTY,
    Partition,
    check_alpha,
    content_numerators,
    enumerate_partitions,
    partitions_of,
    partitions_upto,
    z_of,
)
from ycalc.series import XPolynomial, lowering_factorial


def _partition_count_oracle(n: int) -> int:
    # Euler DP over max part, independent of the enumeration code
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for m in range(n + 1):
        table[m][0] = 1
    for m in range(1, n + 1):
        for s in range(1, n + 1):
            table[m][s] = table[m - 1][s] + (table[m][s - m] if s >= m else 0)
    return table[n][n]


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition.from_string("2,x")


def test_parts_must_be_integers():
    # no part is truncated or parsed: 2.5 is not 2, and "3" is not 3
    for parts in ((2.5, 1), (2.0,), ["3", "1"], (2, None)):
        with pytest.raises(TypeError):
            Partition(parts)


def test_from_string_and_str_roundtrip():
    assert Partition.from_string("3,2,1").parts == (3, 2, 1)
    assert Partition.from_string("0") == EMPTY
    assert Partition.from_string("") == EMPTY
    assert str(Partition((4, 1))) == "4,1"
    assert str(EMPTY) == "0"


def test_basic_accessors():
    la = Partition((4, 2, 2))
    assert la.weight == 8
    assert la.length == 3
    assert la.part(1) == 4
    assert la.part(5) == 0
    with pytest.raises(ValueError):
        la.part(0)
    assert la.multiplicities() == {4: 1, 2: 2}
    assert list(la.cells())[:5] == [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1)]
    assert len(list(la.cells())) == 8


def test_reverse_lex_enumeration():
    got = list(partitions_of(4))
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(partitions_of(0)) == [()]


@pytest.mark.parametrize("n", range(11))
def test_partition_counts_match_dp_oracle(n):
    assert len(enumerate_partitions(n)) == _partition_count_oracle(n)


def test_partitions_upto_ordering():
    shapes = partitions_upto(3)
    assert [s.parts for s in shapes] == [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
    assert [s.weight for s in shapes] == sorted(s.weight for s in shapes)


def test_conjugate():
    assert Partition((4, 2, 1)).conjugate().parts == (3, 2, 1, 1)
    assert EMPTY.conjugate() == EMPTY


@settings(deadline=None, derandomize=True)
@given(st.integers(0, 9), st.integers(0, 200))
def test_conjugate_involution(n, pick):
    shapes = enumerate_partitions(n)
    la = shapes[pick % len(shapes)]
    assert la.conjugate().conjugate() == la
    assert la.conjugate().weight == la.weight


def test_addable_removable_rows():
    la = Partition((3, 3, 1))
    assert la.addable_rows() == (1, 3, 4)
    assert la.removable_rows() == (2, 3)
    assert EMPTY.addable_rows() == (1,)
    assert EMPTY.removable_rows() == ()
    assert la.add_cell(4).parts == (3, 3, 1, 1)
    assert la.remove_cell(3).parts == (3, 3)
    with pytest.raises(ValueError):
        la.add_cell(2)
    with pytest.raises(ValueError):
        la.remove_cell(1)


@settings(deadline=None, derandomize=True)
@given(st.integers(0, 8), st.integers(0, 200))
def test_add_remove_roundtrip(n, pick):
    shapes = enumerate_partitions(n)
    la = shapes[pick % len(shapes)]
    for i in la.addable_rows():
        up = la.add_cell(i)
        assert up.weight == n + 1
        assert up.remove_cell(i) == la
    # adding in some row and conjugating = conjugating then adding a column
    for i in la.addable_rows():
        up = la.add_cell(i)
        assert up.conjugate().parts == la.conjugate().add_cell(la.part(i) + 1).parts


def _outcome(method, la: Partition, row: int):
    try:
        return method(la, row).parts
    except ValueError as exc:
        return str(exc)


def _listed_add_cell(la: Partition, row: int) -> Partition:
    """Reference add_cell: the row looked up in addable_rows(), the result checked by __init__."""
    if row not in la.addable_rows():
        raise ValueError(f"row {row} is not addable on {la}")
    parts = list(la.parts)
    if row == len(parts) + 1:
        parts.append(1)
    else:
        parts[row - 1] += 1
    return Partition(parts)


def _listed_remove_cell(la: Partition, row: int) -> Partition:
    """Reference remove_cell: the row looked up in removable_rows(), the result checked by __init__."""
    if row not in la.removable_rows():
        raise ValueError(f"row {row} is not removable on {la}")
    parts = list(la.parts)
    parts[row - 1] -= 1
    if parts[row - 1] == 0:
        parts.pop()
    return Partition(parts)


def test_add_and_remove_cell_match_the_listed_rows():
    # Every shape of size <= 8 and every row 1..l+2 (and two below 1):
    # the same partition, or the same ValueError message.
    for la in partitions_upto(8):
        for row in range(-1, la.length + 3):
            assert _outcome(Partition.add_cell, la, row) == _outcome(_listed_add_cell, la, row)
            assert _outcome(Partition.remove_cell, la, row) == _outcome(_listed_remove_cell, la, row)


def test_z_values():
    assert z_of(EMPTY) == 1
    assert z_of(Partition((3,))) == 3
    assert z_of(Partition((1, 1, 1))) == 6
    assert z_of(Partition((2, 2))) == 8
    assert z_of(Partition((3, 1))) == 3
    assert z_of(Partition((2, 1, 1))) == 4


@pytest.mark.parametrize("n", range(1, 9))
def test_z_class_equation(n):
    # sum over |mu| = n of 1/z_mu = 1  (conjugacy class sizes fill S_n)
    total = sum(Fraction(1, z_of(mu)) for mu in enumerate_partitions(n))
    assert total == 1


@pytest.mark.parametrize("n", range(1, 8))
def test_z_length_generating_polynomial(n):
    # sum x^{l(mu)}/z_mu = (x)_n / n! as polynomials
    lhs = [Fraction(0)] * (n + 1)
    for mu in enumerate_partitions(n):
        lhs[mu.length] += Fraction(1, z_of(mu))
    rhs = lowering_factorial(XPolynomial.x0() + n - 1, n) * Fraction(1, math.factorial(n))
    assert XPolynomial({(e, ()): c for e, c in enumerate(lhs)}) == rhs


def test_check_alpha():
    assert check_alpha(Fraction(3, 5)) == Fraction(3, 5)
    with pytest.raises(ValueError, match="alpha must be positive"):
        check_alpha(Fraction(0))
    with pytest.raises(ValueError, match="alpha must be positive"):
        check_alpha(Fraction(-1, 2))
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha must be a finite rational"):
            check_alpha(bad)
    # a bool is not a number here, though Fraction(True) is 1
    for bad in (True, False):
        with pytest.raises(ValueError, match="alpha must be a finite rational"):
            check_alpha(bad)


def test_content_numerators_values():
    # the contents (j-1) - (i-1)/alpha over a, alpha = a/b
    la = Partition((2, 2))
    assert content_numerators(la, Fraction(1)) == (0, 1, -1, 0)
    assert content_numerators(la, Fraction(3, 5)) == (0, 3, -5, -2)
    assert content_numerators(Partition((3, 1)), Fraction(2)) == (0, 2, 4, -1)
    # a single row has integer contents 0..n-1 at every alpha
    for alpha in (Fraction(1), Fraction(2), Fraction(3, 5)):
        assert content_numerators(Partition((4,)), alpha) == tuple(j * alpha.numerator for j in range(4))


@settings(deadline=None, derandomize=True)
@given(st.integers(0, 7), st.integers(0, 200), st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 5)]))
def test_content_numerators_conjugation(n, pick, alpha):
    # contents of the conjugate at 1/alpha are -alpha times the originals,
    # so over b their numerators are the originals' negated
    shapes = enumerate_partitions(n)
    la = shapes[pick % len(shapes)]
    orig = sorted(content_numerators(la, alpha))
    dual = sorted(content_numerators(la.conjugate(), 1 / alpha))
    assert dual == sorted(-x for x in orig)
