"""Transition atoms, corner weights, and the three moment routes.

Low moments are pinned to their published closed forms:
    s_0 = 1, s_1 = 0, s_2 = |la|/alpha,
    s_3 = 2 d_1/alpha + |la|(alpha-1)/alpha^2,
    sigma_0 = |la|, sigma_1 = 2 d_1 + |la|,
    sigma_2 = 3 d_2 + (3 + 1/alpha) d_1 + |la| - C(|la|, 2)/alpha.
Everything else is route-against-route agreement.
"""

import gc
import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import content_ratio_reference, formula_value_reference, linear_ratio_reference, s_regrouped_reference

from ycalc.moments import (
    S_ROUTES,
    SIGMA_ROUTES,
    _content_ratio_integers,
    _cor52_numerators,
    _corner_row_values,
    _pieri_row_values,
    _s_regrouped,
    _sigma_series_numerators,
    _u_table,
    chu_vandermonde_sides,
    corner_binomials,
    moment_values,
    pieri_coefficients,
    row_column_binomials,
    stirling_inverse_lemma_sides,
    u_ijk_coefficients,
)
from ycalc import moments, partitions, shifted
from ycalc.coefficients import npbi_table, stirling_first
from ycalc.partitions import EMPTY, Partition, enumerate_partitions, partitions_upto, z_of
from ycalc.series import InvariantError, comb_int, lowering_factorial
from ycalc.shifted import _MomentTable, d_k, moment_table
from ycalc.verify import DEFAULT_ALPHA_SET, DEFAULT_Y_SET, _thm51_right_side, _thm51_terms

ALPHAS = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 5))
KERNEL_ALPHAS = DEFAULT_ALPHA_SET + (Fraction(7, 3),)
SHAPES = [la for la in partitions_upto(6)]


def _binomials(la, alpha, p_max):
    """row_column_binomials as Fraction pairs (row_p, col_p)."""
    return [(Fraction(row, row_den), Fraction(col, col_den)) for row, row_den, col, col_den in row_column_binomials(la, alpha, p_max)]


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


def _pieri_row_reference(la, alpha, i):
    """The row-i formula factor by factor in Fractions."""
    l = la.length
    li = Fraction(la.part(i))
    val = Fraction(1) / (alpha * li + l - i + 2)
    for j in range(1, l + 2):
        if j != i:
            diff = alpha * (li - la.part(j))
            val *= Fraction(diff + j - i + 1) / (diff + j - i)
    return val


def _corner_row_reference(la, alpha, i):
    """The corner formula factor by factor in Fractions."""
    l = la.length
    li = Fraction(la.parts[i - 1])
    val = li + Fraction(l - i) / alpha
    for j in range(1, l + 1):
        if j != i:
            diff = alpha * (li - la.parts[j - 1])
            val *= Fraction(diff + j - i - 1) / (diff + j - i)
    return val


# Shapes with long runs of equal parts, where the block evaluation
# telescopes many factors at once.
LONG_BLOCKS = (Partition((1,) * 12), Partition((3,) * 5), Partition((4, 4, 4, 2, 2, 2, 2)))


@pytest.mark.parametrize("alpha", KERNEL_ALPHAS)
def test_integer_kernels_match_fraction_formulas(alpha):
    a, b = alpha.numerator, alpha.denominator
    for la in list(partitions_upto(10)) + list(LONG_BLOCKS):
        rows = [Fraction(num, den) for num, den in _pieri_row_values(la, a, b)]
        assert rows == [_pieri_row_reference(la, alpha, i) for i in range(1, la.length + 2)], la
        corners = [Fraction(num, den) for num, den in _corner_row_values(la, a, b)]
        assert corners == [_corner_row_reference(la, alpha, i) for i in range(1, la.length + 1)], la


def test_corner_linear_factor_is_checked(fresh_memos, monkeypatch):
    # alpha = -1 let past check_alpha: on row 1 of the shape 2,1 the
    # block factor a*(la_1 - la_2) + b*1 of the corner formula vanishes.
    monkeypatch.setattr(partitions, "check_alpha", Fraction)
    with pytest.raises(InvariantError, match="nonvanishing linear factor violated"):
        corner_binomials(Partition((2, 1)), Fraction(-1))


def test_corner_weight_on_non_removable_row_is_rejected(fresh_memos, monkeypatch):
    # Row 1 of the shape 1,1 cannot lose a cell; give it a weight.
    corner_values = moments._corner_row_values

    def leaky(la, a, b):
        values = corner_values(la, a, b)
        return [(1, 1)] + values[1:] if la.parts == (1, 1) else values

    monkeypatch.setattr(moments, "_corner_row_values", leaky)
    with pytest.raises(InvariantError, match="corner weight fails to vanish on row 1 of 1,1"):
        corner_binomials(Partition((1, 1)), Fraction(1))


def test_corner_weights_must_sum_to_the_cell_count(fresh_memos, monkeypatch):
    # Weights 1 and 3 on the two corners of 2,1, given as raw pairs with
    # signs on both parts, are nonnegative but sum to |la| + 1 = 4.
    corner_values = moments._corner_row_values

    def heavy(la, a, b):
        return [(-2, -2), (9, 3)] if la.parts == (2, 1) else corner_values(la, a, b)

    monkeypatch.setattr(moments, "_corner_row_values", heavy)
    with pytest.raises(InvariantError, match="corner weights of 2,1 sum to 4"):
        corner_binomials(Partition((2, 1)), Fraction(1))


def test_corner_pair_negative_over_negative_is_a_weight():
    # Row 2 of 2,1 at alpha = 1 is the raw pair (-3, -2), the weight 3/2;
    # a sign test on the numerator alone would reject it.
    la, one = Partition((2, 1)), Fraction(1)
    assert _corner_row_values(la, 1, 1)[1] == (-3, -2)
    assert dict(corner_binomials(la, one))[2] == Fraction(3, 2)


# Fraction definitions of the moment polynomials and of the closed routes,
# kept as references for the integer table that replaced them.


def _contents(la, alpha):
    """The alpha-contents (j-1) - (i-1)/alpha of la's cells, row-major."""
    return tuple(Fraction(j - 1) - Fraction(i - 1) / alpha for i, j in la.cells())


@lru_cache(maxsize=None)
def _d_reference(la, alpha, k):
    if k == 0:
        return Fraction(la.weight)
    return sum((c**k for c in _contents(la, alpha)), Fraction(0))


@lru_cache(maxsize=None)
def _d_over_z_reference(la, alpha, n):
    """d_mu / z_mu for mu over enumerate_partitions(n), memoized per (shape, alpha, n)."""
    out = []
    for mu in enumerate_partitions(n):
        d_mu = Fraction(1)
        for part in mu.parts:
            d_mu *= _d_reference(la, alpha, part)
        out.append(d_mu / z_of(mu))
    return tuple(out)


@lru_cache(maxsize=None)
def _f_reference_row(la, alpha, n):
    """{(p, k): f_npk} from f = sum over mu |- n of npbi(mu, p, k) d_mu / z_mu,
    summed in integers over the lcm of the weights' denominators."""
    weights = _d_over_z_reference(la, alpha, n)
    den = math.lcm(*(w.denominator for w in weights))
    out = {}
    for mu, weight in zip(enumerate_partitions(n), weights):
        v = weight.numerator * (den // weight.denominator)
        for key, c in npbi_table(mu).items():
            out[key] = out.get(key, 0) + c * v
    return {key: Fraction(v, den) for key, v in out.items()}


def _f_reference(la, alpha, n, p, k):
    if k == 0:
        return Fraction(1) if n == 0 else Fraction(0)
    if n == 0 or k > n:
        return Fraction(0)
    return _f_reference_row(la, alpha, n).get((p, k), Fraction(0))


@lru_cache(maxsize=None)
def _k_sum_reference(la, alpha, n, nn, q):
    """The inner sum of the collected form, which depends on neither y nor r."""
    inner = Fraction(0)
    for k in range(0, min(n, nn) + 1):
        f = _f_reference(la, alpha, nn, q, k)
        if f:
            inner += comb_int(la.weight + n - 1, n - k) * f
    return inner


@lru_cache(maxsize=None)
def _k_integer_reference(la, alpha, n, nn, q):
    """K(n, nn)[q] at shift n-1, the k-sum over the integers
    A[nn][q][k] = nn! a^nn f_{nn,q,k}: _k_sum_reference times nn! a^nn."""
    v = _k_sum_reference(la, alpha, n, nn, q) * math.factorial(nn) * alpha.numerator**nn
    assert v.denominator == 1
    return v.numerator


@lru_cache(maxsize=None)
def _q_sum_reference(la, alpha, n, p, nn):
    """sum over q of C(n+p+q-1, p) times the k-sum; independent of y."""
    total = Fraction(0)
    for q in range(0, nn + 1):
        inner = _k_sum_reference(la, alpha, n, nn, q)
        if inner:
            total += comb_int(n + p + q - 1, p) * inner
    return total


@lru_cache(maxsize=None)
def _y_weight_reference(y, n, p):
    return (-y) ** n * (y + 1) ** p


def _cor52_reference(la, alpha, y, r):
    total = Fraction(0)
    for n in range(0, r // 2 + 1):
        for p in range(0, r - 2 * n + 1):
            weight = _y_weight_reference(y, n, p)
            if weight:
                inner = _q_sum_reference(la, alpha, n, p, r - 2 * n - p)
                if inner:
                    total += weight * inner
    return total


_u_reference = lru_cache(maxsize=None)(u_ijk_coefficients)


def _ad_scaled(values, alpha, y):
    """c_0, c_1, ... times (a d)^r r! at y = c/d, as _cor52_numerators gives them."""
    ad = alpha.numerator * y.denominator
    return [v * ad**r * math.factorial(r) for r, v in enumerate(values)]


def _content_ratio(la, alpha, y, order):
    """The content-ratio series from its integer numerators, over (a d)^i."""
    ad = alpha.numerator * y.denominator
    return [Fraction(v, ad**i) for i, v in enumerate(_content_ratio_integers(la, alpha, y.numerator, y.denominator, order))]


def _sigma_series(la, alpha, order):
    """The corner-moment series from its integer numerators, over b a^(2r+4)."""
    a, b = alpha.numerator, alpha.denominator
    return [Fraction(v, b * a ** (2 * r + 4)) for r, v in enumerate(_sigma_series_numerators(la, alpha, order))]


def _s_regrouped_reference(la, alpha, r):
    w = la.weight
    total = Fraction(0)
    for i in range(0, r // 2 + 1):
        for j in range(0, r - 2 * i + 1):
            weight = Fraction(1) / alpha**i * (1 - Fraction(1) / alpha) ** (r - 2 * i - j)
            for k in range(0, min(i, j) + 1):
                for rho, d_over_z in zip(enumerate_partitions(j), _d_over_z_reference(la, alpha, j)):
                    u = _u_reference(r, i, j, k, rho)
                    if not u:
                        continue
                    total += weight * comb_int(w + i - 1, i - k) * u * d_over_z
    return total


def _row_column_reference(la, alpha, p):
    if p == 0:
        return Fraction(1), Fraction(1)
    w = la.weight
    row_sum = Fraction(0)
    col_sum = Fraction(0)
    for i in range(0, p + 1):
        for j in range(0, p - i + 1):
            if i + j < 1:
                continue
            st = stirling_first(p - 1, i + j - 1)
            inner = Fraction(0)
            for k in range(0, min(i, j) + 1):
                inner += comb_int(w - j, i - k) * _f_reference(la, alpha, j, 0, k)
            row_sum += Fraction(st) / alpha**i * inner
            col_sum += Fraction(st) * (-1) ** j * alpha ** (i + j) * inner
    # (x)_p = [x + p - 1]_p
    return row_sum / lowering_factorial(1 / alpha + p - 1, p), col_sum / lowering_factorial(alpha + p - 1, p)


@pytest.mark.parametrize("alpha", KERNEL_ALPHAS)
def test_moment_table_matches_fraction_definitions(alpha):
    for la in partitions_upto(6):
        for k in range(11):
            assert d_k(la, alpha, k) == _d_reference(la, alpha, k), (la, k)
        # K(n, m)[p] = sum over k of C(|la| + shift, n - k) A[m][p][k], with
        # A[m][p][k] = m! a^m f_{m,p,k}; over n = 0 .. m it is triangular in k
        table = moment_table(la, alpha)
        for n in range(11):
            for m in range(11 - n):
                scale = math.factorial(m) * table.a**m
                for shift in (n - 1, -m):
                    formula = shifted._k_formula(n, m, shift, m)
                    assert len(formula) == m + 1, (n, m, shift)
                    for p, terms in enumerate(formula):
                        got = Fraction(formula_value_reference(terms, table.power_sum), math.factorial(n))
                        ks = range(min(n, m) + 1)
                        want = sum((comb_int(la.weight + shift, n - k) * _f_reference(la, alpha, m, p, k) for k in ks), Fraction(0))
                        assert got == want * scale, (la, n, m, shift, p)


@pytest.mark.parametrize("alpha", KERNEL_ALPHAS)
def test_closed_routes_match_fraction_loops(alpha):
    # y = -1 makes every (y+1)^p with p > 0 vanish; +-1/alpha are the
    # values the s and sigma routes use.
    ys = set(DEFAULT_Y_SET + (1 / alpha, -1 / alpha, Fraction(0), Fraction(-1)))
    for la in partitions_upto(6):
        for y in ys:
            cs = _cor52_numerators(moment_table(la, alpha), y.numerator, y.denominator, 10)
            assert cs == _ad_scaled([_cor52_reference(la, alpha, y, r) for r in range(11)], alpha, y), (la, y)
        regrouped = moment_values(_s_regrouped, la, alpha, 10)
        assert regrouped == [_s_regrouped_reference(la, alpha, r) for r in range(11)], la
        pairs = _binomials(la, alpha, la.weight + 1)
        assert pairs == [_row_column_reference(la, alpha, p) for p in range(la.weight + 2)], la


def _s_lagrange_reference(la, alpha, r_max):
    """s_0 .. s_r_max from the Fraction row-end alphabets."""
    l = la.length
    tops = [alpha * la.part(i) - i + 1 for i in range(1, l + 2)]
    bottoms = [alpha * la.part(i) - i for i in range(1, l + 1)]
    h = linear_ratio_reference([-v for v in bottoms], [-v for v in tops], r_max)
    return [h[r] / alpha**r for r in range(r_max + 1)]


def _sigma_lagrange_reference(la, alpha, r_max):
    """sigma_0 .. sigma_r_max from the Fraction corner alphabets."""
    l = la.length
    tops = [alpha * la.part(i) - i + 1 for i in range(1, l + 1)]
    bottoms = [alpha * la.part(i) - i + 2 for i in range(1, l + 2)]
    h = linear_ratio_reference([-v for v in bottoms], [-v for v in tops], r_max + 2)
    return [-h[r + 2] / alpha ** (r + 1) for r in range(r_max + 1)]


def _sigma_series_reference(la, alpha, order):
    """-(alpha + t) (G - 1) / t^2 in Fractions, G the content ratio at y = 1/alpha."""
    h = content_ratio_reference(la, alpha, 1 / alpha, order + 2)[2:]
    return [-(alpha * h[r] + (h[r - 1] if r else 0)) for r in range(order + 1)]


def _chu_vandermonde_reference(la, alpha, y):
    """Both Chu-Vandermonde sides as Fraction products and sums, or None at a pole."""
    num = den = Fraction(1)
    for c in _contents(la, alpha):
        den *= y + c
        num *= y + 1 + c
    ay = alpha * y
    if den == 0 or any(ay == p - 1 for p in range(1, la.weight + 1)):
        return None
    total = Fraction(0)
    for p, (_, col) in enumerate(_binomials(la, alpha, la.weight)):
        # (alpha)_p = [alpha + p - 1]_p
        total += col * lowering_factorial(alpha + p - 1, p) / lowering_factorial(ay, p)
    return num / den, total


@pytest.mark.parametrize("alpha", KERNEL_ALPHAS)
def test_integer_routes_match_fraction_formulas(alpha):
    r_max, poles = 8, 0
    for la in partitions_upto(6):
        assert moment_values(S_ROUTES["lagrange"], la, alpha, r_max) == _s_lagrange_reference(la, alpha, r_max), la
        assert moment_values(SIGMA_ROUTES["lagrange"], la, alpha, r_max) == _sigma_lagrange_reference(la, alpha, r_max), la
        assert _sigma_series(la, alpha, r_max) == _sigma_series_reference(la, alpha, r_max), la
        cs = _cor52_numerators(moment_table(la, alpha), alpha.denominator, alpha.numerator, r_max + 2)
        c = [Fraction(v, scale) for v, scale in zip(cs, _ad_scaled([1] * (r_max + 3), alpha, 1 / alpha))]
        assert moment_values(SIGMA_ROUTES["closed"], la, alpha, r_max) == [c[r + 1] - alpha * c[r + 2] for r in range(r_max + 1)], la
        # y = -c for a content c, and alpha y = p - 1 for p <= |la|, are poles
        ys = {*DEFAULT_Y_SET, Fraction(-1), -1 / alpha, *(Fraction(p) / alpha for p in range(3))}
        ys.update(-c for c in _contents(la, alpha)[-2:])
        for y in ys:
            sides = chu_vandermonde_sides(la, alpha, y)
            assert (sides and tuple(Fraction(*side) for side in sides)) == _chu_vandermonde_reference(la, alpha, y), (la, y)
            poles += sides is None
    assert poles


@lru_cache(maxsize=None)
def _q_sums_from_rows(la, alpha, r_max):
    """{(n, p, m): sum over q of C(n+p+q-1, p) times the k-sum of
    C(|la|+n-1, n-k) f_{m,q,k}}, in Fractions with f read from
    _f_reference; these are the y-free parts of the collected form."""
    out = {}
    for n in range(r_max // 2 + 1):
        # at n = 0 the k-sum reads only column k = 0, which is zero past row 0
        for m in range(r_max - 2 * n + 1) if n else (0,):
            ks = [_k_sum_reference(la, alpha, n, m, q) for q in range(m + 1)]
            for p in range(r_max - 2 * n - m + 1):
                out[n, p, m] = sum((comb_int(n + p + q - 1, p) * v for q, v in enumerate(ks)), Fraction(0))
    return out


def _cor52_triple_sum(la, alpha, y, r_max):
    """c_0 .. c_r_max as the triple sum over n, p, q at this y, in Fractions."""
    neg, pos = [Fraction(1)], [Fraction(1)]  # powers of -y and y+1
    for _ in range(r_max):
        neg.append(-y * neg[-1])
        pos.append((y + 1) * pos[-1])
    out = [Fraction(0)] * (r_max + 1)
    for (n, p, m), inner in _q_sums_from_rows(la, alpha, r_max).items():
        if inner:
            out[2 * n + p + m] += neg[n] * pos[p] * inner
    return out


@pytest.mark.parametrize("alpha", KERNEL_ALPHAS)
def test_cor52_rows_match_triple_sum(alpha):
    # New tables, and bounds 4, 10 and 12 in that order, so that every
    # table builds its y-polynomial rows and then extends them twice.
    # y = -1 zeroes every (y+1)^p with p > 0; -1/alpha and 1/alpha are
    # the values the s and sigma routes use.
    ys = (Fraction(0), Fraction(-1), Fraction(2), Fraction(-1, 3), Fraction(5, 7), -1 / alpha, 1 / alpha)
    moment_table.cache_clear()
    for la in partitions_upto(7):
        want = {y: _ad_scaled(_cor52_triple_sum(la, alpha, y, 12), alpha, y) for y in ys}
        for r_max in (4, 10, 12):
            for y in ys:
                assert _cor52_numerators(moment_table(la, alpha), y.numerator, y.denominator, r_max) == want[y][: r_max + 1], (la, y, r_max)


def test_cor52_keeps_nothing_per_y():
    # 8 more y values on the same 50 tables retain no more memory than one.
    keys = [(la, alpha) for alpha in KERNEL_ALPHAS for la in partitions_upto(5)][:50]
    ys = [Fraction(k, 7) for k in range(1, 10)]

    def run(y_values):
        for la, alpha in keys:
            for y in y_values:
                _cor52_numerators(moment_table(la, alpha), y.numerator, y.denominator, 10)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    run(ys[:1])  # builds the tables untraced
    tracemalloc.start()
    try:
        one, more = run(ys[:1]), run(ys[1:])
    finally:
        tracemalloc.stop()
    assert more <= one + 4096, (one, more)


@pytest.mark.parametrize("alpha", KERNEL_ALPHAS)
def test_direct_routes_match_fraction_sums(alpha):
    # sum of w pos^r over the atoms, pos = la_i - (i-1)/alpha, in Fractions
    for la in partitions_upto(8):
        for route, atoms in ((S_ROUTES["direct"], pieri_coefficients), (SIGMA_ROUTES["direct"], corner_binomials)):
            weights = atoms(la, alpha)
            want = [
                sum((w * (la.part(i) - Fraction(i - 1) / alpha) ** r for i, w in weights), Fraction(0)) for r in range(9)
            ]
            assert moment_values(route, la, alpha, 8) == want, (la, route.__name__)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(
    a=st.integers(1, 9),
    b=st.integers(1, 9),
    n=st.integers(0, 5),
    pick=st.integers(0, 100),
)
def test_moment_routes_agree_at_random_alpha(a, b, n, pick):
    alpha = Fraction(a, b)
    options = enumerate_partitions(n)
    la = options[pick % len(options)]
    direct = moment_values(S_ROUTES["direct"], la, alpha, 6)
    assert moment_values(S_ROUTES["closed"], la, alpha, 6) == direct, la
    assert moment_values(_s_regrouped, la, alpha, 6) == direct, la
    assert moment_values(SIGMA_ROUTES["closed"], la, alpha, 5) == moment_values(SIGMA_ROUTES["direct"], la, alpha, 5), la


@pytest.mark.parametrize("alpha", ALPHAS)
def test_s_low_moments_pinned(alpha):
    for la in SHAPES:
        w = la.weight
        want3 = 2 * d_k(la, alpha, 1) / alpha + w * (alpha - 1) / alpha**2
        assert moment_values(S_ROUTES["direct"], la, alpha, 3) == [1, 0, Fraction(w) / alpha, want3]


@pytest.mark.parametrize("alpha", ALPHAS)
def test_sigma_low_moments_pinned(alpha):
    for la in SHAPES:
        w = la.weight
        want2 = (
            3 * d_k(la, alpha, 2)
            + (3 + 1 / alpha) * d_k(la, alpha, 1)
            + w
            - Fraction(comb_int(w, 2)) / alpha
        )
        assert moment_values(SIGMA_ROUTES["direct"], la, alpha, 2) == [w, 2 * d_k(la, alpha, 1) + w, want2]


@pytest.mark.parametrize("alpha", ALPHAS)
def test_s_three_routes_agree(alpha):
    for la in SHAPES:
        direct, closed, lagrange = (moment_values(route, la, alpha, 6) for route in S_ROUTES.values())
        assert closed == direct and lagrange == direct, la


@pytest.mark.parametrize("alpha", ALPHAS)
def test_sigma_three_routes_agree(alpha):
    for la in SHAPES:
        direct, closed, lagrange = (moment_values(route, la, alpha, 5) for route in SIGMA_ROUTES.values())
        assert closed == direct and lagrange == direct, la


@pytest.mark.parametrize("alpha", KERNEL_ALPHAS)
def test_one_lagrange_series_matches_per_r_reads(alpha):
    # a listing to r_max is the prefix of every longer listing, although
    # the sigma series is read two orders beyond r_max
    for la in partitions_upto(6):
        s_list = moment_values(S_ROUTES["lagrange"], la, alpha, 9)
        sigma_list = moment_values(SIGMA_ROUTES["lagrange"], la, alpha, 8)
        for r in range(10):
            assert moment_values(S_ROUTES["lagrange"], la, alpha, r) == s_list[: r + 1], (la, r)
        for r in range(9):
            assert moment_values(SIGMA_ROUTES["lagrange"], la, alpha, r) == sigma_list[: r + 1], (la, r)


@pytest.mark.parametrize(
    "routes,method",
    [pytest.param(routes, method, id=f"{name}_{method}_moments") for name, routes in (("s", S_ROUTES), ("sigma", SIGMA_ROUTES)) for method in routes],
)
def test_routes_reject_negative_r_max(routes, method):
    with pytest.raises(ValueError, match="r must be nonnegative"):
        moment_values(routes[method], Partition((2, 1)), Fraction(3, 5), -1)


def test_u_table_matches_direct_loop():
    for r in range(11):
        want = []
        for i in range(r // 2 + 1):
            for j in range(r - 2 * i + 1):
                for k in range(min(i, j) + 1):
                    terms = []
                    for idx, rho in enumerate(enumerate_partitions(j)):
                        u = u_ijk_coefficients(r, i, j, k, rho)
                        if u:
                            terms.append((idx, u))
                    if terms:
                        want.append((i, j, k, tuple(terms)))
        assert _u_table(r) == tuple(want), r


def test_s_regrouped_route_agrees():
    for alpha in (Fraction(2), Fraction(3, 5)):
        for la in partitions_upto(5):
            assert moment_values(_s_regrouped, la, alpha, 5) == moment_values(S_ROUTES["direct"], la, alpha, 5), la


@pytest.mark.parametrize("alpha", DEFAULT_ALPHA_SET)
def test_s_regrouped_matches_the_row_loop(alpha):
    # the compiled plan against one u row at a time, over r <= 12; a plan
    # compiled for a smaller r_max gives the same leading numerators
    for la in partitions_upto(8):
        table = moment_table(la, alpha)
        nums, dens = _s_regrouped(la, alpha, 12)
        assert nums == s_regrouped_reference(_u_table, table.power_sum, la.weight, table.a, table.b, 12), la
        assert dens == [table.a**r * math.factorial(r) for r in range(13)]
        assert _s_regrouped(la, alpha, 7)[0] == nums[:8], la


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
                assert _cor52_numerators(moment_table(la, alpha), y.numerator, y.denominator, 1) == [1, 0]


@pytest.mark.parametrize("alpha", ALPHAS)
def test_content_ratio_series_matches_collected_coefficients(alpha):
    y = Fraction(5, 7)
    for la in partitions_upto(4):
        series = _ad_scaled([v * (-1) ** r for r, v in enumerate(_content_ratio(la, alpha, y, 6))], alpha, y)
        assert _cor52_numerators(moment_table(la, alpha), y.numerator, y.denominator, 6) == series, la


@pytest.mark.parametrize("alpha", KERNEL_ALPHAS)
def test_content_ratio_series_matches_fraction_reference(alpha):
    for la in partitions_upto(6):
        for y in (Fraction(0), Fraction(-1), Fraction(2), Fraction(-1, 3), -1 / alpha, 1 / alpha):
            assert _content_ratio(la, alpha, y, 8) == content_ratio_reference(la, alpha, y, 8), (la, y)


@pytest.mark.parametrize("alpha", DEFAULT_ALPHA_SET)
def test_row_end_content_ratio_matches_cell_product(alpha):
    # 4 factors per row against 4 per cell, at every order up to 12
    for la in partitions_upto(8):
        for y in DEFAULT_Y_SET + (1 / alpha, -1 / alpha):
            ad = alpha.numerator * y.denominator
            want = [v * ad**i for i, v in enumerate(content_ratio_reference(la, alpha, y, 12))]
            assert all(v.denominator == 1 for v in want), (la, y)
            for order in range(13):
                assert _content_ratio_integers(la, alpha, y.numerator, y.denominator, order) == want[: order + 1], (la, y, order)


def _thm51_right_side_reference(la, alpha, y, order):
    """Theorem 5.1's right side by the triple loop over (n, p, q), which
    multiplies out every term's (1 + (y+1) t)^-(n+q) over d^order."""
    fact = math.factorial(order)
    neg_binoms = [[comb_int(-m, i) for i in range(order + 1)] for m in range(order + 1)]
    a = alpha.numerator
    c, d = y.numerator, y.denominator
    cd_pows = [(c + d) ** i for i in range(order + 1)]
    d_pows = [d**i for i in range(order + 1)]
    rhs = [0] * (order + 1)
    for n in range(0, order // 2 + 1):
        for p in range(0, order - 2 * n + 1):
            for q in range(0, order - 2 * n - p + 1):
                big_n = p + q
                acc = _k_integer_reference(la, alpha, n, big_n, p)
                if acc == 0:
                    continue
                shift = 2 * n + big_n
                coef = (-c) ** n * (-1) ** big_n * acc * (fact // math.factorial(big_n)) * a ** (order - big_n)
                coef *= d_pows[shift - n]
                for i, nb in enumerate(neg_binoms[n + q][: order + 1 - shift]):
                    rhs[shift + i] += coef * nb * cd_pows[i] * d_pows[order - shift - i]
    den = d**order * fact * a**order
    return [Fraction(v, den) for v in rhs]


@pytest.mark.parametrize("alpha", KERNEL_ALPHAS)
def test_thm51_right_side_matches_triple_loop(alpha):
    # y = -1 makes c + d = 0, and y = 0 leaves only the n = 0 terms; the
    # numerators are over order! a^order d^s at t^s
    ys = DEFAULT_Y_SET + (Fraction(-1), Fraction(0), Fraction(7, 3))
    for la in partitions_upto(5):
        table = moment_table(la, alpha)
        for order in range(13):
            terms = _thm51_terms(table, order)
            den = math.factorial(order) * table.a**order
            for y in ys:
                got = _thm51_right_side(terms, y, order)
                assert len(got) == order + 1 and all(type(v) is int for v in got), (la, order, y)
                want = _thm51_right_side_reference(la, alpha, y, order)
                assert [Fraction(v, den * y.denominator**s) for s, v in enumerate(got)] == want, (la, order, y)


def test_row_column_binomials_extend_as_a_prefix(fresh_memos):
    # built up to 2, then to weight + 2 on one table, against a new table
    # built at weight + 2 at once and cut back to 2
    for alpha in KERNEL_ALPHAS:
        for la in partitions_upto(5):
            short = row_column_binomials(la, alpha, 2)
            grown = row_column_binomials(la, alpha, la.weight + 2)
            moment_table.cache_clear()
            whole = row_column_binomials(la, alpha, la.weight + 2)
            assert grown == whole and short == whole[:3], (la, alpha)
            assert row_column_binomials(la, alpha, 2) == short, (la, alpha)


def test_row_column_binomials_are_kept_on_the_table(fresh_memos, monkeypatch):
    # the sums evaluate the p = 0 k-sums, and a second call evaluates nothing
    calls = []
    evaluate = _MomentTable.evaluate
    monkeypatch.setattr(_MomentTable, "evaluate", lambda self, *args: calls.append(args) or evaluate(self, *args))
    la, alpha = Partition((3, 2, 1)), Fraction(3, 5)
    first = row_column_binomials(la, alpha, la.weight)
    assert calls
    calls.clear()
    assert row_column_binomials(la, alpha, la.weight) == first
    assert row_column_binomials(la, alpha, 3) == first[:4]
    assert calls == []


@pytest.mark.parametrize("alpha", ALPHAS)
def test_moment_generating_series(alpha):
    for la in partitions_upto(4):
        s_series = _content_ratio(la, alpha, -1 / alpha, 6)
        for r, s_r in enumerate(moment_values(S_ROUTES["direct"], la, alpha, 6)):
            assert s_series[r] == (-1) ** r * s_r
        sig_series = _sigma_series(la, alpha, 5)
        for r, sigma_r in enumerate(moment_values(SIGMA_ROUTES["direct"], la, alpha, 5)):
            assert sig_series[r] == (-1) ** r * sigma_r


def test_lagrange_h_series_small():
    # {3} minus the empty alphabet, in the negated form the Lagrange
    # references pass to linear_ratio_reference: plain geometric series
    assert linear_ratio_reference((), (Fraction(-3),), 4) == [1, 3, 9, 27, 81]


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
        want = linear_ratio_reference([-v for v in b], [-v for v in a], idx)[idx]
    total = Fraction(0)
    for x in a:
        num = x**r
        for v in b:
            num *= x - v
        den = Fraction(1)
        for x2 in a:
            if x2 != x:
                den *= x - x2
        total += num / den
    assert total == want


def test_sigma_series_rejects_a_wrong_linear_term(monkeypatch):
    # the corner-moment series reads the content ratio at y = 1/alpha from
    # t^2 on, so a t^1 term that fails to vanish must fail loudly
    ratio = moments._content_ratio_integers

    def shifted(*args):
        g = ratio(*args)
        g[1] += 1
        return g

    monkeypatch.setattr(moments, "_content_ratio_integers", shifted)
    with pytest.raises(InvariantError, match="content ratio of 2,1 has a wrong t\\^0 or t\\^1 term"):
        _sigma_series_numerators(Partition((2, 1)), Fraction(3, 5), 4)


def test_sigma_lagrange_first_difference_is_minus_one():
    # h_1(A - B) = sum A - sum B = -1 for every corner alphabet pair, read
    # as b h_1 from the integer numerators the sigma Lagrange route reads
    for alpha in ALPHAS:
        for la in SHAPES:
            assert moments._sigma_lagrange_numerators(la, alpha, 1)[1] == -alpha.denominator


def test_row_column_binomials_basics():
    for alpha in ALPHAS:
        for la in partitions_upto(5):
            pairs = _binomials(la, alpha, la.weight + 1)
            assert len(pairs) == la.weight + 2
            assert pairs[0] == (Fraction(1), Fraction(1))
            if la.weight:
                assert pairs[1] == (la.weight, la.weight)
            # support: rows cap at la_1, columns at l(la)
            assert pairs[la.weight + 1] == (0, 0)
            if la.weight:
                assert pairs[la.length + 1][1] == 0
                assert pairs[la.part(1) + 1][0] == 0


def test_row_binomial_single_row_is_plain_binomial():
    for alpha in ALPHAS:
        for n in range(1, 6):
            rows = [row for row, _ in _binomials(Partition((n,)), alpha, n + 1)]
            assert rows == [comb_int(n, p) for p in range(n + 2)]


@pytest.mark.parametrize("alpha", ALPHAS)
def test_row_column_conjugation_duality(alpha):
    for la in partitions_upto(5):
        rows = [row for row, _ in _binomials(la, alpha, la.weight)]
        cols = [col for _, col in _binomials(la.conjugate(), 1 / alpha, la.weight)]
        assert rows == cols, la
        # at 1/alpha the two denominators swap, so the numerators agree too
        sums = row_column_binomials(la, alpha, la.weight)
        duals = row_column_binomials(la.conjugate(), 1 / alpha, la.weight)
        assert [(row, row_den) for row, row_den, _, _ in sums] == [(col, col_den) for _, _, col, col_den in duals], la
        assert [(col, col_den) for _, _, col, col_den in sums] == [(row, row_den) for row, row_den, _, _ in duals], la


def test_chu_vandermonde_pole_handling():
    la = Partition((2, 1))
    alpha = Fraction(2)
    # y = 0 puts a zero in the denominator product
    assert chu_vandermonde_sides(la, alpha, Fraction(0)) is None
    sides = chu_vandermonde_sides(la, alpha, Fraction(5, 7))
    assert sides is not None
    (lhs, lhs_den), (rhs, rhs_den) = sides
    assert lhs * rhs_den == rhs * lhs_den


@pytest.mark.parametrize("alpha", ALPHAS)
def test_chu_vandermonde_generic_values(alpha):
    for la in partitions_upto(4):
        for y in (Fraction(2), Fraction(-1, 3), Fraction(5, 7)):
            sides = chu_vandermonde_sides(la, alpha, y)
            if sides is None:
                continue
            (lhs, lhs_den), (rhs, rhs_den) = sides
            assert lhs * rhs_den == rhs * lhs_den, (la, y)


@pytest.mark.parametrize("k", range(1, 6))
def test_stirling_inverse_lemma(k):
    lhs, rhs = stirling_inverse_lemma_sides(k, order=8)
    assert lhs == [int(i == k) for i in range(9)]
    assert rhs == lhs
