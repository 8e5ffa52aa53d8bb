"""Pieri-type transition weights and exact moment functions.

Two families of atoms on a diagram la:

* row weights c_i for appending a cell in row i (the formula vanishes on
  rows where the shape would break, which the code asserts rather than
  special-cases away),
* corner weights for deleting a removable cell, normalized by |la| to a
  probability elsewhere.

The r-th moments of the appended (s_r) and deleted (sigma_r) positions
admit three independent routes each: the direct atom sum, a closed
double-sum in the f_npk moment polynomials, and a complete-homogeneous
extraction from a difference of two integer alphabets.  All three must
agree exactly; the verifier leans on that.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .coefficients import comb_int, npbi, stirling_first
from .partitions import Partition, check_alpha, content_alphabet, enumerate_partitions, z_of
from .series import UniPoly, linear_ratio_series, lowering_factorial, raising_factorial
from .shifted import d_mu, f_npk

_pieri_cache: dict[tuple[tuple[int, ...], Fraction], tuple[tuple[int, Fraction], ...]] = {}
_corner_cache: dict[tuple[tuple[int, ...], Fraction], tuple[tuple[int, Fraction], ...]] = {}
_c52_cache: dict[tuple[tuple[int, ...], Fraction, Fraction, int], Fraction] = {}
_u_cache: dict[tuple[int, int, int, int, tuple[int, ...]], int] = {}


def _pieri_row_value(la: Partition, alpha: Fraction, i: int) -> Fraction:
    """Raw row-i formula, defined for 1 <= i <= l(la) + 1."""
    l = la.length
    li = Fraction(la.part(i))
    denom0 = alpha * li + l - i + 2
    assert denom0 != 0
    val = Fraction(1) / denom0
    for j in range(1, l + 2):
        if j == i:
            continue
        diff = alpha * (li - la.part(j))
        num = diff + j - i + 1
        den = diff + j - i
        assert den != 0, "nonvanishing linear factor violated"
        if num == 0:
            return Fraction(0)
        val *= Fraction(num) / den
    return val


def pieri_coefficients(la: Partition, alpha: Fraction) -> tuple[tuple[int, Fraction], ...]:
    """Transition atoms (row, weight) over addable rows; weights sum to 1.

    The analytic formula is evaluated on every row 1..l+1 and asserted to
    vanish exactly on the non-addable ones.
    """
    alpha = check_alpha(alpha)
    key = (la.parts, alpha)
    hit = _pieri_cache.get(key)
    if hit is not None:
        return hit
    addable = set(la.addable_rows())
    atoms = []
    total = Fraction(0)
    for i in range(1, la.length + 2):
        v = _pieri_row_value(la, alpha, i)
        if i in addable:
            atoms.append((i, v))
            total += v
        else:
            assert v == 0, f"formula fails to vanish on non-addable row {i} of {la}"
    assert total == 1, f"row weights of {la} sum to {total}"
    out = tuple(atoms)
    _pieri_cache[key] = out
    return out


def _corner_row_value(la: Partition, alpha: Fraction, i: int) -> Fraction:
    """Raw corner weight for deleting in row i, 1 <= i <= l(la)."""
    l = la.length
    li = Fraction(la.parts[i - 1])
    val = li + Fraction(l - i) / alpha
    for j in range(1, l + 1):
        if j == i:
            continue
        diff = alpha * (li - la.parts[j - 1])
        num = diff + j - i - 1
        den = diff + j - i
        assert den != 0, "nonvanishing linear factor violated"
        if num == 0:
            return Fraction(0)
        val *= Fraction(num) / den
    return val


def corner_binomials(la: Partition, alpha: Fraction) -> tuple[tuple[int, Fraction], ...]:
    """Corner atoms (row, weight) over removable rows; weights sum to |la|.

    As with the row weights, the formula is evaluated everywhere and
    asserted to vanish on non-removable rows.
    """
    alpha = check_alpha(alpha)
    key = (la.parts, alpha)
    hit = _corner_cache.get(key)
    if hit is not None:
        return hit
    removable = set(la.removable_rows())
    atoms = []
    total = Fraction(0)
    for i in range(1, la.length + 1):
        v = _corner_row_value(la, alpha, i)
        if i in removable:
            atoms.append((i, v))
            total += v
        else:
            assert v == 0, f"corner weight fails to vanish on row {i} of {la}"
    assert total == la.weight, f"corner weights of {la} sum to {total}"
    out = tuple(atoms)
    _corner_cache[key] = out
    return out


def s_r_direct(la: Partition, alpha: Fraction, r: int) -> Fraction:
    """Moment of the appended position la_i - (i-1)/alpha under row weights."""
    alpha = check_alpha(alpha)
    if r < 0:
        raise ValueError("r must be nonnegative")
    total = Fraction(0)
    for i, w in pieri_coefficients(la, alpha):
        pos = Fraction(la.part(i)) - Fraction(i - 1) / alpha
        total += pos**r * w
    return total


def cor52_coefficient(la: Partition, alpha: Fraction, y: Fraction, r: int) -> Fraction:
    """Coefficient c_r of (-1/x)^r in the content-ratio product

        (x+y+1)_la (x)_la / ((x+y)_la (x+1)_la),

    by the collected closed form: a sum over n, p, q with 2n+p+q <= r of
    (-y)^n (y+1)^p C(n+p+q-1, p) times the k-sum of
    C(|la|+n-1, n-k) f_{r-2n-p, q, k}(la).
    """
    alpha = check_alpha(alpha)
    y = Fraction(y)
    if r < 0:
        raise ValueError("r must be nonnegative")
    key = (la.parts, alpha, y, r)
    hit = _c52_cache.get(key)
    if hit is not None:
        return hit
    w = la.weight
    total = Fraction(0)
    for n in range(0, r // 2 + 1):
        for p in range(0, r - 2 * n + 1):
            nn = r - 2 * n - p
            for q in range(0, nn + 1):
                inner = Fraction(0)
                for k in range(0, min(n, nn) + 1):
                    f = f_npk(la, alpha, nn, q, k)
                    if f:
                        inner += comb_int(w + n - 1, n - k) * f
                if inner == 0:
                    continue
                total += (
                    (-y) ** n
                    * (y + 1) ** p
                    * comb_int(n + p + q - 1, p)
                    * inner
                )
    _c52_cache[key] = total
    return total


def s_r_closed(la: Partition, alpha: Fraction, r: int) -> Fraction:
    """Closed route: the collected coefficient at y = -1/alpha."""
    alpha = check_alpha(alpha)
    return cor52_coefficient(la, alpha, Fraction(-1) / alpha, r)


def h_series_of_difference(
    a: Sequence[Fraction], b: Sequence[Fraction], order: int
) -> UniPoly:
    """Generating series of complete homogeneous values of the formal
    difference alphabet: prod_b (1 - z b) / prod_a (1 - z a)."""
    return linear_ratio_series([-Fraction(v) for v in b], [-Fraction(v) for v in a], order)


def s_lagrange_alphabets(la: Partition, alpha: Fraction) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    l = la.length
    a = tuple(alpha * la.part(i) - i + 1 for i in range(1, l + 2))
    b = tuple(alpha * la.part(i) - i for i in range(1, l + 1))
    return a, b


def s_r_lagrange(la: Partition, alpha: Fraction, r: int) -> Fraction:
    """Lagrange route: alpha^r s_r is the r-th complete homogeneous value
    of the integer difference alphabet attached to the row ends."""
    alpha = check_alpha(alpha)
    if r < 0:
        raise ValueError("r must be nonnegative")
    a, b = s_lagrange_alphabets(la, alpha)
    h = h_series_of_difference(a, b, r).coefficient(r)
    return h / alpha**r


def sigma_r_direct(la: Partition, alpha: Fraction, r: int) -> Fraction:
    """Moment of la_i - (i-1)/alpha over corner weights (note: the deleted
    cell's content is this position minus 1)."""
    alpha = check_alpha(alpha)
    if r < 0:
        raise ValueError("r must be nonnegative")
    total = Fraction(0)
    for i, w in corner_binomials(la, alpha):
        pos = Fraction(la.parts[i - 1]) - Fraction(i - 1) / alpha
        total += pos**r * w
    return total


def sigma_r_closed(la: Partition, alpha: Fraction, r: int) -> Fraction:
    """Closed route: c_{r+1} - alpha c_{r+2} at y = 1/alpha."""
    alpha = check_alpha(alpha)
    y = Fraction(1) / alpha
    return cor52_coefficient(la, alpha, y, r + 1) - alpha * cor52_coefficient(
        la, alpha, y, r + 2
    )


def sigma_lagrange_alphabets(la: Partition, alpha: Fraction) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    l = la.length
    a = tuple(alpha * la.parts[i - 1] - i + 1 for i in range(1, l + 1))
    b = tuple(alpha * la.part(i) - i + 2 for i in range(1, l + 2))
    return a, b


def sigma_r_lagrange(la: Partition, alpha: Fraction, r: int) -> Fraction:
    """Lagrange route: -alpha^{r+1} sigma_r is the (r+2)-nd complete
    homogeneous value of the corner difference alphabet."""
    alpha = check_alpha(alpha)
    if r < 0:
        raise ValueError("r must be nonnegative")
    a, b = sigma_lagrange_alphabets(la, alpha)
    h = h_series_of_difference(a, b, r + 2).coefficient(r + 2)
    return -h / alpha ** (r + 1)


def u_ijk_coefficients(r: int, i: int, j: int, k: int, rho: Partition) -> int:
    """Integer regrouping coefficients of the closed row-moment formula:

        u = sum_{s=0}^{j} npbi(rho, s, k)' C(r+s-i-j-1, r-2i-j)

    with |rho| = j and the k = 0 convention npbi(empty, 0, 0) = 1.
    Conjectured (and checked downstream) to be nonnegative.
    """
    if rho.weight != j:
        raise ValueError("rho must have weight j")
    if r - 2 * i - j < 0:
        raise ValueError("need r - 2i - j >= 0")
    if k < 0 or k > min(i, j):
        raise ValueError("k out of range")
    key = (r, i, j, k, rho.parts)
    hit = _u_cache.get(key)
    if hit is not None:
        return hit
    total = 0
    for s in range(0, j + 1):
        if k == 0:
            c = 1 if j == 0 else 0
        else:
            c = npbi(rho, s, k)
        if c:
            total += c * comb_int(r + s - i - j - 1, r - 2 * i - j)
    assert total >= 0, f"negative regrouping coefficient at {key}"
    _u_cache[key] = total
    return total


def s_r_from_u(la: Partition, alpha: Fraction, r: int) -> Fraction:
    """Rebuild the closed row moment through the u regrouping."""
    alpha = check_alpha(alpha)
    w = la.weight
    total = Fraction(0)
    for i in range(0, r // 2 + 1):
        for j in range(0, r - 2 * i + 1):
            for k in range(0, min(i, j) + 1):
                for rho in enumerate_partitions(j):
                    u = u_ijk_coefficients(r, i, j, k, rho)
                    if not u:
                        continue
                    total += (
                        Fraction(1) / alpha**i
                        * (1 - Fraction(1) / alpha) ** (r - 2 * i - j)
                        * comb_int(w + i - 1, i - k)
                        * u
                        * d_mu(la, alpha, rho)
                        / z_of(rho)
                    )
    return total


def row_column_binomials(la: Partition, alpha: Fraction, p: int) -> tuple[Fraction, Fraction]:
    """Binomial weights of la against a row of length p and a column of
    height p, via the Stirling-weighted double sum in f_jk; p = 0 gives
    (1, 1)."""
    alpha = check_alpha(alpha)
    if p < 0:
        raise ValueError("p must be nonnegative")
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
            if not st:
                continue
            inner = Fraction(0)
            for k in range(0, min(i, j) + 1):
                f = f_npk(la, alpha, j, 0, k)
                if f:
                    inner += comb_int(w - j, i - k) * f
            if inner == 0:
                continue
            row_sum += Fraction(st) / alpha**i * inner
            col_sum += Fraction(st) * (-1) ** j * alpha ** (i + j) * inner
    row = row_sum / raising_factorial(Fraction(1) / alpha, p)
    col = col_sum / raising_factorial(alpha, p)
    return row, col


def chu_vandermonde_sides(la: Partition, alpha: Fraction, y: Fraction) -> tuple[Fraction, Fraction] | None:
    """Exact values of the content-ratio at y vs the column-binomial sum.

    Returns None when y hits a pole: (y)_la = 0 or [alpha y]_p = 0 for
    some p <= |la|.
    """
    alpha = check_alpha(alpha)
    y = Fraction(y)
    num = Fraction(1)
    den = Fraction(1)
    for c in content_alphabet(la, alpha):
        den *= y + c
        num *= y + 1 + c
    if den == 0:
        return None
    ay = alpha * y
    for p in range(1, la.weight + 1):
        if ay == p - 1:
            return None
    total = Fraction(0)
    for p in range(0, la.weight + 1):
        _, col = row_column_binomials(la, alpha, p)
        if col == 0:
            continue
        total += col * raising_factorial(alpha, p) / lowering_factorial(ay, p)
    return num / den, total


def content_ratio_series(
    la: Partition, alpha: Fraction, y: Fraction, order: int
) -> UniPoly:
    """Large-x expansion, in t = 1/x, of (x+y+1)_la (x)_la / ((x+y)_la (x+1)_la)."""
    alpha = check_alpha(alpha)
    y = Fraction(y)
    cs = content_alphabet(la, alpha)
    num = [v for c in cs for v in (y + 1 + c, c)]
    den = [v for c in cs for v in (y + c, 1 + c)]
    return linear_ratio_series(num, den, order)


def s_moment_series(la: Partition, alpha: Fraction, order: int) -> UniPoly:
    """Alternating row-moment series sum_r s_r (-t)^r, as the content
    ratio at y = -1/alpha."""
    alpha = check_alpha(alpha)
    return content_ratio_series(la, alpha, Fraction(-1) / alpha, order)


def sigma_moment_series(la: Partition, alpha: Fraction, order: int) -> UniPoly:
    """Alternating corner-moment series sum_r sigma_r (-t)^r.

    Built from the content ratio G at y = 1/alpha: the t^0 and t^1 terms
    of G - 1 cancel, and the series equals -(alpha + t) (G - 1) / t^2.
    """
    alpha = check_alpha(alpha)
    g = content_ratio_series(la, alpha, Fraction(1) / alpha, order + 2)
    assert g.coefficient(0) == 1 and g.coefficient(1) == 0
    shifted = UniPoly(g.coeffs[2:])
    return -(UniPoly((alpha, 1)) * shifted).truncate(order)


def stirling_inverse_lemma_sides(k: int, order: int) -> tuple[UniPoly, UniPoly]:
    """Series in t = 1/x for x^{-k} vs the signed-Stirling sum over
    1/[x]_n, n = k..order."""
    if k < 1:
        raise ValueError("k must be positive")
    lhs = UniPoly([0] * k + [1]).truncate(order)
    rhs = [Fraction(0)] * (order + 1)
    for n in range(k, order + 1):
        st = stirling_first(n - 1, k - 1)
        if not st:
            continue
        inv = linear_ratio_series((), range(-1, -n, -1), order - n)
        for i, c in enumerate(inv.coeffs):
            rhs[n + i] += st * c
    return lhs, UniPoly(rhs)


def lagrange_interpolation_sum(a: Sequence[Fraction], b: Sequence[Fraction], r: int) -> Fraction:
    """sum over x in a of x^r prod_b (x - b) / prod_{x' != x} (x - x');
    requires distinct a."""
    a = [Fraction(v) for v in a]
    b = [Fraction(v) for v in b]
    total = Fraction(0)
    for idx, x in enumerate(a):
        num = x**r
        for v in b:
            num *= x - v
        den = Fraction(1)
        for jdx, x2 in enumerate(a):
            if jdx != idx:
                d = x - x2
                if d == 0:
                    raise ValueError("alphabet a must have distinct entries")
                den *= d
        total += num / den
    return total
