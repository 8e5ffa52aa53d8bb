"""Pieri-type transition weights and exact moment functions.

Two families of atoms on a diagram la, the masses of Kerov's transition
and co-transition measures:

* row weights c_i for appending a cell in row i (the formula vanishes on
  rows where the shape would break, through one zero factor, and the
  code checks its zeros against the addable rows),
* corner weights for deleting a removable cell, normalized by |la| to a
  probability elsewhere.

Both formulas are products over rows j, evaluated one block of equal
parts at a time, where the factors telescope.  An atom is an integer
triple (row, num, den), the sign on num.  Every reader but the sampler
takes them from the memos `_pieri_weights` and `_corner_weights`, whose
Fraction views are `pieri_coefficients` and `corner_binomials`.

The r-th moments of the appended (s_r) and deleted (sigma_r) positions
admit three independent routes each: the direct atom sum, a closed
double-sum in the moment polynomials f_{n,p,k}, and a complete-homogeneous
extraction from a difference of two integer alphabets.  All three must
agree exactly; the verifier leans on that.

Each route is one function (la, alpha, r_max) -> (numerators,
denominators), m_r = numerators[r] / denominators[r], and that function
is the only place its denominator is written (alpha = a/b):

* direct: the power sums of `_position_weights` over D a^r, for the lcm
  D of the atoms' denominators;
* closed: `_cor52_numerators`, c_r at y = c/d over d^r r! a^r, read from
  the integer moment table of shifted.py (f_{n,p,k} = A[n][p][k] / (n! a^n)):
  s_r over a^(2r) r! and sigma_r over b a^(2r+3) (r+2)!;
* Lagrange: s_r over a^r and sigma_r over b a^(r+1), since both
  alphabets are integers over b.

`S_ROUTES` and `SIGMA_ROUTES` hold the routes, keyed direct, closed and
lagrange.  The CLI lists them through the one Fraction view
`moment_values`, and the verifier looks them up at each call, so a wrong
entry reaches both.  The u regrouping of s_r, `_s_regrouped` over
a^r r!, is a fourth route outside the tables that only the verifier
reads.  The content-ratio series, `_content_ratio_integers`, is over
(a d)^i, from two factor pairs per row, at its ends, since its
Pochhammer ratios telescope along each row (`chu_vandermonde_sides`
keeps one pair per cell for its pole test), and the corner-moment series
read from it, `_sigma_series_numerators`, over b a^(2r+4).

The row and column binomials sum over p! prod_m (b + m a) and
p! prod_m (a + m b), and the Chu-Vandermonde sides are two unreduced
integer pairs, built from integer products and one running integer
ratio (alpha)_p / [alpha y]_p.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .coefficients import npbi, stirling_first
from .partitions import Partition, alpha_keyed_memo, check_alpha, content_numerators, enumerate_partitions, z_of
from .series import InvariantError, comb_int, linear_ratio_integers
from .shifted import moment_table


def _blocks(parts: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """(first row, last row, part) of each run of equal parts, rows from 1."""
    out, s = [], 1
    for t, p in enumerate(parts, 1):
        if t == len(parts) or parts[t] != p:
            out.append((s, t, p))
            s = t + 1
    return out


def _pieri_row_values(la: Partition, a: int, b: int) -> list[tuple[int, int]]:
    """Raw row formula on rows 1 .. l(la) + 1, as unreduced (num, den).

    With alpha = a/b every linear factor is an integer over b.  The
    product over rows j runs one block s..t of equal parts mu at a time:
    for mu != la_i the factors (D + b(j-i+1))/(D + b(j-i)), D =
    a(la_i - mu), telescope to (D + b(t-i+1))/(D + b(s-i)), and none of
    them vanishes for alpha > 0.  Row i's own block gives t-i+1 when i
    is its first row; otherwise its factor j = i-1 is 0."""
    l = la.length
    blocks = _blocks(la.parts + (0,))
    out = []
    for i, t, li in blocks:
        num, den = b * (t - i + 1), a * li + b * (l - i + 2)
        for s_j, t_j, mu in blocks:
            if mu != li:
                diff = a * (li - mu)
                num *= diff + b * (t_j - i + 1)
                den *= diff + b * (s_j - i)
        if den == 0:
            raise InvariantError("nonvanishing linear factor violated")
        out.append((num, den))
        out += [(0, 1)] * (t - i)
    return out


def _checked_atoms(values, allowed: tuple[int, ...], total: int, la: Partition, kind: str, vanish: str) -> tuple[tuple[int, int, int], ...]:
    """Atoms (row, num, den) of raw pairs on rows 1, 2, ..., kept unreduced
    on the rows of `allowed` (ascending), the sign on num.  The pairs are
    checked to be zero on every other row, nonnegative, by sign since a raw
    pair may be negative over negative, and to sum to `total`, by
    cross-multiplication."""
    atoms = []
    num, den = 0, 1  # the running total
    rows = iter(allowed)
    nxt = next(rows, 0)
    for i, (n, d) in enumerate(values, 1):
        if i == nxt:
            if n and (n < 0) != (d < 0):
                raise InvariantError(f"negative {kind} weight {Fraction(n, d)} on row {i} of {la}")
            if d < 0:
                n, d = -n, -d
            atoms.append((i, n, d))
            num, den = num * d + n * den, den * d
            nxt = next(rows, 0)
        elif n:
            raise InvariantError(f"{vanish} row {i} of {la}")
    if num != total * den:
        raise InvariantError(f"{kind} weights of {la} sum to {Fraction(num, den)}")
    return tuple(atoms)


def _pieri_atoms(la: Partition, a: int, b: int) -> tuple[tuple[int, int, int], ...]:
    """Transition atoms (row, num, den) on the addable rows, unreduced and
    checked by `_checked_atoms` to sum to 1."""
    values = _pieri_row_values(la, a, b)
    return _checked_atoms(values, la.addable_rows(), 1, la, "row", "formula fails to vanish on non-addable")


# The memoised atoms, read as _pieri_weights(la, alpha); the sampler reads
# `_pieri_atoms` past the memo.
_pieri_weights = alpha_keyed_memo(_pieri_atoms)


def pieri_coefficients(la: Partition, alpha: Fraction) -> tuple[tuple[int, Fraction], ...]:
    """Transition atoms (row, weight) on the addable rows: `_pieri_weights` with Fraction weights."""
    return tuple((i, Fraction(n, d)) for i, n, d in _pieri_weights(la, alpha))


def _corner_row_values(la: Partition, a: int, b: int) -> list[tuple[int, int]]:
    """Raw corner weights for deleting in rows 1 .. l(la), as unreduced
    (num, den), one block s..t of equal parts mu at a time like the row
    formula: for mu != la_i the factors (D + b(j-i-1))/(D + b(j-i))
    telescope to (D + b(s-i-1))/(D + b(t-i)), and row i's own block
    gives i-s+1 when i is its last row; otherwise its factor j = i+1
    is 0."""
    l = la.length
    blocks = _blocks(la.parts)
    out = []
    for s, i, li in blocks:
        out += [(0, 1)] * (i - s)
        num, den = (a * li + b * (l - i)) * (i - s + 1), a
        for s_j, t_j, mu in blocks:
            if mu != li:
                diff = a * (li - mu)
                num *= diff + b * (s_j - i - 1)
                den *= diff + b * (t_j - i)
        if den == 0:
            raise InvariantError("nonvanishing linear factor violated")
        out.append((num, den))
    return out


@alpha_keyed_memo
def _corner_weights(la: Partition, a: int, b: int) -> tuple[tuple[int, int, int], ...]:
    """_corner_weights(la, alpha): corner atoms (row, num, den) over the
    removable rows, memoised: the raw corner formula, checked by
    `_checked_atoms` to vanish elsewhere and to sum to |la|."""
    values = _corner_row_values(la, a, b)
    return _checked_atoms(values, la.removable_rows(), la.weight, la, "corner", "corner weight fails to vanish on")


def corner_binomials(la: Partition, alpha: Fraction) -> tuple[tuple[int, Fraction], ...]:
    """Corner atoms (row, weight) over removable rows: `_corner_weights` with Fraction weights."""
    return tuple((i, Fraction(n, d)) for i, n, d in _corner_weights(la, alpha))


def _position_weights(atoms, la: Partition, alpha: Fraction) -> tuple[list[tuple[int, int]], int]:
    """The atoms (i, num, den) of atoms(la, alpha) at their positions
    la_i - (i-1)/alpha, as ([(x, v), ...], D): the position is x/a for
    the integer x = la_i a - (i-1) b (alpha = a/b), and the weight is v/D
    for the lcm D of the atoms' denominators."""
    a, b = alpha.numerator, alpha.denominator
    weights = atoms(la, alpha)
    big_d = math.lcm(*(d for _, _, d in weights))
    return [(la.part(i) * a - (i - 1) * b, n * (big_d // d)) for i, n, d in weights], big_d


def _power_sums(pairs, r_max: int) -> list[int]:
    """[sum of v x^r over the pairs (x, v), for r = 0 .. r_max]."""
    out = [0] * (r_max + 1)
    for x, v in pairs:
        for r in range(r_max + 1):
            out[r] += v
            v *= x
    return out


def _s_direct(la: Partition, alpha: Fraction, r_max: int) -> tuple[list[int], list[int]]:
    """Direct route of s_r, the moment of the appended position
    la_i - (i-1)/alpha under the Pieri row weights: the power sum of
    :func:`_position_weights` over D a^r."""
    pairs, big_d = _position_weights(_pieri_weights, la, alpha)
    return _power_sums(pairs, r_max), [big_d * alpha.numerator**r for r in range(r_max + 1)]


def _cor52_numerators(table, c: int, d: int, r_max: int) -> list[int]:
    """[T_0 .. T_r_max] of one moment table at y = c/d: the coefficient
    c_r of (-1/x)^r in the content-ratio product

        (x+y+1)_la (x)_la / ((x+y)_la (x+1)_la)

    is T_r / (d^r r! a^r).  By the collected closed form, c_r is a sum
    over n, p, q with 2n+p+q <= r of (-y)^n (y+1)^p C(n+p+q-1, p) times
    the k-sum of C(|la|+n-1, n-k) f_{r-2n-p, q, k}(la).  y enters only
    through (-y)^n (y+1)^p, so r! a^r c_r is the integer polynomial sum
    over e of C[r][e] y^e, whose rows the table evaluates from the
    shape-free polynomials of :func:`shifted._c_formula`.  T_r is the sum
    over e of C[r][e] c^e d^(r-e), by Horner's rule in c over one list of
    powers of d."""
    d_pows = [d**j for j in range(r_max + 1)]
    out = []
    for row in table.c_rows(r_max)[: r_max + 1]:
        total = 0
        for v, d_pow in zip(reversed(row), d_pows):
            total = total * c + v * d_pow
        out.append(total)
    return out


def _s_closed(la: Partition, alpha: Fraction, r_max: int) -> tuple[list[int], list[int]]:
    """Closed route of s_r: c_r at y = -1/alpha = -b/a, the T_r of
    :func:`_cor52_numerators` over a^(2r) r!."""
    a, b = alpha.numerator, alpha.denominator
    return _cor52_numerators(moment_table(la, alpha), -b, a, r_max), [a ** (2 * r) * math.factorial(r) for r in range(r_max + 1)]


def _negated_row_ends(la: Partition, alpha: Fraction, shift: int, rows: int) -> list[int]:
    """[-b (alpha la_i - i + shift) for i = 1 .. rows], alpha = a/b: the
    Lagrange alphabets are integers over b, so with these numerators
    :func:`linear_ratio_integers` gives b^r h_r of their difference."""
    a, b = alpha.numerator, alpha.denominator
    return [(i - shift) * b - a * la.part(i) for i in range(1, rows + 1)]


def _s_lagrange(la: Partition, alpha: Fraction, r_max: int) -> tuple[list[int], list[int]]:
    """Lagrange route of s_r, all read from one h-series: alpha^r s_r is
    the r-th complete homogeneous value C_r / b^r of the difference of the
    row-end alphabets alpha la_i - i + 1 (i <= l + 1) and alpha la_i - i
    (i <= l), so s_r = C_r / a^r."""
    l = la.length
    nums = linear_ratio_integers(_negated_row_ends(la, alpha, 0, l), _negated_row_ends(la, alpha, 1, l + 1), r_max)
    return nums, [alpha.numerator**r for r in range(r_max + 1)]


def _sigma_direct(la: Partition, alpha: Fraction, r_max: int) -> tuple[list[int], list[int]]:
    """Direct route of sigma_r, the moment of la_i - (i-1)/alpha under the
    corner weights (the deleted cell's content is this position minus 1):
    the power sum of :func:`_position_weights` over D a^r."""
    pairs, big_d = _position_weights(_corner_weights, la, alpha)
    return _power_sums(pairs, r_max), [big_d * alpha.numerator**r for r in range(r_max + 1)]


def _sigma_closed(la: Partition, alpha: Fraction, r_max: int) -> tuple[list[int], list[int]]:
    """Closed route of sigma_r: c_{r+1} - alpha c_{r+2} at y = 1/alpha.
    At y = b/a, c_r = N_r / (a^(2r) r!) for the N_r of
    :func:`_cor52_numerators`, so sigma_r is a b (r+2) N_{r+1} - N_{r+2}
    over b a^(2r+3) (r+2)!."""
    a, b = alpha.numerator, alpha.denominator
    big_n = _cor52_numerators(moment_table(la, alpha), b, a, r_max + 2)
    nums = [a * b * (r + 2) * big_n[r + 1] - big_n[r + 2] for r in range(r_max + 1)]
    return nums, [b * a ** (2 * r + 3) * math.factorial(r + 2) for r in range(r_max + 1)]


def _sigma_lagrange_numerators(la: Partition, alpha: Fraction, order: int) -> list[int]:
    """[C_0 .. C_order], C_r = b^r h_r of the difference of the corner
    alphabets alpha la_i - i + 1 (i <= l) and alpha la_i - i + 2
    (i <= l + 1); C_1 = b h_1 = -b."""
    l = la.length
    return linear_ratio_integers(_negated_row_ends(la, alpha, 2, l + 1), _negated_row_ends(la, alpha, 1, l), order)


def _sigma_lagrange(la: Partition, alpha: Fraction, r_max: int) -> tuple[list[int], list[int]]:
    """Lagrange route of sigma_r, all read from one h-series:
    -alpha^{r+1} sigma_r is the (r+2)-nd complete homogeneous value of the
    corner alphabets' difference, so sigma_r = -C_{r+2} / (b a^(r+1)) for
    the C of :func:`_sigma_lagrange_numerators`."""
    a, b = alpha.numerator, alpha.denominator
    cs = _sigma_lagrange_numerators(la, alpha, r_max + 2)
    return [-v for v in cs[2:]], [b * a ** (r + 1) for r in range(r_max + 1)]


# The routes of s_r and sigma_r, keyed in the order the CLI lists them.
S_ROUTES = {"direct": _s_direct, "closed": _s_closed, "lagrange": _s_lagrange}
SIGMA_ROUTES = {"direct": _sigma_direct, "closed": _sigma_closed, "lagrange": _sigma_lagrange}


def moment_values(route, la: Partition, alpha: Fraction, r_max: int) -> list[Fraction]:
    """m_0 .. m_r_max of one route (la, alpha, r_max) -> (numerators,
    denominators), such as an entry of S_ROUTES or SIGMA_ROUTES, as
    Fractions.  Raises ValueError unless alpha > 0 and r_max >= 0."""
    alpha = check_alpha(alpha)
    if r_max < 0:
        raise ValueError("r must be nonnegative")
    return list(map(Fraction, *route(la, alpha, r_max)))


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
    total = 0
    for s in range(0, j + 1):
        if k == 0:
            c = 1 if j == 0 else 0
        else:
            c = npbi(rho, s, k)
        if c:
            total += c * comb_int(r + s - i - j - 1, r - 2 * i - j)
    if total < 0:
        raise InvariantError(f"negative regrouping coefficient at {(r, i, j, k, rho.parts)}")
    return total


@lru_cache(maxsize=None)
def _u_table(r: int) -> tuple[tuple[int, int, int, tuple[tuple[int, int], ...]], ...]:
    """The nonzero u terms of order r, built once per r: entries
    (i, j, k, ((index of rho in enumerate_partitions(j), u), ...)).
    The memo is unbounded: one key per order, so the run's r bounds it."""
    rows = []
    for i in range(0, r // 2 + 1):
        for j in range(0, r - 2 * i + 1):
            rhos = enumerate_partitions(j)
            for k in range(0, min(i, j) + 1):
                terms = []
                for idx, rho in enumerate(rhos):
                    u = u_ijk_coefficients(r, i, j, k, rho)
                    if u:
                        terms.append((idx, u))
                if terms:
                    rows.append((i, j, k, tuple(terms)))
    return tuple(rows)


@lru_cache(maxsize=None)
def _regroup_plan(r_max: int) -> tuple[int, tuple[tuple[int, int], ...], tuple[tuple[tuple[int, ...], ...], ...]]:
    """(j_max, steps, columns of r for r = 0 .. r_max): _u_table, read
    through the module global, compiled for :func:`_s_regrouped`.  The
    rho of weight <= j_max are numbered by weight, and steps holds each
    nonempty rho as (the number of rho less its last part, its last part).
    The columns of r hold, per term (i, j, k, rho, u), the number of
    (i, i-k) among the pairs (i, d <= i), r-2i-j, the number of rho and
    u (r!/j!) (j!/z_rho) = u r!/z_rho.  Unbounded: one key per r_max."""
    tables = [_u_table(r) for r in range(r_max + 1)]
    j_max = max(j for rows in tables for _, j, _, _ in rows)
    rhos = [rho for j in range(j_max + 1) for rho in enumerate_partitions(j)]
    number = {rho.parts: n for n, rho in enumerate(rhos)}
    steps = tuple((number[rho.parts[:-1]], rho.parts[-1]) for rho in rhos[1:])
    columns = []
    for r, rows in enumerate(tables):
        fact = math.factorial(r)
        terms = [(i * (i + 1) // 2 + i - k, r - 2 * i - j, number[(rho := enumerate_partitions(j)[idx]).parts], u * fact // z_of(rho)) for i, j, k, row in rows for idx, u in row]
        columns.append(tuple(tuple(term[c] for term in terms) for c in range(4)))
    return j_max, steps, tuple(columns)


def _s_regrouped(la: Partition, alpha: Fraction, r_max: int) -> tuple[list[int], list[int]]:
    """s_r rebuilt through the u regrouping, R_r over a^r r! for
    alpha = a/b: a route of s_r that the verifier reads and the CLI does
    not list.

    Each term (1/alpha)^i (1 - 1/alpha)^(r-2i-j) C(|la|+i-1, i-k) u d_rho / z_rho
    of s_r is an integer over a^r r!: (a b)^i (a-b)^(r-2i-j) C(|la|+i-1, i-k)
    P_rho times u r!/z_rho, for the moment table's power sums P.  Each
    table forms its P_rho, one multiply each, and its (a b)^i C(|la|+i-1, d)
    once; each R_r is one sum over the columns of :func:`_regroup_plan`.
    """
    table = moment_table(la, alpha)
    a, b = table.a, table.b
    j_max, steps, columns = _regroup_plan(r_max)
    sums = [table.power_sum(k) for k in range(j_max + 1)]
    prods = [1]
    for prefix, part in steps:
        prods.append(prods[prefix] * sums[part])
    w = la.weight
    scales = [(a * b) ** i * comb_int(w + i - 1, d) for i in range(r_max // 2 + 1) for d in range(i + 1)]
    diff_pows = [(a - b) ** n for n in range(r_max + 1)]
    nums = [sum(map(mul, us, map(mul, map(mul, map(scales.__getitem__, si), map(diff_pows.__getitem__, ei)), map(prods.__getitem__, pi)))) for si, ei, pi, us in columns]
    return nums, [a**r * math.factorial(r) for r in range(r_max + 1)]


def row_column_binomials(la: Partition, alpha: Fraction, p_max: int) -> list[tuple[int, int, int, int]]:
    """[(R_p, R'_p, K_p, K'_p) for p = 0 .. p_max]: the binomial weights
    of la against a row of length p, R_p / R'_p, and a column of height p,
    K_p / K'_p, via the Stirling-weighted double sum in f_jk (the moment
    table keeps them; p = 0 gives (1, 1, 1, 1))."""
    alpha = check_alpha(alpha)
    if p_max < 0:
        raise ValueError("p must be nonnegative")
    return moment_table(la, alpha).row_column_binomials(p_max)[: p_max + 1]


def chu_vandermonde_sides(la: Partition, alpha: Fraction, y: Fraction) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """The content-ratio at y and the column-binomial sum, as two
    unreduced integer pairs (numerator, denominator).

    Returns None when y hits a pole: (y)_la = 0 or [alpha y]_p = 0 for
    some p <= |la|.

    With alpha = a/b and y = c/d, a content is x/a for the integer x of
    :func:`partitions.content_numerators`, so the ratio is
    prod (c a + a d + d x) / prod (c a + d x) over the contents, and
    (alpha)_p / [alpha y]_p is the running integer ratio prod over m < p
    of (a + m b) d / (a c - m b d).  It keeps a factor pair per cell: a
    pole c a + d x = 0 inside a row meets the previous cell's numerator,
    a 0/0 that the row ends of :func:`_content_ratio_integers` would hide.
    """
    alpha = check_alpha(alpha)
    a, b = alpha.numerator, alpha.denominator
    c, d = y.numerator, y.denominator
    num = den = 1
    for x in content_numerators(la, a, b):
        den *= c * a + d * x
        num *= c * a + a * d + d * x
    if den == 0 or any(a * c == m * b * d for m in range(la.weight)):
        return None
    total_num, total_den = 0, 1
    ratio_num = ratio_den = 1  # (alpha)_p / [alpha y]_p
    for p, (_, _, col, col_den) in enumerate(row_column_binomials(la, alpha, la.weight)):
        if col:
            term_num, term_den = col * ratio_num, col_den * ratio_den
            total_num, total_den = total_num * term_den + term_num * total_den, total_den * term_den
        ratio_num *= (a + p * b) * d
        ratio_den *= a * c - p * b * d
    return (num, den), (total_num, total_den)


def _content_ratio_integers(la: Partition, alpha: Fraction, c: int, d: int, order: int) -> list[int]:
    """[G_0 .. G_order]: coefficient i of the large-x expansion, in t = 1/x,
    of (x+y+1)_la (x)_la / ((x+y)_la (x+1)_la) is G_i / (a d)^i, for
    alpha = a/b and y = c/d (d > 0).  Over a d a cell of content x/a gives
    (c a + a d + d x) and d x over (c a + d x) and (a d + d x), and a d + d x
    is the next cell's d x, so each row telescopes to its ends: on row i
    (from 0) of part p, with s = -d i b and e = d (p a - i b), (c a + e)
    and s over (c a + s) and e, 4 l(la) factors in place of 4 |la|."""
    a, b = alpha.numerator, alpha.denominator
    ends = [(-d * i * b, d * (p * a - i * b)) for i, p in enumerate(la.parts)]
    num = [v for s, e in ends for v in (c * a + e, s)]
    den = [v for s, e in ends for v in (c * a + s, e)]
    return linear_ratio_integers(num, den, order)


def _sigma_series_numerators(la: Partition, alpha: Fraction, order: int) -> list[int]:
    """[Z_0 .. Z_order]: the alternating corner-moment series
    sum_r sigma_r (-t)^r has coefficient r equal to Z_r / (b a^(2r+4)).

    Built from the content ratio G at y = 1/alpha: the t^0 and t^1 terms
    of G - 1 cancel, and the series equals -(alpha + t) (G - 1) / t^2.
    At y = b/a, G has coefficients G_i / a^(2i), so
    Z_r = -(a G_{r+2} + a^2 b G_{r+1}).
    """
    a, b = alpha.numerator, alpha.denominator
    g = _content_ratio_integers(la, alpha, b, a, order + 2)
    if g[0] != 1 or g[1] != 0:
        raise InvariantError(f"content ratio of {la} has a wrong t^0 or t^1 term")
    return [-(a * g[r + 2] + a * a * b * g[r + 1]) for r in range(order + 1)]


def stirling_inverse_lemma_sides(k: int, order: int) -> tuple[list[int], list[int]]:
    """Integer coefficients, in t = 1/x mod t^(order+1), of x^{-k} and of
    the signed-Stirling sum over 1/[x]_n, n = k..order.  Each
    1/[x]_n = t^n / prod_{j<n} (1 - j t) has integer coefficients."""
    if k < 1:
        raise ValueError("k must be positive")
    lhs = [int(i == k) for i in range(order + 1)]
    rhs = [0] * (order + 1)
    for n in range(k, order + 1):
        st = stirling_first(n - 1, k - 1)
        if not st:
            continue
        inv = linear_ratio_integers((), range(-1, -n, -1), order - n)
        for i, c in enumerate(inv):
            rhs[n + i] += st * c
    return lhs, rhs
