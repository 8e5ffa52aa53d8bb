"""Content power sums and the diagram-indexed moment polynomials.

d_k(la; alpha) is the k-th power sum of the alpha-content alphabet of la
(d_0 = |la|).  The moment polynomials f_{n,p,k} specialize the marked
polynomial family at X_i = d_i, which is what every closed moment formula
consumes.
The shifted power sums p*_k decompose the d_k through the subset-count
numbers t(k, m).  With alpha = a/b, a^k p*_k is an integer built from the
row ends alone (:func:`_shifted_numerators`), so p*_k is one integer over
a^k.

d_k and f_{n,p,k} read one integer table per (shape, alpha).  With
alpha = a/b the content of cell (i, j) is c/a with the integer numerator
c = (j-1)a - (i-1)b, so d_k = P_k / a^k for the integer power sums
P_k = sum c^k (P_0 = |la|).  Row n of the table holds the integers

    A[n][p][k] = n! a^n f_{n,p,k} = sum over mu |- n of
                 npbi(mu, p, k) (n!/z_mu) P_mu1 P_mu2 ...,

so f_{n,p,k} = A[n][p][k] / (n! a^n).  Theorem 5.1 reads a row only
through k-sums over the columns k <= min(n, m), so the table stores
columns: the first ask for column k of row m sums it with
:func:`coefficients.marked_column` from the kept products
(m!/z_mu) P_mu, and it is never built again.  Relation 5.1 and the
binomials of Theorem 11.2 read only the p = 0 k-sum, so the table keeps
the p = 0 entries A[m][0][k] of a row apart, summed once from the p = 0
terms of the marked family, and those readers build no column.  The
table reads only the contents and npbi.

Corollary 5.2 reads y only through (-y)^n (y+1)^p, so
r! a^r c_r(y) = sum over e of C[r][e] y^e with integers C[r][e].  Each
C[r][e] is one polynomial in |la|, the P_k and a whose integer
coefficients depend on neither the shape nor alpha (:func:`_c_formula`,
built once per r from the marked family's terms): the explicit
expression of c_r, and so of s_r and sigma_r, in |la| and the d_k.  The
table evaluates it, compiled by :func:`_c_plan`, at its own |la|, P_k and
a and keeps the rows, so the closed moment routes build no column.  The
y-free row and column binomials of Theorem 11.2 are kept on the table
too, as integers over their denominators in a list extended on demand.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .coefficients import _marked_terms, marked_column, marked_products, stirling_first, stirling_inverse_t
from .partitions import Partition, alpha_keyed_memo, check_alpha, content_numerators
from .series import comb_int


@lru_cache(maxsize=None)
def _c_formula(r: int) -> tuple[Mapping[tuple[int, tuple[int, ...]], int], ...]:
    """The shape-free row C[r]: entry e maps (e0, mu) to an integer v with
    C[r][e] = sum of v |la|^e0 P_mu a^(r-|mu|) at every shape la and
    alpha = a/b.  Term (n, p, q, k) of the closed form, m = r-2n-p, gives
    (-1)^n C(p, e-n) (r!/m!) C(n+p+q-1, p) C(|la|+n-1, n-k) npbi(mu, q, k)
    m!/z_mu for each mu |- m; (n-k)! divides r!/m!, a product of
    2n+p >= n-k consecutive integers, so v is an integer.  The memo is
    unbounded: one key per order, so the run's r_max bounds it."""
    rows: list[Counter] = [Counter() for _ in range(r + 1)]
    for n in range(r // 2 + 1):
        falling = [1]  # (n-k)! C(X0+n-1, n-k) = [X0+n-1]_(n-k), low degree first
        for k in range(n, -1, -1):
            if k < n:  # times (X0 + k)
                falling = [k * falling[0], *(v + k * u for u, v in zip(falling[1:], falling)), falling[-1]]
            for m in range(k, r - 2 * n + 1) if k else (0,):  # column 0 is empty past m = 0
                p = r - 2 * n - m
                scale = (-1) ** n * (math.factorial(r) // math.factorial(m) // math.factorial(n - k))
                parts_z, columns, _ = _marked_terms(m)
                for i, q, c in columns[k]:
                    parts, z = parts_z[i]
                    w = scale * comb_int(n + p + q - 1, p) * c * z
                    for e in range(n, n + p + 1):
                        for e0, f in enumerate(falling):
                            rows[e][e0, parts] += math.comb(p, e - n) * w * f
    return tuple(MappingProxyType({key: v for key, v in row.items() if v}) for row in rows)


@lru_cache(maxsize=None)
def _c_plan(r: int) -> tuple[tuple, tuple]:
    """_c_formula(r), read through the module global, compiled as (monomials, rows):
    each key once, as (e0, mu, r - |mu|), and for each e the (indices into
    monomials, coefficients) of C[r][e].  Unbounded, like _c_formula's memo."""
    formula = _c_formula(r)
    index = {key: i for i, key in enumerate(dict.fromkeys(key for terms in formula for key in terms))}
    return tuple((e0, mu, r - sum(mu)) for e0, mu in index), tuple((tuple(map(index.__getitem__, terms)), tuple(terms.values())) for terms in formula)


class _MomentTable:
    """Integer power sums and moment columns of one (shape, alpha = a/b)."""

    __slots__ = ("a", "b", "weight", "_contents", "_power_sums", "_products", "_columns", "_p0_rows", "_c_rows", "_binomials")

    def __init__(self, la: Partition, alpha: Fraction):
        self.a, self.b = alpha.numerator, alpha.denominator
        self.weight = la.weight
        self._contents = content_numerators(la, alpha)
        self._power_sums = [la.weight]
        self._products: list[tuple[int, ...]] = []
        self._columns: dict[tuple[int, int], tuple[int, ...]] = {}
        self._p0_rows: list[tuple[int, ...]] = []
        self._c_rows: list[tuple[int, ...]] = []
        self._binomials = [(1, 1, 1, 1)]

    def power_sum(self, k: int) -> int:
        """P_k, the sum of the k-th powers of the content numerators."""
        sums = self._power_sums
        while len(sums) <= k:
            m = len(sums)
            sums.append(sum(c**m for c in self._contents))
        return sums[k]

    def products(self, n: int) -> tuple[int, ...]:
        """(n!/z_mu) P_mu for mu over enumerate_partitions(n), in that order."""
        self.power_sum(n)  # fills every P_k a part of n reads
        while len(self._products) <= n:
            self._products.append(marked_products(len(self._products), self._power_sums.__getitem__))
        return self._products[n]

    def column(self, m: int, k: int) -> tuple[int, ...]:
        """(A[m][p][k] for p = 0 .. m), for 0 <= k <= m; built on the first ask."""
        col = self._columns.get((m, k))
        if col is None:
            col = self._columns[m, k] = marked_column(m, k, self.products(m))
        return col

    def k_sum(self, top: int, n: int, m: int) -> tuple[int, ...]:
        """(sum over k <= min(n, m) of C(top, n-k) A[m][p][k] for p = 0 .. m),
        the k-sum every closed route takes over a row.

        Column k = 0 is 1 at m = p = 0 and 0 elsewhere, so no sum builds
        it: one that reaches only that column is written out, and the others
        start at k = 1."""
        if m == 0 or n == 0:
            return (comb_int(top, n) if m == 0 else 0,) * (m + 1)
        ks = range(1, min(n, m) + 1)
        binoms = [comb_int(top, n - k) for k in ks]
        columns = [self.column(m, k) for k in ks]
        return tuple(sum(map(operator.mul, binoms, line)) for line in zip(*columns))

    def p0_row(self, m: int) -> tuple[int, ...]:
        """(A[m][0][k] for k = 0 .. m), the p = 0 entries of row m (and of
        every row below it), summed from the p = 0 terms of the marked
        family once and kept."""
        rows = self._p0_rows
        while len(rows) <= m:
            n = len(rows)
            prods = self.products(n)
            rows.append(tuple(sum(c * prods[i] for i, c in terms) for terms in _marked_terms(n)[2]))
        return rows[m]

    def k_sum_p0(self, top: int, n: int, m: int) -> int:
        """k_sum(top, n, m)[0], from the p = 0 entries alone.  At n = 0 it
        reads only column 0, which is 1 at m = 0 and 0 elsewhere, so no
        row is built."""
        if n == 0:
            return int(m == 0)
        row = self.p0_row(m)
        return sum(comb_int(top, n - k) * row[k] for k in range(min(n, m) + 1))

    def c_rows(self, r_max: int) -> list[tuple[int, ...]]:
        """The rows C[0] .. C[r_max] (and any built beyond) by :func:`_c_plan`:
        each monomial |la|^e0 P_mu a^(r-|mu|) of an order is formed once at
        this table's |la|, P_k and a, and each C[r][e] is one sum of products."""
        rows, sums = self._c_rows, self._power_sums
        if len(rows) > r_max:
            return rows
        self.power_sum(r_max)  # fills every P_k a formula term reads
        a_pows = [self.a**j for j in range(r_max + 1)]
        w_pows = [sums[0] ** j for j in range(r_max + 1)]
        plans = [_c_plan(r) for r in range(len(rows), r_max + 1)]
        # P_mu, once for all the orders built
        prods = {mu: math.prod(map(sums.__getitem__, mu)) for mu in {mu for monomials, _ in plans for _, mu, _ in monomials}}
        for monomials, plan in plans:
            values = [w_pows[e0] * prods[mu] * a_pows[deg] for e0, mu, deg in monomials]
            rows.append(tuple(sum(map(operator.mul, coefficients, map(values.__getitem__, indices))) for indices, coefficients in plan))
        return rows

    def row_column_binomials(self, p_max: int) -> list[tuple[int, int, int, int]]:
        """[(R_p, R'_p, K_p, K'_p) for p = 0 .. p_max] (and any built
        beyond), the row binomials R_p / R'_p and column binomials K_p / K'_p
        of :func:`moments.row_column_binomials`, which depend on neither y
        nor the caller; missing p are added on demand.

        The row sum at p is an integer over a^p p! and the column sum one
        over b^p p!; dividing by (1/alpha)_p and (alpha)_p leaves
        R'_p = p! prod_{m<p} (b + m a) and K'_p = p! prod_{m<p} (a + m b),
        which swap at 1/alpha."""
        out, a, b, w = self._binomials, self.a, self.b, self.weight
        if len(out) > p_max:
            return out
        # Term (i, j) of the row sum at p is s(p-1, i+j-1) (p!/j!) b^i a^(p-i-j)
        # times the k-sum at (|la| - j, i, j), and of the column sum the same
        # with (-1)^j a^i b^(p-i-j).  Grouped by s = i + j, with p!/j! as
        # (p!/s!) (s!/j!), the inner sums over i + j = s do not depend on p.
        facts = [math.factorial(n) for n in range(p_max + 1)]
        inner = [[0, 0]]
        for s in range(1, p_max + 1):
            terms = [(facts[s] // facts[j] * self.k_sum_p0(w - j, s - j, j), s - j, j) for j in range(s + 1)]
            inner.append([sum(t * b**i for t, i, _ in terms), sum(t * (-1) ** j * a**i for t, i, j in terms)])
        for p in range(len(out), p_max + 1):
            scales = [(stirling_first(p - 1, s - 1) * (facts[p] // facts[s]), s) for s in range(1, p + 1)]
            row_sum = sum(c * a ** (p - s) * inner[s][0] for c, s in scales)
            col_sum = sum(c * b ** (p - s) * inner[s][1] for c, s in scales)
            row_den = facts[p] * math.prod(b + m * a for m in range(p))
            col_den = facts[p] * math.prod(a + m * b for m in range(p))
            out.append((row_sum, row_den, col_sum, col_den))
        return out


@alpha_keyed_memo
def moment_table(la: Partition, alpha: Fraction) -> _MomentTable:
    """The integer moment table of (la, alpha), built once and extended on demand."""
    return _MomentTable(la, alpha)


def d_k(la: Partition, alpha: Fraction, k: int) -> Fraction:
    """k-th power sum of the alpha-contents; k = 0 counts the cells."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    table = moment_table(la, alpha)
    return Fraction(table.power_sum(k), table.a**k)


def _shifted_numerators(la: Partition, alpha: Fraction, k_max: int) -> list[int]:
    """[a^k p*_k for k = 0 .. k_max], integers, with alpha = a/b.

    Row i contributes [X]_k - [S]_k for X = la_i - (i-1)/alpha and
    S = -(i-1)/alpha.  Over a both are integer numerators, x = la_i a - (i-1)b
    and s = -(i-1)b, and a^k [X]_k is the falling product
    x (x - a) ... (x - (k-1)a), so one running product per row and end
    gives every k.  alpha must already be checked.
    """
    a, b = alpha.numerator, alpha.denominator
    out = [0] * (k_max + 1)
    for i, part in enumerate(la.parts, start=1):
        s = -(i - 1) * b
        x = part * a + s
        fx = fs = 1
        for k in range(1, k_max + 1):
            fx *= x - (k - 1) * a
            fs *= s - (k - 1) * a
            out[k] += fx - fs
    return out


def dk_from_shifted(la: Partition, alpha: Fraction, k_max: int) -> list[int]:
    """[T_0 .. T_k_max]: d_k recovered from shifted power sums,
    d_k = sum_m t(k, m) p*_{m+1} / (m+1), is T_k / (a^(k+1) (k+1)!),
    alpha = a/b.

    The m = 0 term covers k = 0, where the sum collapses to p*_1 = |la|.
    Every term of d_k is an integer over a^(k+1) (k+1)!, read from the row
    ends by one call of :func:`_shifted_numerators`, never from the
    content table.
    """
    if k_max < 0:
        raise ValueError("k must be nonnegative")
    alpha = check_alpha(alpha)
    a = alpha.numerator
    nums = _shifted_numerators(la, alpha, k_max + 1)
    out = []
    for k in range(k_max + 1):
        fact = math.factorial(k + 1)
        total = 0
        for m in range(0, k + 1):
            t = stirling_inverse_t(k, m)
            if t:
                total += t * nums[m + 1] * a ** (k - m) * (fact // (m + 1))
        out.append(total)
    return out
