"""Content power sums and the diagram-indexed moment polynomials.

d_k(la; alpha) is the k-th power sum of the alpha-content alphabet of la
(d_0 = |la|).  With alpha = a/b the content of cell (i, j) is c/a with
the integer numerator c = (j-1)a - (i-1)b, so d_k = P_k / a^k for the
integer power sums P_k = sum c^k (P_0 = |la|).  The shifted power sums
p*_k decompose the d_k through the subset-count numbers t(k, m); a^k p*_k
is an integer built from the row ends alone (:func:`_shifted_numerators`).

The moment polynomials f_{m,p,k} specialize the marked family at
X_i = d_i, so A[m][p][k] = m! a^m f_{m,p,k} is the sum over mu |- m of
npbi(mu, p, k) (m!/z_mu) P_mu1 P_mu2 ....  Every closed route reads them
only through the k-sums

    K(n, m)[p] = sum over k <= min(n, m) of C(|la| + shift, n-k) A[m][p][k],

and n! K(n, m)[p] is one polynomial in |la| and the P_mu whose integer
coefficients depend on neither the shape nor alpha (:func:`_k_formula`;
|la| and the d_k generate every such function, Kerov and Olshanski).  It
reads the family through the npbi map of each mu, the one copy that
:func:`coefficients.npbi_table` memoises.
Theorem 5.1 reads it at shift n-1, and Relation 5.1 and the binomials of
Theorem 11.2 read its p = 0 entries at shift -m (:func:`_p0_plan`).
Corollary 5.2 reads y only through (-y)^n (y+1)^p, so r! a^r c_r(y) is
the sum over e of C[r][e] y^e, each C[r][e] a shape-free polynomial in
|la|, the P_k and a summed from the K polynomials (:func:`_c_formula`):
the explicit expression of c_r, and so of s_r and sigma_r, in |la| and
the d_k.

Each polynomial is compiled once (:func:`_compile`), and
:meth:`_MomentTable.evaluate` forms each monomial |la|^e0 P_mu a^j of the
plans it is given once at its table's |la|, P_k and a.  So a table keeps
only its power sums, the C rows and the row and column binomials of
Theorem 11.2, in lists extended on demand.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .coefficients import npbi_table, stirling_first, stirling_inverse_t
from .partitions import Partition, alpha_keyed_memo, check_alpha, content_numerators, enumerate_partitions, z_of
from .series import comb_int, falling_binomial


@lru_cache(maxsize=None)
def _k_formula(n: int, m: int, shift: int, p_max: int) -> tuple[Mapping[tuple[int, tuple[int, ...]], int], ...]:
    """(n! K(n, m)[p] for p = 0 .. p_max <= m) at this shift, each mapping
    (e0, mu) to an integer v for the term v |la|^e0 P_mu, mu |- m: term k
    of the sum gives n! C(X0 + shift, n-k) times npbi(mu, p, k) m!/z_mu,
    read from the npbi map of each mu.  Only the empty shape, at m = 0,
    has an entry at k = 0.  The memo is unbounded: the run's orders bound
    its keys."""
    polys: list[Counter] = [Counter() for _ in range(p_max + 1)]
    k_max = min(n, m)
    fallings = [falling_binomial(n, n - k, shift) for k in range(k_max + 1)]
    fact = math.factorial(m)
    for mu in enumerate_partitions(m):
        z = fact // z_of(mu)
        for (p, k), c in npbi_table(mu).items():
            if p <= p_max and k <= k_max:
                for e0, f in enumerate(fallings[k]):
                    polys[p][e0, mu.parts] += f * c * z
    return tuple(MappingProxyType({key: v for key, v in poly.items() if v}) for poly in polys)


@lru_cache(maxsize=None)
def _c_formula(r: int) -> tuple[Mapping[tuple[int, tuple[int, ...]], int], ...]:
    """The shape-free row C[r]: entry e maps (e0, mu) to an integer v with
    C[r][e] = sum of v |la|^e0 P_mu a^(r-|mu|) at every shape and alpha.
    Term (n, p, q) of the closed form, m = r-2n-p, is (-1)^n C(p, e-n)
    (r!/(m! n!)) C(n+p+q-1, p) times n! K(n, m)[q] at shift n-1; n!
    divides r!/m!, a product of 2n+p >= n consecutive integers.  The memo
    is unbounded: one key per order, so the run's r_max bounds it."""
    rows: list[Counter] = [Counter() for _ in range(r + 1)]
    fact = math.factorial(r)
    for n in range(r // 2 + 1):
        for p in range(r - 2 * n + 1):
            m = r - 2 * n - p
            scale = (-1) ** n * (fact // math.factorial(m) // math.factorial(n))
            for q, terms in enumerate(_k_formula(n, m, n - 1, m)):
                w = scale * comb_int(n + p + q - 1, p)
                for e in range(n, n + p + 1) if w else ():
                    c = math.comb(p, e - n) * w
                    for key, v in terms.items():
                        rows[e][key] += c * v
    return tuple(MappingProxyType({key: v for key, v in row.items() if v}) for row in rows)


def _compile(polys, degree: int | None) -> tuple[tuple, tuple]:
    """Shape-free polynomials (e0, mu) -> v as (monomials, plan): each key
    once, as (e0, mu, j) for the monomial |la|^e0 P_mu a^j with
    j = degree - |mu| (j = 0 when degree is None), and for each
    polynomial the (indices into monomials, coefficients) of its terms."""
    index = {key: i for i, key in enumerate(dict.fromkeys(key for terms in polys for key in terms))}
    monomials = tuple((e0, mu, 0 if degree is None else degree - sum(mu)) for e0, mu in index)
    return monomials, tuple((tuple(map(index.__getitem__, terms)), tuple(terms.values())) for terms in polys)


@lru_cache(maxsize=None)
def _c_plan(r: int) -> tuple[tuple, tuple]:
    """_c_formula(r), read through the module global, compiled at degree r; unbounded."""
    return _compile(_c_formula(r), r)


@lru_cache(maxsize=None)
def _p0_plan(bound: int) -> tuple[tuple, tuple]:
    """The p = 0 entries n! K(n, m)[0] at shift -m of :func:`_k_formula`,
    read through the module global, for s = n + m = 0 .. bound and then
    n = 0 .. s; they read no a.  Unbounded: the run's bounds bound it."""
    return _compile([_k_formula(n, s - n, n - s, 0)[0] for s in range(bound + 1) for n in range(s + 1)], None)


@lru_cache(maxsize=None)
def _thm51_plan(order: int) -> tuple[tuple[tuple[int, int, int], ...], tuple[tuple, tuple]]:
    """The keys (m, shift, n) of :func:`verify._thm51_terms` and their v
    compiled at degree order: n! K(n, N)[p] at shift n-1 of :func:`_k_formula`,
    read through the module global, times (-1)^N order!/(N! n!), an integer
    since order - N >= 2n.  Unbounded: one key per order."""
    fact = math.factorial(order)
    keys, polys = [], []
    for n in range(order // 2 + 1):
        for big_n in range(order - 2 * n + 1):
            scale = (-1) ** big_n * (fact // math.factorial(big_n) // math.factorial(n))
            for p, terms in enumerate(_k_formula(n, big_n, n - 1, big_n)):
                if terms:
                    keys.append((n + big_n - p, 2 * n + big_n, n))
                    polys.append({key: v * scale for key, v in terms.items()})
    return tuple(keys), _compile(polys, order)


class _MomentTable:
    """Integer power sums, C rows and binomials of one (shape, alpha = a/b)."""

    __slots__ = ("a", "b", "_contents", "_power_sums", "_c_rows", "_binomials")

    def __init__(self, la: Partition, a: int, b: int):
        self.a, self.b = a, b
        self._contents = content_numerators(la, a, b)
        self._power_sums = [la.weight]
        self._c_rows: list[tuple[int, ...]] = []
        self._binomials = [(1, 1, 1, 1)]

    def power_sum(self, k: int) -> int:
        """P_k, the sum of the k-th powers of the content numerators."""
        sums = self._power_sums
        while len(sums) <= k:
            m = len(sums)
            sums.append(sum(c**m for c in self._contents))
        return sums[k]

    def evaluate(self, plans, top: int) -> list[tuple[int, ...]]:
        """The values of each compiled plan of :func:`_compile` at this
        table, one tuple per plan, for plans whose e0, parts and powers of a
        are at most top: each |la|^e0, P_mu and a^j is formed once across
        all the plans, and each value is one sum of products."""
        sums = self._power_sums
        self.power_sum(top)  # fills every P_k a term reads
        a_pows = [self.a**j for j in range(top + 1)]
        w_pows = [sums[0] ** j for j in range(top + 1)]
        prods = {mu: math.prod(map(sums.__getitem__, mu)) for mu in {mu for monomials, _ in plans for _, mu, _ in monomials}}
        out = []
        for monomials, plan in plans:
            values = [w_pows[e0] * prods[mu] * a_pows[j] for e0, mu, j in monomials]
            out.append(tuple(sum(map(operator.mul, coefficients, map(values.__getitem__, indices))) for indices, coefficients in plan))
        return out

    def c_rows(self, r_max: int) -> list[tuple[int, ...]]:
        """The rows C[0] .. C[r_max] (and any built beyond) of :func:`_c_plan`,
        the missing orders evaluated together and kept."""
        rows = self._c_rows
        if len(rows) <= r_max:
            rows += self.evaluate([_c_plan(r) for r in range(len(rows), r_max + 1)], r_max)
        return rows

    def row_column_binomials(self, p_max: int) -> list[tuple[int, int, int, int]]:
        """[(R_p, R'_p, K_p, K'_p) for p = 0 .. p_max] (and any built
        beyond), the row binomials R_p / R'_p and column binomials K_p / K'_p
        of :func:`moments.row_column_binomials`, missing p added on demand.

        The row sum at p is an integer over a^p p! and the column sum one
        over b^p p!; dividing by (1/alpha)_p and (alpha)_p leaves
        R'_p = p! prod_{m<p} (b + m a) and K'_p = p! prod_{m<p} (a + m b),
        which swap at 1/alpha."""
        out, a, b = self._binomials, self.a, self.b
        if len(out) > p_max:
            return out
        # Term (i, j) of the row sum at p is s(p-1, i+j-1) (p!/j!) b^i a^(p-i-j)
        # times the p = 0 k-sum K(i, j)[0] at shift -j, and of the column sum
        # the same with (-1)^j a^i b^(p-i-j).  Grouped by s = i + j, with p!/j!
        # as (p!/s!) (s!/j!), the inner sums over i + j = s do not depend on p,
        # and (s!/j!) K(i, j)[0] is C(s, i) times the value i! K of _p0_plan.
        facts = [math.factorial(n) for n in range(p_max + 1)]
        (k0,) = self.evaluate([_p0_plan(p_max)], p_max)
        inner = [[0, 0]]
        for s in range(1, p_max + 1):
            terms = [(math.comb(s, i) * v, i, s - i) for i, v in enumerate(k0[s * (s + 1) // 2 : (s + 1) * (s + 2) // 2])]
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
def moment_table(la: Partition, a: int, b: int) -> _MomentTable:
    """moment_table(la, alpha): the integer moment table of (la, alpha = a/b),
    built once and extended on demand."""
    return _MomentTable(la, a, b)


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
