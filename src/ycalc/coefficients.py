"""Generalized binomial integers for rows and for whole diagrams.

The single-row family nbi(n, p, k) counts k-subsets refined by a marked
subset of size p; it reduces to C(n, k) at p = 0 up to the k-factor
identities below and satisfies the closed sum

    nbi(n, p, k) = (n/k) * sum_r C(p, r) C(n-p, r) C(n-r-1, k-r-1).

The diagram families pbi (k cells meeting every row) and npbi (the same
with a marked column threshold p distributed over rows) are assembled
from rows by convolution.  Everything here is an exact integer; p out of
range is an error, k beyond n (or |la|) gives 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .partitions import Partition, enumerate_partitions
from .series import (
    TruncatedSeries,
    UniPoly,
    binomial,
    comb_int,
    gauss_2f1_truncated,
    linear_ratio_series,
)


@lru_cache(maxsize=None)
def nbi(n: int, p: int, k: int) -> int:
    """Row generalized binomial.  Requires 0 <= p <= n and k >= 1; k > n gives 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0 <= p <= n:
        raise ValueError("p out of range")
    if k < 1:
        raise ValueError("k must be positive")
    if k > n:
        return 0
    total = 0
    for r in range(0, min(p, n - p, k - 1) + 1):
        total += math.comb(p, r) * math.comb(n - p, r) * math.comb(n - r - 1, k - r - 1)
    q, rem = divmod(n * total, k)
    assert rem == 0, "row binomial must be an integer"
    return q


@lru_cache(maxsize=None)
def nbi_table(n: int) -> Mapping[tuple[int, int], int]:
    """Immutable snapshot {(p, k): nbi(n, p, k)} over 0 <= p <= n, 1 <= k <= n."""
    data = {(p, k): nbi(n, p, k) for p in range(n + 1) for k in range(1, n + 1)}
    return MappingProxyType(data)


@lru_cache(maxsize=None)
def _pbi_coeffs(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficient list of prod_i ((1+x)^{la_i} - 1); index k counts k-subsets
    of the diagram meeting every row."""
    poly = [1]
    for p in parts:
        row = [math.comb(p, j) for j in range(p + 1)]
        row[0] = 0
        out = [0] * (len(poly) + p - 1 + 1)
        for i, a in enumerate(poly):
            if a:
                for j, b in enumerate(row):
                    if b:
                        out[i + j] += a * b
        poly = out
    return tuple(poly)


def pbi(la: Partition, k: int) -> int:
    """Diagram generalized binomial at p = 0.  k >= 1; k > |la| gives 0."""
    if k < 1:
        raise ValueError("k must be positive")
    cs = _pbi_coeffs(la.parts)
    return cs[k] if k < len(cs) else 0


@lru_cache(maxsize=None)
def _npbi_map(parts: tuple[int, ...]) -> Mapping[tuple[int, int], int]:
    table: dict[tuple[int, int], int] = {(0, 0): 1}
    for a in parts:
        nxt: dict[tuple[int, int], int] = {}
        for (p0, k0), c in table.items():
            for pi in range(a + 1):
                for ki in range(1, a + 1):
                    v = nbi(a, pi, ki)
                    if v:
                        key = (p0 + pi, k0 + ki)
                        nxt[key] = nxt.get(key, 0) + c * v
        table = nxt
    return MappingProxyType(table)


def npbi(la: Partition, p: int, k: int) -> int:
    """Diagram generalized binomial with marked size p.

    Requires 0 <= p <= |la| and k >= 1.  Zero outside l(la) <= k <= |la|.
    """
    if not 0 <= p <= la.weight:
        raise ValueError("p out of range")
    if k < 1:
        raise ValueError("k must be positive")
    return _npbi_map(la.parts).get((p, k), 0)


def npbi_table(la: Partition) -> Mapping[tuple[int, int], int]:
    """Immutable snapshot of all nonzero (p, k) entries for the diagram."""
    return _npbi_map(la.parts)


def gn_series(n: int, order: int) -> TruncatedSeries:
    """Bivariate generating polynomial sum_{p,k} nbi(n,p,k) y^p x^k, truncated.

    Variables ("y", "x"); x stands for z/(1-z).  Total degree is cut at
    ``order``, so use order >= 2n for the complete polynomial.
    """
    coeffs = {}
    for p in range(n + 1):
        for k in range(1, n + 1):
            v = nbi(n, p, k)
            if v:
                coeffs[(p, k)] = Fraction(v)
    return TruncatedSeries(("y", "x"), order, coeffs)


def gn_closed_form(n: int) -> TruncatedSeries:
    """The same bivariate polynomial from the three-term closed form.

    With A, B the halved roots of w^2 - (1+x)(1+y) w + y(1+x), the sum
    P_n = A^n + B^n obeys P_n = (1+x)(1+y) P_{n-1} - y(1+x) P_{n-2} from
    P_0 = 2, P_1 = (1+x)(1+y), and the generating polynomial is
    P_n - 1 - y^n.  Returned at order 2n, which holds every term.
    """
    if n < 1:
        raise ValueError("n must be positive")
    order = 2 * n
    one = TruncatedSeries.constant(Fraction(1), ("y", "x"), order)
    y = TruncatedSeries.variable("y", ("y", "x"), order)
    x = TruncatedSeries.variable("x", ("y", "x"), order)
    lin = (one + x) * (one + y)
    p_prev = TruncatedSeries.constant(Fraction(2), ("y", "x"), order)
    p_cur = lin
    if n == 1:
        p_n = p_cur
    else:
        drop = y * (one + x)
        for _ in range(2, n + 1):
            p_prev, p_cur = p_cur, lin * p_cur - drop * p_prev
        p_n = p_cur
    return p_n - one - y**n


def nbi_from_hypergeometric(n: int, p: int, order: int) -> dict[int, Fraction]:
    """Coefficients of x^k in n z 2F1(p+1, n-p+1; 2; z) at z = x/(1+x).

    Reproduces nbi(n, p, k) for k <= min(n, order) and 0 beyond n; used as
    the analytic cross-route for the row family.
    """
    if not 0 <= p <= n:
        raise ValueError("p out of range")
    hyp = gauss_2f1_truncated(p + 1, n - p + 1, 2, order)
    z_of_x = (UniPoly.x() * linear_ratio_series((), (1,), order)).truncate(order)
    composed = UniPoly()
    for c in reversed(hyp.coeffs):
        composed = (composed * z_of_x).truncate(order) + c
    series = (composed * z_of_x).truncate(order) * n
    return {k: series.coefficient(k) for k in range(order + 1)}


@lru_cache(maxsize=None)
def stirling_first_unsigned(n: int, k: int) -> int:
    """|s(n, k)|: coefficient of x^k in the raising factorial (x)_n."""
    if n < 0 or k < 0:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return stirling_first_unsigned(n - 1, k - 1) + (n - 1) * stirling_first_unsigned(
        n - 1, k
    )


def stirling_first(n: int, k: int) -> int:
    """Signed s(n, k): coefficient of x^k in the lowering factorial [x]_n."""
    v = stirling_first_unsigned(n, k)
    return v if (n - k) % 2 == 0 else -v


@lru_cache(maxsize=None)
def stirling_inverse_t(k: int, m: int) -> int:
    """t(k, m) with x^k = sum_m t(k, m) [x]_m (subset-count numbers)."""
    if k < 0 or m < 0:
        return 0
    if k == 0:
        return 1 if m == 0 else 0
    if m == 0:
        return 0
    return m * stirling_inverse_t(k - 1, m) + stirling_inverse_t(k - 1, m - 1)


def jz_sides(mu: Partition, n: int):
    """Both sides of the binomial filtration swap for a fixed inner shape.

    Returns two UniPoly in X0:
      lhs = sum_k C(X0 - |mu|, n - k) pbi(mu, k)
      rhs = sum_k (-1)^{k - l(mu)} C(X0 - k, n - k) pbi(mu, k),
    k running over l(mu) .. min(n, |mu|), with the k = 0 subset count 1
    for the empty shape.
    """
    x = UniPoly.x()
    lhs = UniPoly()
    rhs = UniPoly()
    for k in range(mu.length, min(n, mu.weight) + 1):
        c = 1 if k == 0 else pbi(mu, k)
        if not c:
            continue
        lhs = lhs + binomial(x - mu.weight, n - k) * c
        sign = 1 if (k - mu.length) % 2 == 0 else -1
        rhs = rhs + binomial(x - k, n - k) * (sign * c)
    return lhs, rhs
