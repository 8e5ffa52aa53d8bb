"""Generalized binomial integers for rows and for whole diagrams.

The single-row family nbi(n, p, k) counts k-subsets refined by a marked
subset of size p; it reduces to C(n, k) at p = 0 up to the k-factor
identities below and satisfies the closed sum

    nbi(n, p, k) = (n/k) * sum_r C(p, r) C(n-p, r) C(n-r-1, k-r-1).

The diagram families pbi (k cells meeting every row) and npbi (the same
with a marked column threshold p distributed over rows) are assembled
from rows by convolution.  Everything here is an exact integer; p out of
range is an error, k beyond n (or |la|) gives 0.

The marked family weighs npbi over every diagram of n,

    p_npk(n, p, k) = sum over mu |- n of npbi(mu, p, k)/z_mu * X_mu1 X_mu2 ...,

and :func:`marked_row` evaluates a whole row n of it over the products
(n!/z_mu) X_mu1 X_mu2 ..., one per partition of n.
"""

from __future__ import annotations

import math
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping

from .partitions import Partition, enumerate_partitions, z_of
from .series import BiSeries, InvariantError, falling_binomial


@lru_cache(maxsize=None)
def nbi(n: int, p: int, k: int) -> int:
    """Row generalized binomial.  Requires 0 <= p <= n and k >= 1; k > n gives 0.

    The memo is unbounded: the largest n and k a run asks for bound its keys."""
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
    if rem:
        raise InvariantError("row binomial must be an integer")
    return q


def pbi(la: Partition, k: int) -> int:
    """Diagram generalized binomial at p = 0.  k >= 1; k > |la| gives 0."""
    return npbi(la, 0, k)


@lru_cache(maxsize=None)
def _npbi_prefix(parts: tuple[int, ...]) -> Mapping[tuple[int, int], int]:
    """Every nonzero npbi(la, p, k) of the shape with these parts, in the
    order the rows' convolution first reaches each (p, k): the map of the
    prefix parts[:-1] convolved with the nonzero nbi(a, p, k) of the last
    row a, the map of the one-row shape (a,).  The memo is unbounded: one
    key per shape, so the run's largest shape weight bounds its keys."""
    if not parts:
        return MappingProxyType({(0, 0): 1})
    a = parts[-1]
    for i in range(100, len(parts) - 1, 100):  # a long shape's prefixes first, so the recursion stays shallow
        _npbi_prefix(parts[:i])
    row = _npbi_prefix((a,)).items() if parts[:-1] else [((p, k), v) for p in range(a + 1) for k in range(1, a + 1) if (v := nbi(a, p, k))]
    table: dict[tuple[int, int], int] = {}
    for (p0, k0), c in _npbi_prefix(parts[:-1]).items():
        for (p, k), v in row:
            key = (p0 + p, k0 + k)
            table[key] = table.get(key, 0) + c * v
    return MappingProxyType(table)


_npbi_map = _npbi_prefix  # what readers call; the recursion does not, so a map replaced here stays one shape's


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


@lru_cache(maxsize=None)
def _marked_terms(n: int) -> tuple[tuple[tuple[tuple[int, ...], int], ...], tuple[tuple[tuple[int, int, int], ...], ...]]:
    """((parts, n!/z_mu) for mu over enumerate_partitions(n), in that
    order; columns[k] for k <= n, the (i, p, npbi(mu_i, p, k)) entries).
    Column k lists no mu longer than k.  The memo is unbounded: one key
    per n, so the run's largest weight bounds it."""
    fact = math.factorial(n)
    mus = enumerate_partitions(n)
    columns: list[list[tuple[int, int, int]]] = [[] for _ in range(n + 1)]
    for i, mu in enumerate(mus):
        for (p, k), c in npbi_table(mu).items():
            columns[k].append((i, p, c))
    return tuple((mu.parts, fact // z_of(mu)) for mu in mus), tuple(map(tuple, columns))


def marked_row(n: int, xk: Callable[[int], object]) -> tuple[tuple[object, ...], ...]:
    """Row n of n!·p_npk(n, p, k) at X_i = xk(i), indexed [p][k] for
    0 <= p, k <= n.  xk may return ints, Fractions or any ring element
    that multiplies with them (XPolynomial).  Column k = 0 is 0 except at
    n = 0, where the row is ((1,),); entries no partition reaches stay the
    int 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    products = []  # (n!/z_mu) X_mu1 X_mu2 ... for mu over enumerate_partitions(n)
    for parts, v in _marked_terms(n)[0]:
        for part in parts:
            v = v * xk(part)
        products.append(v)
    row: list[list[object]] = [[0] * (n + 1) for _ in range(n + 1)]
    for k, column in enumerate(_marked_terms(n)[1]):
        for i, p, c in column:
            row[p][k] += c * products[i]
    return tuple(map(tuple, row))


def gn_series(n: int, order: int) -> BiSeries:
    """Bivariate generating polynomial sum_{p,k} nbi(n,p,k) y^p x^k, truncated.

    Row p holds the powers of y; x stands for z/(1-z).  Total degree is
    cut at ``order``, so use order >= 2n for the complete polynomial.
    The entries are ints.
    """
    coeffs = {}
    for p in range(n + 1):
        for k in range(1, n + 1):
            coeffs[(p, k)] = nbi(n, p, k)
    return BiSeries(order, coeffs)


def gn_closed_forms(n_max: int) -> list[BiSeries]:
    """The same bivariate polynomials from the three-term closed form, for
    n = 1 .. n_max.

    With A, B the halved roots of w^2 - (1+x)(1+y) w + y(1+x), the sum
    P_n = A^n + B^n obeys P_n = (1+x)(1+y) P_{n-1} - y(1+x) P_{n-2} from
    P_0 = 2, P_1 = (1+x)(1+y), and the generating polynomial is
    P_n - 1 - y^n.  The recurrence runs once, at order 2 n_max; each
    polynomial is returned cut at order 2n, which holds every term since
    P_n has total degree 2n, with int entries.
    """
    order = 2 * n_max
    one = BiSeries(order, {(0, 0): 1})
    y = BiSeries(order, {(1, 0): 1})
    x = BiSeries(order, {(0, 1): 1})
    lin = (one + x) * (one + y)
    drop = y * (one + x)
    p_prev, p_cur = BiSeries(order, {(0, 0): 2}), lin
    out = []
    for n in range(1, n_max + 1):
        if n > 1:
            p_prev, p_cur = p_cur, lin * p_cur - drop * p_prev
        rows = (p_cur - one - BiSeries(order, {(n, 0): 1})).rows
        out.append(BiSeries._of(2 * n, [row[: 2 * n + 1 - i] for i, row in enumerate(rows[: 2 * n + 1])]))
    return out


def nbi_from_hypergeometric(n: int, p: int, order: int) -> tuple[list[int], int]:
    """Coefficients of x^k in n z 2F1(p+1, n-p+1; 2; z) at z = x/(1+x),
    as (nums, D): coefficient k is nums[k] / D for k = 0 .. order.

    Reproduces nbi(n, p, k) for k <= min(n, order) and 0 beyond n; used as
    the analytic cross-route for the row family.
    """
    if not 0 <= p <= n:
        raise ValueError("p out of range")
    # The 2F1 terms (p+1)_i (n-p+1)_i / ((2)_i i!) = C(p+i, i) C(n-p+i, i) / (i+1)
    # as integers over D = lcm(1 .. order+1), and so is every Horner step.
    # Horner in z, ending with one more factor z: each step multiplies by
    # z in place, a shift by one index and then the upward division by 1 + x.
    big_d = math.lcm(*range(1, order + 2))
    hyp = [math.comb(p + i, i) * math.comb(n - p + i, i) * (big_d // (i + 1)) for i in range(order + 1)]
    cs = [0] * (order + 1)
    for c in (*reversed(hyp), 0):
        cs = [0] + cs[:-1]
        for i in range(1, order + 1):
            cs[i] -= cs[i - 1]
        cs[0] += c
    return [n * c for c in cs], big_d


@lru_cache(maxsize=None)
def stirling_first_unsigned(n: int, k: int) -> int:
    """|s(n, k)|: coefficient of x^k in the raising factorial (x)_n.

    The memo is unbounded: the recursion keys stay below the largest n
    and k a run asks for."""
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
    """t(k, m) with x^k = sum_m t(k, m) [x]_m (subset-count numbers).

    The memo is unbounded: the recursion keys stay below the largest k
    and m a run asks for."""
    if k < 0 or m < 0:
        return 0
    if k == 0:
        return 1 if m == 0 else 0
    if m == 0:
        return 0
    return m * stirling_inverse_t(k - 1, m) + stirling_inverse_t(k - 1, m - 1)


def jz_sides(mu: Partition, n: int) -> tuple[list[int], list[int]]:
    """Both sides of the binomial filtration swap for a fixed inner shape.

    Returns two lists of integers over n!, entry e the X0^e coefficient of
      lhs = sum_k C(X0 - |mu|, n - k) pbi(mu, k)
      rhs = sum_k (-1)^{k - l(mu)} C(X0 - k, n - k) pbi(mu, k),
    k running over l(mu) .. min(n, |mu|), with the k = 0 subset count 1
    for the empty shape.  n! C(X0 - s, n - k) is built in integers by
    :func:`series.falling_binomial`.
    """
    sides = ([0] * (n + 1), [0] * (n + 1))
    for k in range(mu.length, min(n, mu.weight) + 1):
        c = 1 if k == 0 else pbi(mu, k)
        sign = 1 if (k - mu.length) % 2 == 0 else -1
        for side, s, scale in ((sides[0], mu.weight, c), (sides[1], k, sign * c)):
            for e, v in enumerate(falling_binomial(n, n - k, -s)):
                side[e] += scale * v
    return sides
