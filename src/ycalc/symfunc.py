"""Monomial coefficients of the marked polynomial family.

This module expands power-sum products in the monomial basis m through
the exact transition p_la = sum_mu L[la, mu] m_mu, and runs the
coefficient experiment for the sign-flipped marked family p_npk(-X) of
coefficients.py on top of it.  The family's coefficients are summed
here over the shapes of each n from :func:`coefficients.npbi` and 1/z_la,
so the module reads nothing of the family but npbi.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .coefficients import npbi
from .partitions import Partition, enumerate_partitions, z_of


def power_to_monomial(la: Partition) -> dict[Partition, int]:
    """Row la of the transition p_la = sum_mu L[la, mu] m_mu.

    L[la, mu] counts the maps from the parts of la onto the parts of mu
    whose fibres sum to the target part (Macdonald, Symmetric Functions
    and Hall Polynomials, I.6).  The parts are placed one at a time, each
    joining an existing block or opening a new one; a state is the sorted
    tuple of block sums with its number of set partitions, and labelling
    the equal blocks of mu multiplies that count by prod_i m_i(mu)!.
    """
    states: dict[tuple[int, ...], int] = {(): 1}
    for part in la.parts:
        nxt: dict[tuple[int, ...], int] = {}
        for sums, ways in states.items():
            grown = [sums + (part,)]
            grown += [sums[:j] + (s + part,) + sums[j + 1 :] for j, s in enumerate(sums)]
            for g in grown:
                key = tuple(sorted(g, reverse=True))
                nxt[key] = nxt.get(key, 0) + ways
        states = nxt
    row: dict[Partition, int] = {}
    for sums, ways in states.items():
        mu = Partition(sums)
        for m in mu.multiplicities().values():
            ways *= math.factorial(m)
        row[mu] = ways
    return row


class ChiRow(NamedTuple):
    n: int
    p: int
    k: int
    mu: Partition
    chi_fitted: Fraction
    chi_conjectured: Fraction
    match: bool


class ChiReport(NamedTuple):
    n_max: int
    p_max: int
    rows: tuple[ChiRow, ...]
    support_violations: tuple[str, ...]


def _chi_conjectured(p: int, mu: Partition) -> Fraction:
    """[t^p] prod_j (1 + t + ... + t^{mu_j}): the integer vectors c with
    0 <= c_j <= mu_j and sum c = p, the rank generating function of a
    product of chains (Stanley, Enumerative Combinatorics I, ch. 3).  It
    is chi, not only a fit: the m_mu coefficient of prod_i (1 - v h(x_i, u))
    at v^k, l(mu) = k, is (-1)^k prod_j [x^{mu_j}] h, with
    h = sum_{j>=1} (1 + u + ... + u^j) x^j (derived in :func:`chi_experiment`).
    Each part multiplies the truncated series in place, top index first,
    so every window sum still reads the previous factor's coefficients."""
    coeffs = [1] + [0] * p
    for part in mu.parts:
        for i in range(p, 0, -1):
            coeffs[i] = sum(coeffs[max(0, i - part) : i + 1])
    return Fraction(coeffs[p])


def chi_experiment(n_max: int, p_max: int) -> ChiReport:
    """Monomial coefficients of the sign-flipped marked family.

    For each n <= n_max, p <= min(p_max, n), 1 <= k <= n the coefficient
    of m_mu in p_npk(-X) is sum_la (-1)^l(la) npbi(la, p, k)/z_la L[la, mu];
    on a length-k shape mu it is recorded as (-1)^k chi and compared with
    the product formula of `_chi_conjectured`.
    Never raises on a mismatch; everything lands in the report.

    The formula, derived.  npbi is the row convolution of nbi
    (`_npbi_map`), so sum_{p,k} npbi(la, p, k) u^p v^k = prod_i G_{la_i},
    G_m = sum_{p,k} nbi(m, p, k) u^p v^k.  By the exponential formula
    (Stanley, EC II, 5.1), sum_la (-1)^l(la) z_la^-1 prod_i G_{la_i} p_la
    = prod_i F(x_i) with F(x) = exp(-sum_m G_m x^m / m).  gn-closed checks
    G_m = A^m + B^m - 1 - u^m, A and B the roots of w^2 - (1+u)(1+v) w
    + u(1+v).  With h(x, u) = sum_{j>=1} (1 + u + ... + u^j) x^j
    = x (1 + u - u x) / ((1 - x)(1 - u x)), (1 - x)(1 - u x)(1 - v h)
    = 1 - (1+u)(1+v) x + u(1+v) x^2 = (1 - A x)(1 - B x), so
    sum_m G_m x^m / m = -log(1 - v h) and F = 1 - v h.
    The v^k part of prod_i (1 - v h(x_i, u)) is (-1)^k e_k of the h(x_i, u):
    its m_mu coefficient is 0 unless l(mu) = k, and then
    prod_j (1 + u + ... + u^{mu_j}), which is `_chi_conjectured`.  The
    premise is gn-closed at every m, which the catalog checks only up to
    its n_max, so the comparison stays reported.
    """
    rows: list[ChiRow] = []
    violations: list[str] = []
    for n in range(1, n_max + 1):
        shapes = enumerate_partitions(n)
        transition = {la: power_to_monomial(la) for la in shapes}
        for p in range(0, min(p_max, n) + 1):
            for k in range(1, n + 1):
                coeffs = {mu: Fraction(0) for mu in shapes}
                for la in shapes:
                    c = npbi(la, p, k)
                    if not c:
                        continue
                    w = Fraction(-c if la.length % 2 else c, z_of(la))
                    for mu, count in transition[la].items():
                        coeffs[mu] += w * count
                sign = Fraction((-1) ** k)
                for mu in sorted(coeffs):
                    c = coeffs[mu]
                    if mu.length != k:
                        if c != 0:
                            violations.append(
                                f"n={n} p={p} k={k} mu={mu}: off-support {c}"
                            )
                        continue
                    fitted = c / sign
                    conj = _chi_conjectured(p, mu)
                    rows.append(ChiRow(n, p, k, mu, fitted, conj, fitted == conj))
    return ChiReport(n_max, p_max, tuple(rows), tuple(violations))

