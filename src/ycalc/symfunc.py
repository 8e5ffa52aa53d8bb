"""Monomial coefficients of the marked polynomial family.

This module expands power-sum products in the monomial basis m through
the exact transition p_la = sum_mu L[la, mu] m_mu, and runs the
coefficient experiment for the sign-flipped marked family p_npk(-X) of
coefficients.py on top of it.  The family's values themselves come a
row at a time from :func:`coefficients.marked_row`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .coefficients import npbi
from .partitions import Partition, enumerate_partitions, z_of
from .series import comb_int


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
    chi_conjectured: Fraction | None
    match: bool | None


class ChiReport(NamedTuple):
    n_max: int
    p_max: int
    rows: tuple[ChiRow, ...]
    support_violations: tuple[str, ...]


def _chi_conjectured(p: int, k: int, mu: Partition) -> Fraction:
    m1 = mu.multiplicity(1)
    m2 = mu.multiplicity(2)
    return Fraction(
        comb_int(k + p - 1, p)
        - comb_int(k + p - 3, p - 2) * m1
        - comb_int(k + p - 4, p - 3) * m2
    )


def chi_experiment(n_max: int, p_max: int) -> ChiReport:
    """Monomial coefficients of the sign-flipped marked family.

    For each n <= n_max, p <= min(p_max, n), 1 <= k <= n the coefficient
    of m_mu in p_npk(-X) is sum_la (-1)^l(la) npbi(la, p, k)/z_la L[la, mu];
    on a length-k shape mu it is recorded as (-1)^k chi.  The closed guess
    for chi is compared for p <= 3 only; larger p rows carry no verdict.
    Never raises on a mismatch; everything lands in the report.
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
                    if p <= 3:
                        conj = _chi_conjectured(p, k, mu)
                        rows.append(
                            ChiRow(n, p, k, mu, fitted, conj, fitted == conj)
                        )
                    else:
                        rows.append(ChiRow(n, p, k, mu, fitted, None, None))
    return ChiReport(n_max, p_max, tuple(rows), tuple(violations))

