"""Symmetric functions on finite rational alphabets.

An alphabet is a finite tuple of Fractions; repeated values are allowed
and count by position.  Besides the classical bases e, h, p this module
evaluates the partition-indexed polynomial families

    p_npk(n, p, k) = sum over |mu| = n of npbi(mu, p, k)/z_mu * X_mu,
    p_nk = p_npk at p = 0,

under a specialization of the symbols X1, X2, ..., expands power-sum
products in the monomial basis m through the exact transition
p_la = sum_mu L[la, mu] m_mu, and runs the coefficient experiment for the
marked family p_npk(-X) on top of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .coefficients import comb_int, npbi
from .partitions import Partition, enumerate_partitions, z_of
from .series import UniPoly, linear_ratio_series

Alphabet = tuple[Fraction, ...]


def as_alphabet(values: Sequence) -> Alphabet:
    return tuple(Fraction(v) for v in values)


def power_sum(a: Sequence, k: int) -> Fraction:
    """p_k = sum of k-th powers; k >= 1."""
    if k < 1:
        raise ValueError("k must be positive")
    return sum((Fraction(v) ** k for v in a), Fraction(0))


def elementary(a: Sequence, k: int) -> Fraction:
    """e_k, the k-th elementary symmetric value; 0 beyond the alphabet size."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    a = as_alphabet(a)
    if k > len(a):
        return Fraction(0)
    # coefficient extraction from prod (1 + t v), degree capped at k
    coeffs = [Fraction(0)] * (k + 1)
    coeffs[0] = Fraction(1)
    for v in a:
        for d in range(min(k, len(coeffs) - 1), 0, -1):
            coeffs[d] += coeffs[d - 1] * v
    return coeffs[k]


def complete(a: Sequence, k: int) -> Fraction:
    """h_k, the k-th complete homogeneous value."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    a = as_alphabet(a)
    if k == 0:
        return Fraction(1)
    # Newton recurrence k h_k = sum_{j=1}^{k} p_j h_{k-j}
    hs = [Fraction(1)]
    ps = [power_sum(a, j) for j in range(1, k + 1)]
    for m in range(1, k + 1):
        acc = Fraction(0)
        for j in range(1, m + 1):
            acc += ps[j - 1] * hs[m - j]
        hs.append(acc / m)
    return hs[k]


def power_sum_product(a: Sequence, mu: Partition) -> Fraction:
    term = Fraction(1)
    for part in mu.parts:
        term *= power_sum(a, part)
    return term


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


def newton_convert(a: Sequence, k: int) -> dict[str, tuple[Fraction, Fraction]]:
    """Both sides of the two power-sum averaging formulas at degree k:
    e_k vs the signed z-weighted sum, h_k vs the unsigned one."""
    a = as_alphabet(a)
    e_rhs = Fraction(0)
    h_rhs = Fraction(0)
    for mu in enumerate_partitions(k):
        w = power_sum_product(a, mu) / z_of(mu)
        h_rhs += w
        e_rhs += w if (k - mu.length) % 2 == 0 else -w
    return {
        "e": (elementary(a, k), e_rhs),
        "h": (complete(a, k), h_rhs),
    }


@dataclass(frozen=True)
class Specialization:
    """Values for the graded symbols: x0 for X0, xk(i) for X_i, i >= 1.

    xk may return Fractions or any ring element that multiplies with
    them (UniPoly, XPolynomial); p_npk only adds and multiplies the values.
    """

    x0: object
    xk: Callable[[int], object]

    @classmethod
    def power_sums(cls, a: Sequence) -> "Specialization":
        a = as_alphabet(a)
        return cls(Fraction(len(a)), lambda i: power_sum(a, i))


def p_npk(n: int, p: int, k: int, spec: Specialization):
    """Evaluate the marked family under a specialization.

    Conventions: k = 0 gives 0 except the (0, 0, 0) case which is 1;
    k > n gives 0; p outside 0..n is an error.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0 <= p <= n:
        raise ValueError("p out of range")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return Fraction(1) if n == 0 else Fraction(0)
    if n == 0 or k > n:
        return Fraction(0)
    total = Fraction(0)
    for mu in enumerate_partitions(n):
        c = npbi(mu, p, k)
        if not c:
            continue
        term = Fraction(c, z_of(mu))
        for part in mu.parts:
            term = term * spec.xk(part)
        total = total + term
    return total


def p_nk(n: int, k: int, spec: Specialization):
    """Unmarked family, the p = 0 case."""
    return p_npk(n, 0, k, spec)


@dataclass(frozen=True)
class ChiRow:
    n: int
    p: int
    k: int
    mu: Partition
    chi_fitted: Fraction
    chi_conjectured: Fraction | None
    match: bool | None


@dataclass(frozen=True)
class ChiReport:
    n_max: int
    p_max: int
    rows: tuple[ChiRow, ...]
    support_violations: tuple[str, ...]

    def all_match(self) -> bool:
        return not self.support_violations and all(
            r.match for r in self.rows if r.match is not None
        )


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


@dataclass(frozen=True)
class B0Row:
    k: int
    basis: str
    lhs: UniPoly
    rhs: UniPoly

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def b0_alphabet_checks(a: Sequence, order: int) -> tuple[B0Row, ...]:
    """Transform each element v to v/(1-v) and compare both expansions.

    Works with a grading marker t (element v becomes the series v t +
    v^2 t^2 + ...), so every identity is a truncated-series equality:
      p_k of the new alphabet vs sum_n C(n-1, k-1) p_n(a) t^n,
      h_k vs sum_n p_nk(X) t^n with X_i = p_i(a),
      e_k vs (-1)^k sum_n p_nk(-X) t^n.
    """
    a = as_alphabet(a)
    if any(v == 1 for v in a):
        raise ValueError("pole in B0")

    def mul(f: UniPoly, g: UniPoly) -> UniPoly:
        return (f * g).truncate(order)

    one = UniPoly((1,))
    elements = [mul(UniPoly((0, v)), linear_ratio_series((), (-v,), order)) for v in a]

    # new_powers[j] = p_j of the transformed alphabet; j > order vanishes
    new_powers = [UniPoly() for _ in range(order + 1)]
    for b in elements:
        pw = b
        for j in range(1, order + 1):
            new_powers[j] = new_powers[j] + pw
            pw = mul(pw, b)

    rows: list[B0Row] = []
    k_max = max(1, min(order, len(a) + 1))

    # h and e of the transformed alphabet via Newton recurrences
    hs = [one]
    es = [one]
    for m in range(1, order + 1):
        acc_h = UniPoly()
        acc_e = UniPoly()
        for j in range(1, m + 1):
            acc_h = acc_h + mul(new_powers[j], hs[m - j])
            term = mul(new_powers[j], es[m - j])
            acc_e = acc_e + (term if j % 2 == 1 else -term)
        hs.append(acc_h * Fraction(1, m))
        es.append(acc_e * Fraction(1, m))

    spec_pos = Specialization.power_sums(a)

    for k in range(1, k_max + 1):
        rhs_p = [Fraction(0)] * (order + 1)
        rhs_h = [Fraction(0)] * (order + 1)
        rhs_e = [Fraction(0)] * (order + 1)
        for n in range(k, order + 1):
            rhs_p[n] = comb_int(n - 1, k - 1) * power_sum(a, n)
            rhs_h[n] = p_nk(n, k, spec_pos)
            val = Fraction(0)
            for mu in enumerate_partitions(n):
                c = npbi(mu, 0, k) if k >= 1 else 0
                if not c:
                    continue
                term = Fraction(c, z_of(mu)) * power_sum_product(a, mu)
                val += -term if mu.length % 2 else term
            rhs_e[n] = val
        rows.append(B0Row(k, "p", new_powers[k] if k <= order else UniPoly(), UniPoly(rhs_p)))
        if k <= order:
            rows.append(B0Row(k, "h", hs[k], UniPoly(rhs_h)))
            rows.append(B0Row(k, "e", es[k], UniPoly(rhs_e) * Fraction((-1) ** k)))
    return tuple(rows)
