"""Symmetric functions on finite rational alphabets.

An alphabet is a finite tuple of Fractions; repeated values are allowed
and count by position.  Besides the classical bases e, h, p, m this
module evaluates the partition-indexed polynomial families

    p_npk(n, p, k) = sum over |mu| = n of npbi(mu, p, k)/z_mu * X_mu,
    p_nk = p_npk at p = 0,

under a specialization of the symbols X1, X2, ..., expands p_nk(-X) in
the monomial basis by exact solving on generic prime alphabets, and runs
the coefficient-fitting experiment for the marked family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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


def _distinct_permutations(vector: tuple[int, ...]):
    """Distinct rearrangements of a multiset of integers."""
    counts: dict[int, int] = {}
    for v in vector:
        counts[v] = counts.get(v, 0) + 1
    n = len(vector)
    out: list[int] = []

    def rec():
        if len(out) == n:
            yield tuple(out)
            return
        for v in sorted(counts):
            if counts[v]:
                counts[v] -= 1
                out.append(v)
                yield from rec()
                out.pop()
                counts[v] += 1

    yield from rec()


def monomial(a: Sequence, mu: Partition) -> Fraction:
    """m_mu: sum over distinct exponent assignments of mu onto the alphabet."""
    a = as_alphabet(a)
    if mu.length > len(a):
        return Fraction(0)
    if mu.length == 0:
        return Fraction(1)
    padded = tuple(mu.parts) + (0,) * (len(a) - mu.length)
    total = Fraction(0)
    for perm in _distinct_permutations(padded):
        term = Fraction(1)
        for v, e in zip(a, perm):
            if e:
                term *= v**e
        total += term
    return total


def power_sum_product(a: Sequence, mu: Partition) -> Fraction:
    term = Fraction(1)
    for part in mu.parts:
        term *= power_sum(a, part)
    return term


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
    def from_values(cls, x0, values: Sequence) -> "Specialization":
        vals = [Fraction(v) for v in values]

        def get(i: int):
            if 1 <= i <= len(vals):
                return vals[i - 1]
            raise ValueError(f"no value supplied for X{i}")

        return cls(Fraction(x0), get)

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


@lru_cache(maxsize=None)
def _prime_list(count: int) -> tuple[int, ...]:
    primes: list[int] = []
    cand = 2
    while len(primes) < count:
        if all(cand % q for q in primes if q * q <= cand):
            primes.append(cand)
        cand += 1
    return tuple(primes)


def _generic_alphabet(size: int, window: int) -> Alphabet:
    ps = _prime_list(size * (window + 1))
    return tuple(Fraction(q) for q in ps[size * window : size * (window + 1)])


def _solve_linear(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Exact Gaussian elimination; None when the matrix is singular."""
    n = len(matrix)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def monomial_expand(
    evaluate: Callable[[Alphabet], Fraction], n: int, size: int
) -> dict[Partition, Fraction]:
    """Expand a degree-n symmetric functional into monomial coefficients.

    ``evaluate`` is called on deterministic generic prime alphabets of the
    given size; the square system over all partitions of n is solved
    exactly, advancing the prime window if a degenerate matrix shows up.
    """
    mus = [mu for mu in enumerate_partitions(n) if mu.length <= size]
    count = len(mus)
    window = 0
    while True:
        alphabets = [_generic_alphabet(size, window + j) for j in range(count)]
        matrix = [[monomial(a, mu) for mu in mus] for a in alphabets]
        rhs = [evaluate(a) for a in alphabets]
        sol = _solve_linear(matrix, rhs)
        if sol is not None:
            return dict(zip(mus, sol))
        window += count
        if window > 50 * count:
            raise RuntimeError("could not find a nondegenerate alphabet system")


def _p_npk_neg_value(n: int, p: int, k: int, a: Alphabet) -> Fraction:
    """p_npk with every symbol negated, specialized to power sums of a."""
    spec = Specialization.power_sums(a)
    total = Fraction(0)
    for mu in enumerate_partitions(n):
        c = npbi(mu, p, k)
        if not c:
            continue
        term = Fraction(c, z_of(mu))
        for part in mu.parts:
            term *= spec.xk(part)
        if mu.length % 2:
            term = -term
        total += term
    return total


def p_nk_monomial_expansion(n: int, k: int, a: Sequence) -> dict[Partition, Fraction]:
    """Monomial coefficients of the sign-flipped unmarked family.

    Solves on generic alphabets of the same size as ``a``, checks the
    support law (coefficient (-1)^k exactly on length-k shapes), and
    cross-evaluates on ``a`` itself before returning the map.
    """
    a = as_alphabet(a)
    if len(a) < n:
        raise ValueError("need >= n generic elements")
    if k < 1 or k > n:
        raise ValueError("k out of range")
    coeffs = monomial_expand(lambda al: _p_npk_neg_value(n, 0, k, al), n, len(a))
    sign = Fraction((-1) ** k)
    for mu, c in coeffs.items():
        expected = sign if mu.length == k else Fraction(0)
        assert c == expected, f"monomial law fails at {mu}: {c} != {expected}"
    direct = _p_npk_neg_value(n, 0, k, a)
    recon = sum((c * monomial(a, mu) for mu, c in coeffs.items()), Fraction(0))
    assert direct == recon
    return coeffs


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
    """Fit monomial coefficients of the sign-flipped marked family.

    For each n <= n_max, p <= min(p_max, n), 1 <= k <= n the coefficient
    on a length-k shape mu is recorded as (-1)^k chi.  The closed guess
    for chi is compared for p <= 3 only; larger p rows carry no verdict.
    Never raises on a mismatch; everything lands in the report.
    """
    rows: list[ChiRow] = []
    violations: list[str] = []
    for n in range(1, n_max + 1):
        for p in range(0, min(p_max, n) + 1):
            for k in range(1, n + 1):
                coeffs = monomial_expand(
                    lambda al: _p_npk_neg_value(n, p, k, al), n, n
                )
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
