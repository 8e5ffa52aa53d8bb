"""Content power sums and the diagram-indexed moment polynomials.

d_k(la; alpha) is the k-th power sum of the alpha-content alphabet of la
(d_0 = |la|).  f_npk specializes the marked polynomial family at
X_i = d_i, which is what every closed moment formula below consumes.
The shifted power sums p*_k decompose the d_k through the subset-count
numbers t(k, m).
"""

from __future__ import annotations

from fractions import Fraction

from .coefficients import npbi, stirling_inverse_t
from .partitions import Partition, check_alpha, content_alphabet, enumerate_partitions, z_of
from .series import lowering_factorial

_d_cache: dict[tuple[tuple[int, ...], Fraction, int], Fraction] = {}
_f_cache: dict[tuple[tuple[int, ...], Fraction, int, int, int], Fraction] = {}


def d_k(la: Partition, alpha: Fraction, k: int) -> Fraction:
    """k-th power sum of the alpha-contents; k = 0 counts the cells."""
    alpha = check_alpha(alpha)
    if k < 0:
        raise ValueError("k must be nonnegative")
    key = (la.parts, alpha, k)
    hit = _d_cache.get(key)
    if hit is not None:
        return hit
    if k == 0:
        val = Fraction(la.weight)
    else:
        val = sum((c**k for c in content_alphabet(la, alpha)), Fraction(0))
    _d_cache[key] = val
    return val


def d_mu(la: Partition, alpha: Fraction, mu: Partition) -> Fraction:
    out = Fraction(1)
    for part in mu.parts:
        out *= d_k(la, alpha, part)
    return out


def f_npk(la: Partition, alpha: Fraction, n: int, p: int, k: int) -> Fraction:
    """Marked moment polynomial of la: sum over |mu| = n of
    npbi(mu, p, k) d_mu / z_mu.  Same conventions as the abstract family:
    k = 0 gives 0 except n = p = 0 which gives 1."""
    alpha = check_alpha(alpha)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0 <= p <= n:
        raise ValueError("p out of range")
    if k < 0:
        raise ValueError("k must be nonnegative")
    key = (la.parts, alpha, n, p, k)
    hit = _f_cache.get(key)
    if hit is not None:
        return hit
    if k == 0:
        val = Fraction(1) if n == 0 else Fraction(0)
    elif n == 0 or k > n:
        val = Fraction(0)
    else:
        val = Fraction(0)
        for mu in enumerate_partitions(n):
            c = npbi(mu, p, k)
            if c:
                val += Fraction(c, z_of(mu)) * d_mu(la, alpha, mu)
    _f_cache[key] = val
    return val


def shifted_power_sum(la: Partition, alpha: Fraction, k: int) -> Fraction:
    """p*_k: sum over rows of [la_i - (i-1)/alpha]_k - [-(i-1)/alpha]_k."""
    alpha = check_alpha(alpha)
    if k < 1:
        raise ValueError("k must be positive")
    total = Fraction(0)
    for i, part in enumerate(la.parts, start=1):
        shift = Fraction(i - 1) / alpha
        total += lowering_factorial(Fraction(part) - shift, k)
        total -= lowering_factorial(-shift, k)
    return total


def dk_from_shifted(la: Partition, alpha: Fraction, k: int) -> Fraction:
    """Recover d_k from shifted power sums:
    d_k = sum_m t(k, m) p*_{m+1} / (m+1).

    The m = 0 term covers k = 0, where the sum collapses to p*_1 = |la|.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    total = Fraction(0)
    for m in range(0, k + 1):
        t = stirling_inverse_t(k, m)
        if t:
            total += Fraction(t) * shifted_power_sum(la, alpha, m + 1) / (m + 1)
    return total
