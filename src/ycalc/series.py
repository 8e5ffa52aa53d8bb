"""Exact arithmetic kernels.

Everything in this package is exact, over Python integers and
``fractions.Fraction``; floating point appears only in the Monte Carlo
summary statistics of the growth sampler.  One univariate series form,
one dense two-variable series type and one sparse polynomial ring cover
every need here:

* a truncated one-variable power series is a list of integer
  coefficients over a denominator its caller knows (often D^i at t^i);
  :func:`linear_ratio_integers` builds the ratios of linear factors that
  most of them are,
* :class:`BiSeries`, a dense two-variable power series cut at a total
  degree: row i holds the coefficients of u^i, and every operation
  updates whole rows,
* :class:`XPolynomial`, a polynomial in the graded symbol family
  ``X0, X1, X2, ...`` whose monomials are an ``X0`` power times a product
  of higher symbols indexed by a partition; an integral coefficient is
  held as an int and any other as a Fraction.

``BiSeries`` only assumes ring operations on its entries, so ints,
Fractions and XPolynomials plug in unchanged.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]


class InvariantError(Exception):
    """An invariant of an exact computation does not hold.

    Every library check raises this explicitly instead of using
    ``assert``, so the checks also run under ``python -O``.
    """


def comb_int(m: int, j: int) -> int:
    """Binomial coefficient of an arbitrary integer over a nonnegative one.

    Uses the polynomial convention: the falling product m(m-1)...(m-j+1)
    over j!, which is an integer for every integer m, and 0 when j < 0.
    """
    if j < 0:
        return 0
    if j == 0:
        return 1
    if m >= 0:
        if m < j:
            return 0
        return math.comb(m, j)
    num = 1
    for t in range(j):
        num *= m - t
    q, r = divmod(num, math.factorial(j))
    if r:
        raise InvariantError(f"C({m}, {j}) is not an integer")
    return q


def lowering_factorial(x, n: int):
    """[x]_n = x (x-1) ... (x-n+1); n = 0 gives 1.  x may be a number or an XPolynomial."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    acc = x * 0 + 1  # the one of x's ring
    for i in range(n):
        acc = acc * (x - i)
    return acc


def falling_binomial(n: int, j: int, s: int) -> list[int]:
    """The integer coefficients of n! C(X0 + s, j) = (n!/j!) [X0 + s]_j
    in X0, low degree first, for 0 <= j <= n."""
    out = [math.factorial(n) // math.factorial(j)]
    for c in range(s, s - j, -1):  # times (X0 + c)
        out = [c * out[0], *(u + c * v for u, v in zip(out, out[1:])), out[-1]]
    return out


def _exact(c: Scalar) -> Scalar:
    """c as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class XPolynomial:
    """Polynomial in X0 and the partition-indexed products of X1, X2, ...

    A monomial is a pair (e0, mu): X0**e0 times the product of X_{mu_i}
    over the parts of the partition mu (stored as a weakly decreasing
    tuple).  An integral coefficient is held as an int, any other as a
    Fraction (str prints both alike); zero coefficients are dropped.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, tuple[int, ...]], Scalar] = ()):
        self.terms: dict[tuple[int, tuple[int, ...]], Scalar] = {}
        for key, c in dict(terms).items():
            c = _exact(c)
            if c != 0:
                self.terms[key] = c

    @classmethod
    def _of(cls, terms: dict) -> "XPolynomial":
        res = cls.__new__(cls)
        res.terms = terms
        return res

    @classmethod
    def constant(cls, c: Scalar) -> "XPolynomial":
        return cls({(0, ()): c})

    @classmethod
    def x0(cls) -> "XPolynomial":
        return cls({(1, ()): 1})

    @classmethod
    def symbol(cls, i: int) -> "XPolynomial":
        """X_i; i = 0 gives X0."""
        if i == 0:
            return cls.x0()
        return cls({(0, (i,)): 1})

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if not isinstance(other, XPolynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = XPolynomial.constant(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, 0) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = _exact(s)
        return XPolynomial._of(out)

    __radd__ = __add__

    def __neg__(self):
        return XPolynomial._of({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = XPolynomial.constant(other)
        if not isinstance(other, XPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, XPolynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if other == 0:
                return XPolynomial()
            return XPolynomial._of({k: _exact(c * other) for k, c in self.terms.items()})
        out: dict[tuple[int, tuple[int, ...]], Scalar] = {}
        for (e0a, mua), ca in self.terms.items():
            for (e0b, mub), cb in other.terms.items():
                key = (e0a + e0b, tuple(sorted(mua + mub, reverse=True)))
                s = out.get(key, 0) + ca * cb
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = _exact(s)
        return XPolynomial._of(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, XPolynomial):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == XPolynomial.constant(other).terms
        return NotImplemented

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "XPolynomial(0)"
        chunks = []
        for (e0, mu), c in self.sorted_terms():
            bits = [str(c)]
            if e0 == 1:
                bits.append("X0")
            elif e0 > 1:
                bits.append(f"X0^{e0}")
            if mu:
                bits.append("X[" + ",".join(map(str, mu)) + "]")
            chunks.append("*".join(bits))
        return "XPolynomial(" + " + ".join(chunks) + ")"


class BiSeries:
    """Power series in two variables u, v, cut at total degree ``order``.

    Row i holds the coefficients of u^i v^j for j <= order - i, densely,
    over any ring with +, - and * (int, Fraction or XPolynomial).  Rows
    are filled with the int 0, and products skip zero entries by
    truthiness, so sparse series cost little.  Sums, differences and
    products of two series require equal orders; * by a ring element
    scales every entry.
    """

    __slots__ = ("order", "rows")

    def __init__(self, order: int, coeffs: Mapping[tuple[int, int], object] | None = None):
        if order < 0:
            raise ValueError("order must be nonnegative")
        self.order = order
        self.rows = [[0] * (order + 1 - i) for i in range(order + 1)]
        for key, c in (coeffs or {}).items():
            if len(key) != 2 or min(key) < 0:
                raise ValueError(f"bad exponent key {key!r}")
            i, j = key
            if i + j <= order:
                self.rows[i][j] = c

    @classmethod
    def _of(cls, order: int, rows: list) -> "BiSeries":
        res = cls.__new__(cls)
        res.order = order
        res.rows = rows
        return res

    def _order_with(self, other: "BiSeries") -> int:
        if self.order != other.order:
            raise ValueError("series have different orders")
        return self.order

    def _entrywise(self, other: "BiSeries", op) -> "BiSeries":
        order = self._order_with(other)
        rows = [[op(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        return BiSeries._of(order, rows)

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def __mul__(self, other):
        if not isinstance(other, BiSeries):
            return BiSeries._of(self.order, [[a * other if a else 0 for a in row] for row in self.rows])
        order = self._order_with(other)
        out = [[0] * (order + 1 - i) for i in range(order + 1)]
        terms = [[(m, b) for m, b in enumerate(row) if b] for row in other.rows]
        for i, row in enumerate(self.rows):
            for j, a in enumerate(row):
                if not a:
                    continue
                room = order - i - j
                for k in range(room + 1):
                    target, cut = out[i + k], room - k
                    for m, b in terms[k]:
                        if m > cut:
                            break
                        target[j + m] += a * b
        return BiSeries._of(order, out)


def linear_ratio_integers(num: Iterable[int], den: Iterable[int], order: int) -> list[int]:
    """[C_0 .. C_order], the coefficients of prod_n (1 + n t) / prod_m (1 + m t)
    mod t^(order+1) over integers n in num, m in den.

    Each factor updates one dense coefficient list in place, in O(order)
    (Knuth, TAOCP Vol. 2, 4.7): multiplying by 1 + n t runs downward,
    C_i += n C_(i-1); dividing by 1 + m t runs upward, C_i -= m C_(i-1).
    A factor on both sides cancels before either is applied, and zero
    factors are skipped.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    den = list(den)
    kept = []
    for n in num:
        if n in den:
            den.remove(n)
        else:
            kept.append(n)
    cs = [0] * (order + 1)
    cs[0] = 1
    for n in kept:
        if n:
            for i in range(order, 0, -1):
                cs[i] += n * cs[i - 1]
    for n in den:
        if n:
            for i in range(1, order + 1):
                cs[i] -= n * cs[i - 1]
    return cs
