"""Exact arithmetic kernels.

Everything in this package computes over ``fractions.Fraction``; floating
point appears only in the Monte Carlo summary statistics of the growth
sampler.  Three representations cover every need here:

* :class:`UniPoly`, a dense univariate polynomial, which is also the
  truncated one-variable power series (cut with :meth:`UniPoly.truncate`;
  :func:`linear_ratio_series` builds ratios of linear factors on integer
  numerators C_i, one Fraction C_i / D^i per coefficient at the end),
* :class:`TruncatedSeries`, a multivariate power series cut at a bound on
  the total degree across its declared variables, also used for series
  whose coefficients are XPolynomials,
* :class:`XPolynomial`, a polynomial in the graded symbol family
  ``X0, X1, X2, ...`` whose monomials are an ``X0`` power times a product
  of higher symbols indexed by a partition.

``TruncatedSeries`` coefficients may be Fractions or XPolynomials; the
series code only assumes ring operations plus division by integers, so
both rings plug in unchanged.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Rational = Fraction

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


def _one_like(x):
    return x * 0 + 1


def raising_factorial(x, n: int):
    """(x)_n = x (x+1) ... (x+n-1); n = 0 gives 1.  x may be a number or UniPoly."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    acc = _one_like(x)
    for i in range(n):
        acc = acc * (x + i)
    return acc


def lowering_factorial(x, n: int):
    """[x]_n = x (x-1) ... (x-n+1); n = 0 gives 1.  x may be a number or UniPoly."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    acc = _one_like(x)
    for i in range(n):
        acc = acc * (x - i)
    return acc


def binomial(x, n: int):
    """Generalized binomial [x]_n / n!, valid at rational or polynomial x."""
    return lowering_factorial(x, n) * Fraction(1, math.factorial(n))


class UniPoly:
    """Dense univariate polynomial with Fraction coefficients.

    Trailing zero coefficients are trimmed on construction, so the zero
    polynomial is the empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def x(cls) -> "UniPoly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c: Scalar) -> "UniPoly":
        return cls((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def truncate(self, order: int) -> "UniPoly":
        """The series cut after the t^order term."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        return UniPoly(self.coeffs[: order + 1])

    def __add__(self, other):
        if isinstance(other, UniPoly):
            n = max(len(self.coeffs), len(other.coeffs))
            return UniPoly(
                self.coefficient(i) + other.coefficient(i) for i in range(n)
            )
        if isinstance(other, (int, Fraction)):
            cs = list(self.coeffs) or [Fraction(0)]
            cs[0] += other
            return UniPoly(cs)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        r = self.__add__(-other if isinstance(other, UniPoly) else -Fraction(other))
        return r

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if self.is_zero() or other.is_zero():
                return UniPoly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return UniPoly(out)
        if isinstance(other, (int, Fraction)):
            return UniPoly(c * other for c in self.coeffs)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPoly(c / Fraction(other) for c in self.coeffs)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        acc = UniPoly((1,))
        for _ in range(n):
            acc = acc * self
        return acc

    def __call__(self, value: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * Fraction(value) + c
        return acc

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == (() if other == 0 else (Fraction(other),))
        return NotImplemented

    def __hash__(self):
        return hash(("UniPoly", self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "UniPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{i}")
        return "UniPoly(" + " + ".join(parts) + ")"


class XPolynomial:
    """Polynomial in X0 and the partition-indexed products of X1, X2, ...

    A monomial is a pair (e0, mu): X0**e0 times the product of X_{mu_i}
    over the parts of the partition mu (stored as a weakly decreasing
    tuple).  Coefficients are Fractions; zero coefficients are dropped.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, tuple[int, ...]], Scalar] = ()):
        self.terms: dict[tuple[int, tuple[int, ...]], Fraction] = {}
        for key, c in dict(terms).items():
            c = Fraction(c)
            if c != 0:
                self.terms[key] = c

    @classmethod
    def constant(cls, c: Scalar) -> "XPolynomial":
        return cls({(0, ()): Fraction(c)})

    @classmethod
    def x0(cls, power: int = 1) -> "XPolynomial":
        return cls({(power, ()): Fraction(1)})

    @classmethod
    def symbol(cls, i: int) -> "XPolynomial":
        """X_i; i = 0 gives X0."""
        if i == 0:
            return cls.x0()
        return cls({(0, (i,)): Fraction(1)})

    @classmethod
    def monomial(cls, mu: Sequence[int], coeff: Scalar = 1) -> "XPolynomial":
        key = tuple(sorted(mu, reverse=True))
        return cls({(0, key): Fraction(coeff)})

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = XPolynomial.constant(other)
        if not isinstance(other, XPolynomial):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, Fraction(0)) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        res = XPolynomial.__new__(XPolynomial)
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = XPolynomial.__new__(XPolynomial)
        res.terms = {k: -c for k, c in self.terms.items()}
        return res

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = XPolynomial.constant(other)
        if not isinstance(other, XPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if other == 0:
                return XPolynomial()
            res = XPolynomial.__new__(XPolynomial)
            res.terms = {k: c * other for k, c in self.terms.items()}
            return res
        if not isinstance(other, XPolynomial):
            return NotImplemented
        out: dict[tuple[int, tuple[int, ...]], Fraction] = {}
        for (e0a, mua), ca in self.terms.items():
            for (e0b, mub), cb in other.terms.items():
                key = (e0a + e0b, tuple(sorted(mua + mub, reverse=True)))
                s = out.get(key, Fraction(0)) + ca * cb
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        res = XPolynomial.__new__(XPolynomial)
        res.terms = out
        return res

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, XPolynomial):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == XPolynomial.constant(other).terms
        return NotImplemented

    def __hash__(self):
        return hash(("XPolynomial", tuple(sorted(self.terms.items()))))

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


class TruncatedSeries:
    """Power series in named variables, truncated at a total-degree bound.

    Coefficients live in a ring supporting +, -, *, scalar division and
    comparison with 0 (Fraction or XPolynomial).  Keys are exponent
    tuples aligned with ``variables``; entries beyond ``order`` in total
    degree are discarded by every operation.  Binary operations require
    identical variable tuples and orders.
    """

    __slots__ = ("variables", "order", "coeffs")

    def __init__(
        self,
        variables: Sequence[str],
        order: int,
        coeffs: Mapping[tuple[int, ...], object] | None = None,
    ):
        if order < 0:
            raise ValueError("order must be nonnegative")
        self.variables = tuple(variables)
        self.order = order
        data = {}
        if coeffs:
            nv = len(self.variables)
            for key, c in coeffs.items():
                if len(key) != nv:
                    raise ValueError("exponent key arity mismatch")
                if sum(key) <= order and not _is_zero(c):
                    data[tuple(key)] = c
        self.coeffs = data

    @classmethod
    def constant(cls, c, variables: Sequence[str], order: int) -> "TruncatedSeries":
        key = (0,) * len(tuple(variables))
        return cls(variables, order, {key: c})

    @classmethod
    def variable(cls, name: str, variables: Sequence[str], order: int) -> "TruncatedSeries":
        variables = tuple(variables)
        key = tuple(1 if v == name else 0 for v in variables)
        if sum(key) != 1:
            raise ValueError(f"unknown variable {name!r}")
        return cls(variables, order, {key: Fraction(1)})

    def one(self) -> "TruncatedSeries":
        return TruncatedSeries.constant(Fraction(1), self.variables, self.order)

    def zero(self) -> "TruncatedSeries":
        return TruncatedSeries(self.variables, self.order)

    def _check_compatible(self, other: "TruncatedSeries"):
        if self.variables != other.variables or self.order != other.order:
            raise ValueError("series have different variables or order")

    def coefficient(self, key: Sequence[int]):
        return self.coeffs.get(tuple(key), Fraction(0))

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_compatible(other)
            out = dict(self.coeffs)
            for key, c in other.coeffs.items():
                s = out.get(key)
                s = c if s is None else s + c
                if _is_zero(s):
                    out.pop(key, None)
                else:
                    out[key] = s
            return self._raw(out)
        if isinstance(other, (int, Fraction)):
            return self + TruncatedSeries.constant(Fraction(other), self.variables, self.order)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return self._raw({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            return self + (-other)
        if isinstance(other, (int, Fraction)):
            return self + (-Fraction(other))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_compatible(other)
            out: dict[tuple[int, ...], object] = {}
            order = self.order
            for ka, ca in self.coeffs.items():
                da = sum(ka)
                for kb, cb in other.coeffs.items():
                    if da + sum(kb) > order:
                        continue
                    key = tuple(a + b for a, b in zip(ka, kb))
                    p = ca * cb
                    s = out.get(key)
                    s = p if s is None else s + p
                    if _is_zero(s):
                        out.pop(key, None)
                    else:
                        out[key] = s
            return self._raw(out)
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(other))
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c) -> "TruncatedSeries":
        """Multiply every coefficient by a fixed ring element."""
        if _is_zero(c):
            return self.zero()
        return self._raw({k: v * c for k, v in self.coeffs.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        acc = self.one()
        for _ in range(n):
            acc = acc * self
        return acc

    def _raw(self, coeffs: dict) -> "TruncatedSeries":
        res = TruncatedSeries.__new__(TruncatedSeries)
        res.variables = self.variables
        res.order = self.order
        res.coeffs = coeffs
        return res

    def sorted_terms(self):
        return sorted(self.coeffs.items())

    def first_difference(self, other: "TruncatedSeries"):
        """Smallest exponent key where the two series differ, or None."""
        self._check_compatible(other)
        keys = sorted(
            set(self.coeffs) | set(other.coeffs),
            key=lambda k: (sum(k), k),
        )
        for key in keys:
            a = self.coeffs.get(key, Fraction(0))
            b = other.coeffs.get(key, Fraction(0))
            if a != b:
                return key, a, b
        return None

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.variables != other.variables or self.order != other.order:
            return False
        return self.first_difference(other) is None

    def __repr__(self):
        terms = ", ".join(f"{k}: {c}" for k, c in self.sorted_terms()[:8])
        more = "..." if len(self.coeffs) > 8 else ""
        return (
            f"TruncatedSeries(vars={self.variables}, order={self.order}, "
            f"{{{terms}{more}}})"
        )


def _is_zero(c) -> bool:
    if c is None:
        return True
    if isinstance(c, XPolynomial):
        return not c.terms
    return c == 0


def gauss_2f1_truncated(a: int, b: int, c: int, order: int) -> UniPoly:
    """Truncated Gauss hypergeometric series 2F1(a, b; c; z).

    Coefficient of z^i is (a)_i (b)_i / ((c)_i i!).  Requires c >= 1 so no
    denominator factor vanishes.
    """
    if c < 1:
        raise ValueError("c must be a positive integer")
    coeffs = []
    term = Fraction(1)
    for i in range(order + 1):
        coeffs.append(term)
        term = term * Fraction((a + i) * (b + i), (c + i) * (i + 1))
    return UniPoly(coeffs)


def linear_ratio_series(num: Iterable[Scalar], den: Iterable[Scalar], order: int) -> UniPoly:
    """prod_a (1 + a t) / prod_b (1 + b t) over a in num, b in den, mod t^(order+1).

    Each factor updates one dense coefficient list in place, in O(order)
    (Knuth, TAOCP Vol. 2, 4.7): multiplying by 1 + a t runs downward,
    c_i += a c_{i-1}; dividing by 1 + b t runs upward, c_i -= b c_{i-1}.
    The updates run on integers: with D the lcm of the factors'
    denominators, each factor is n/D and c_i = C_i / D^i, where the C_i
    obey the same updates with n in place of the factor.  Zero factors
    are skipped.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    num = [v for v in num if v]
    den = [v for v in den if v]
    big_d = math.lcm(*(v.denominator for v in num), *(v.denominator for v in den))
    cs = [0] * (order + 1)
    cs[0] = 1
    for v in num:
        n = v.numerator * (big_d // v.denominator)
        for i in range(order, 0, -1):
            cs[i] += n * cs[i - 1]
    for v in den:
        n = v.numerator * (big_d // v.denominator)
        for i in range(1, order + 1):
            cs[i] -= n * cs[i - 1]
    return UniPoly(Fraction(c, big_d**i) for i, c in enumerate(cs))
