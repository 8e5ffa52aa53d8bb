"""Named verification jobs over the whole identity catalog.

Every job expands both sides of one identity with exact arithmetic and
compares coefficient maps.  Jobs iterate smallest instances first, so a
failing report always carries the smallest counterexample found.  Job ids
are opaque catalog tokens (stable CLI surface, not descriptive names).

Status semantics: "verified" means every checked equality held exactly;
"failed" means at least one did not, or that the job made no comparison
at all; "reported" marks experimental comparisons that are surfaced
without gating (the fitted-coefficient study), whatever their outcome.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain
from operator import floordiv, mul
from typing import Callable, NamedTuple, Sequence

from .coefficients import (
    gn_closed_forms,
    gn_series,
    jz_sides,
    marked_row,
    nbi,
    nbi_from_hypergeometric,
    npbi,
    npbi_table,
    stirling_first_unsigned,
)
from .growth import (
    _last_step_law,
    cotransition_from_dimensions,
    cotransition_moment_routes,
    plancherel_check,
)
from .moments import (
    S_ROUTES,
    SIGMA_ROUTES,
    _content_ratio_integers,
    _cor52_numerators,
    _corner_weights,
    _pieri_weights,
    _s_regrouped,
    _sigma_lagrange_numerators,
    _sigma_series_numerators,
    chu_vandermonde_sides,
    row_column_binomials,
    stirling_inverse_lemma_sides,
    u_ijk_coefficients,
)
from .partitions import (
    EMPTY,
    MEMO_SIZE,
    Partition,
    content_numerators,
    enumerate_partitions,
    partitions_upto,
    z_of,
)
from .series import (
    BiSeries,
    InvariantError,
    XPolynomial,
    comb_int,
    lowering_factorial,
)
from .shifted import _p0_plan, _thm51_plan, dk_from_shifted, moment_table
from .symfunc import chi_experiment

DEFAULT_ALPHA_SET = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 5))
DEFAULT_Y_SET = (Fraction(1), Fraction(2), Fraction(-1, 3), Fraction(5, 7))

_Rationals = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# Job parameters.  Each reader takes the parameter's name and a value, typed
# or as text (a CLI flag or a config line), and returns the typed value or
# raises ValueError naming the parameter.  Only alpha_set must be positive;
# y_set takes any rationals.


def _integer(name: str, value) -> int:
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"{name}: not an integer: {value!r}")


def _bound(name: str, value) -> int:
    """A bound or a count: an integer >= 0."""
    value = _integer(name, value)
    if value < 0:
        raise ValueError(f"{name} must be nonnegative")
    return value


def _mode(name: str, value) -> str:
    if value not in ("symbolic", "random"):
        raise ValueError(f"{name} must be 'symbolic' or 'random'")
    return value


def _rationals(name: str, value) -> _Rationals:
    """A nonempty sample set, as a list, a tuple or comma-separated text."""
    if isinstance(value, str):
        value = [piece.strip() for piece in value.split(",") if piece.strip()]
    elif not isinstance(value, (list, tuple)):
        raise ValueError(f"{name}: not a sample set: {value!r}")
    if not value:
        raise ValueError(f"{name}: empty sample set")
    out = []
    for item in value:
        try:
            if isinstance(item, bool):
                raise TypeError
            out.append(Fraction(item))
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            raise ValueError(f"{name}: not a rational: {item!r}") from None
    return tuple(out)


def _alphas(name: str, value) -> _Rationals:
    """A sample set of alphas, every one positive."""
    out = _rationals(name, value)
    for alpha in out:
        if alpha <= 0:
            raise ValueError(f"{name}: alpha must be positive: {alpha}")
    return out


# Every job parameter, in CLI flag order: name -> reader.
PARAMETERS: dict[str, Callable[[str, object], object]] = {
    "n_max": _bound,
    "order": _bound,
    "lambda_max": _bound,
    "r_max": _bound,
    "k_max": _bound,
    "p_max": _bound,
    "mu_max": _bound,
    "alpha_set": _alphas,
    "y_set": _rationals,
    "mode": _mode,
    "seed": _integer,
    "trials": _bound,
}


class VerificationReport(NamedTuple):
    identity: str
    parameters: dict
    status: str
    cases: int
    counterexample: dict | None = None
    notes: str = ""
    payload: object = None

    def ok(self) -> bool:
        return self.status in ("verified", "reported")


def _plain(obj):
    """Recursively rewrite report contents into JSON-safe values."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Partition):
        return str(obj)
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, float, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return repr(obj)


def report_to_dict(report: VerificationReport) -> dict:
    out = {
        "identity": report.identity,
        "parameters": _plain(report.parameters),
        "status": report.status,
        "cases": report.cases,
        "counterexample": _plain(report.counterexample),
        "notes": report.notes,
    }
    if report.payload is not None:
        out["payload"] = _plain(report.payload)
    return out


def reports_to_json(reports: Sequence[VerificationReport]) -> str:
    return json.dumps([report_to_dict(r) for r in reports], indent=2, sort_keys=True) + "\n"


def _named(context: dict) -> dict:
    """The context of a kept counterexample, each Partition by its name."""
    return {key: str(v) if isinstance(v, Partition) else v for key, v in context.items()}


class _Recorder:
    """Counts comparisons and keeps the first (smallest) counterexample.

    Checkers pass shapes as Partition values; they are named only when a
    counterexample is kept, so a passing run formats none.  A batch
    (:meth:`each`) counts one comparison per entry."""

    def __init__(self):
        self.cases = 0
        self.failures = 0
        self.first: dict | None = None
        # an experimental job surfaces its comparisons without gating on them
        self.gating = True
        self.payload = None

    def check(self, lhs, rhs, **context):
        self.cases += 1
        if lhs != rhs:
            self.failures += 1
            if self.first is None:
                self.first = dict(_named(context), lhs=_plain(lhs) if not isinstance(lhs, (int, Fraction)) else lhs, rhs=_plain(rhs) if not isinstance(rhs, (int, Fraction)) else rhs)

    def numerators(self, lhs, rhs, den, keys=None, **context):
        """One comparison of lhs/den with rhs/den, made on the integer
        numerators.  With keys, lhs and rhs are equal-length lists, one
        series whose entry i sits at keys[i] over den, or over
        den(keys[i]) when den is callable, and a mismatch reports the
        first differing key, [i] or [i, j].  Fractions are formed only
        for the first counterexample kept."""
        self.cases += 1
        if lhs == rhs:
            return
        self.failures += 1
        if self.first is not None:
            return
        if keys is None:
            self.first = dict(_named(context), lhs=Fraction(lhs, den), rhs=Fraction(rhs, den))
            return
        i = next(i for i, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
        key = keys[i]
        d = den(key) if callable(den) else den
        self.first = dict(_named(context), key=list(key), lhs=_plain(Fraction(lhs[i], d)), rhs=_plain(Fraction(rhs[i], d)))

    def each(self, lhs: Sequence[int], rhs: Sequence[int], dens, context_of: Callable[[int], dict]) -> None:
        """len(lhs) comparisons, of lhs[i] / den with rhs[i] / den for
        den = dens[i] (dens(i) when dens is callable), settled by one
        equality of the two sequences when every entry holds.  Otherwise
        the entries are replayed in order through :meth:`numerators`, with
        context_of(i) built only for a failing entry, so the counts and the
        first counterexample are those of one call per entry."""
        if lhs == rhs:
            self.cases += len(lhs)
            return
        for i, (u, v) in enumerate(zip(lhs, rhs, strict=True)):
            if u == v:
                self.cases += 1
            else:
                self.numerators(u, v, dens(i) if callable(dens) else dens[i], **context_of(i))

    def condition(self, holds: bool, **context):
        self.cases += 1
        if not holds:
            self.failures += 1
            if self.first is None:
                self.first = _named(context)

    def report(self, identity: str, parameters: dict, notes: str = "") -> VerificationReport:
        """A job that made no comparison has shown nothing, so it fails."""
        if not self.cases:
            status, notes = "failed", "0 comparisons made"
        elif not self.gating:
            status = "reported"
        elif self.failures:
            status = "failed"
            notes = f"{self.failures} of {self.cases} comparisons failed" + (f"; {notes}" if notes else "")
        else:
            status = "verified"
        return VerificationReport(identity, parameters, status, self.cases, self.first, notes, self.payload)


# ---------------------------------------------------------------------------
# The coupled two-variable expansion family.
#
# The generating element attached to a positive weight k is the double
# series whose (r, s) coefficient is C(k+r-1, r) C(k+s-1, s) X_{r+s},
# grading the symbols X_0, X_1, ... by r+s.  Mixing these elements over
# all partitions of n with 1/z weights (optionally signed by parity of
# n - length) produces a series whose coefficients must match a closed
# form in binomials of X_0 and the partition-weighted polynomials.


def _random_values(seed: int, order: int) -> Callable[[int], Fraction]:
    rng = random.Random(seed)
    table = {}
    for i in range(order + 1):
        num = rng.randint(-99, 99)
        den = rng.randint(1, 9)
        table[i] = Fraction(num, den)
    if table[0] == 0:
        # X0 enters binomial prefactors; keep it away from the trivial zero
        table[0] = Fraction(1, 7)
    return lambda i: table[i]


def _sk_series(k: int, order: int, xval, univariate: bool) -> BiSeries:
    """The generating element of weight k; the univariate variant is its
    v^0 column."""
    coeffs = {}
    for r in range(order + 1):
        for s in range(1 if univariate else order + 1 - r):
            c = comb_int(k + r - 1, r) * comb_int(k + s - 1, s)
            coeffs[(r, s)] = c * xval(r + s)
    return BiSeries(order, coeffs)


def _mixture(n: int, order: int, elements: Sequence[BiSeries], signed: bool, products: dict) -> BiSeries:
    """n! times the sum over mu |- n of the products of mu's elements,
    weighted 1/z_mu: summed with the integer weights n!/z_mu.  products
    maps the parts of every partition formed so far (and () to the unit)
    to its product, so each new one takes one multiply from its prefix
    parts[:-1]."""
    fact = math.factorial(n)
    total = BiSeries(order)
    for mu in enumerate_partitions(n):
        parts = mu.parts
        prod = products[parts] = products[parts[:-1]] * elements[parts[-1]]
        weight = fact // z_of(mu)
        if signed and (n - mu.length) % 2:
            weight = -weight
        total = total + prod * weight
    return total


def _rhs_biseries(n: int, order: int, rows, x0, alternating: bool) -> BiSeries:
    """n! d! times the right side at total degree d.  rows[d] is
    marked_row(d, xk), with xk = -X for the alternating variant, d! times
    the marked family, and the prefixes C(x, n-k) are summed as
    n!/(n-k)! [x]_(n-k)."""
    fact = math.factorial(n)
    if alternating:
        prefixes = [lowering_factorial(x0 - k, n - k) * ((-1) ** k * fact // math.factorial(n - k)) for k in range(n + 1)]
    else:
        prefixes = [lowering_factorial(x0 + (n - 1), n - k) * (fact // math.factorial(n - k)) for k in range(n + 1)]
    coeffs = {}
    for p in range(order + 1):
        for q in range(order + 1 - p):
            total_deg = p + q
            line = rows[total_deg][p]
            acc = 0
            for k in range(0, min(n, total_deg) + 1):
                if line[k]:
                    acc = acc + prefixes[k] * line[k]
            coeffs[(p, q)] = acc
    return BiSeries(order, coeffs)


def _rhs_useries(n: int, order: int, rows, x0) -> BiSeries:
    """n! p! times the right side at u^p.  rows[d] is marked_row(d, X),
    and C(x0 - p, n-k) is summed as n!/(n-k)! [x0 - p]_(n-k)."""
    fact = math.factorial(n)
    coeffs = {}
    for p in range(order + 1):
        acc = 0
        for k in range(0, min(n, p) + 1):
            if rows[p][0][k]:
                acc = acc + lowering_factorial(x0 - p, n - k) * (fact // math.factorial(n - k)) * rows[p][0][k]
        coeffs[(p, 0)] = acc
    return BiSeries(order, coeffs)


def _check_expansion_family(
    rec: _Recorder, *, alternating: bool, univariate: bool, n_max: int, order: int, mode: str, seed: int, trials: int
) -> None:
    """thm3.1, its alternating variant thm3.1-alt, and ll-v0, the signed
    univariate variant.  At total degree d the left side, over n!, is
    compared times d! with the right side, over n! d!; the values
    themselves are formed only for a key that fails."""
    signed = alternating or univariate
    value_sets: list[tuple[str, Callable[[int], object], object]]
    if mode == "symbolic":
        value_sets = [("symbolic", XPolynomial.symbol, XPolynomial.x0())]
    else:
        value_sets = []
        for t in range(trials):
            xval = _random_values(seed + t, order)
            value_sets.append((f"seed={seed + t}", xval, xval(0)))

    for label, xval, x0 in value_sets:
        # the generating elements of weights 1 .. n_max and the marked
        # rows of degrees 0 .. order, once per value set
        elements = [None] + [_sk_series(k, order, xval, univariate) for k in range(1, n_max + 1)]
        xk = (lambda i, xval=xval: -xval(i)) if alternating else xval
        rows = [marked_row(d, xk) for d in range(order + 1)]
        products = {(): BiSeries(order, {(0, 0): 1})}
        for n in range(1, n_max + 1):
            lhs = _mixture(n, order, elements, signed, products)
            if univariate:
                rhs = _rhs_useries(n, order, rows, x0)
            else:
                rhs = _rhs_biseries(n, order, rows, x0, alternating)
            # every key where either side is nonzero, in (total degree, key)
            # order; the univariate variant reports its key as [r]
            for d in range(order + 1):
                for i in range(d + 1):
                    a, b = lhs.rows[i][d - i] * math.factorial(d), rhs.rows[i][d - i]
                    if a or b:
                        if a != b:
                            a, b = (c * Fraction(1, math.factorial(n) * math.factorial(d)) for c in (a, b))
                        key = [i] if univariate else [i, d - i]
                        rec.check(a, b, n=n, key=key, values=label)


# ---------------------------------------------------------------------------
# Remaining catalog entries, one checker per id.


def _graded_keys(order: int) -> list[tuple[int, int]]:
    """The keys (i, j) of a BiSeries cut at order, in (total degree, key)
    order, the order in which a mismatch names its first key."""
    return [(i, d - i) for d in range(order + 1) for i in range(d + 1)]


def _entries(series: BiSeries, keys) -> list:
    return [series.rows[i][j] for i, j in keys]


def _check_jz(rec: _Recorder, *, mu_max: int, n_max: int) -> None:
    # both sides as integers over n!, entry e at X0^e
    for mu in partitions_upto(mu_max):
        for n in range(1, n_max + 1):
            lhs, rhs = jz_sides(mu, n)
            rec.numerators(lhs, rhs, math.factorial(n), [(e,) for e in range(n + 1)], mu=mu, n=n)


def _check_thm41(rec: _Recorder, *, n_max: int) -> None:
    # The by-length sums are integers over n!, with the weights n!/z_mu.
    # Against them, (k/n) nbi C(x+k-1, k) is scale = nbi (n-1)!/(k-1)!
    # times the rising factorial x (x+1) ... (x+k-1) over n!, built here
    # as an integer product so that it is a second route to the Stirling
    # numbers the refinement reads; there both sides are over n!/k!.
    facts = [math.factorial(n) for n in range(n_max + 1)]
    rising = [[1]]
    for k in range(1, n_max + 1):
        prev = rising[-1]
        rising.append([(k - 1) * u + v for u, v in zip(prev + [0], [0] + prev)])
    for n in range(1, n_max + 1):
        fact = facts[n]
        keys = [(e,) for e in range(n + 1)]
        mus = [(mu, mu.length, fact // z_of(mu)) for mu in enumerate_partitions(n)]
        for p in range(0, n + 1):
            for k in range(1, n + 1):
                by_length = [0] * (n + 1)
                for mu, length, weight in mus:
                    c = npbi(mu, p, k)
                    if c:
                        by_length[length] += c * weight
                scale = nbi(n, p, k) * (facts[n - 1] // facts[k - 1])
                rhs = [scale * c for c in rising[k]] + [0] * (n - k)
                rec.numerators(by_length, rhs, fact, keys, group="length-graded", n=n, p=p, k=k)
                left = [scale * stirling_first_unsigned(k, r) for r in range(1, n + 1)]
                rec.each(left, by_length[1:], [fact // facts[k]] * n, lambda i: dict(group="first-kind-refinement", n=n, p=p, k=k, r=i + 1))
    # two scalar consequences: the p-step recurrence, over m - 1, and the
    # binomial reduction generalizing the classical convolution identity,
    # over m
    for m in range(2, n_max + 1):
        lhs, rhs = [], []
        for p in range(1, m + 1):
            q = m - p
            for k in range(1, m + 1):
                lhs.append(p * nbi(m, p, k) * (m - 1))
                right = (q + 1) * nbi(m, p - 1, k) * (m - 1)
                if k <= m - 1:
                    right -= m * (q - p + 1) * nbi(m - 1, p - 1, k)
                rhs.append(right)
        rec.each(lhs, rhs, [m - 1] * len(lhs), lambda i: dict(group="p-recurrence", m=m, p=i // m + 1, k=i % m + 1))
    for n in range(1, n_max + 1):
        for m in range(1, n_max + 1):
            lhs = [comb_int(n + p - 1, p) * comb_int(n + m - p - 1, m - p) * m for p in range(m + 1)]
            rhs = [sum(comb_int(n, k) * k * nbi(m, p, k) for k in range(1, min(n, m) + 1)) for p in range(m + 1)]
            rec.each(lhs, rhs, [m] * (m + 1), lambda p: dict(group="binomial-reduction", n=n, m=m, p=p))


def _check_gf23(rec: _Recorder, *, n_max: int, order: int, lambda_max: int) -> None:
    # coefficient k of the 2F1 route is an integer over one D, against D nbi
    for n in range(1, n_max + 1):
        for p in range(0, n + 1):
            nums, big_d = nbi_from_hypergeometric(n, p, order)
            want = [big_d * nbi(n, p, k) if k <= n else 0 for k in range(1, order + 1)]
            rec.each(nums[1:], want, [big_d] * order, lambda i: dict(group="hypergeometric-row", n=n, p=p, k=i + 1))
    for la in partitions_upto(lambda_max):
        cap = 2 * la.weight
        prod = BiSeries(cap, {(0, 0): 1})
        for part in la.parts:
            prod = prod * gn_series(part, cap)
        want = BiSeries(cap, npbi_table(la))
        keys = _graded_keys(cap)
        rec.numerators(_entries(prod, keys), _entries(want, keys), 1, keys, group="row-product", la=la)


def _check_gn_closed(rec: _Recorder, *, n_max: int) -> None:
    for n, closed in enumerate(gn_closed_forms(n_max), start=1):
        keys = _graded_keys(2 * n)
        rec.numerators(_entries(closed, keys), _entries(gn_series(n, 2 * n), keys), 1, keys, n=n)


def _check_rel51(rec: _Recorder, *, lambda_max: int, order: int, alpha_set: _Rationals) -> None:
    # Both sides over i! j! a^j at the key (i, j) = u^i t^j, in the series'
    # (total degree, key) order: the product's C[i][j] / a^j against the
    # k-sum (-1)^j K(i, j)[0] / (j! a^j) at shift -j, whose i! K(i, j)[0]
    # _p0_plan lists in this order.
    keys = _graded_keys(order)
    facts = [math.factorial(j) for j in range(order + 1)]
    for la in partitions_upto(lambda_max):
        for alpha in alpha_set:
            table = moment_table(la, alpha)
            # The product over cells of 1 + u / (1 + c t), with the content
            # c = n/a, has u^i t^m coefficient C[i][m] / a^m.  Each cell adds
            # row i-1 divided by 1 + c t (D_m = C_m - n D_(m-1), upward) into
            # row i, rows taken downward so that row i-1 is still the old one.
            rows = [[0] * (order + 1 - i) for i in range(order + 1)]
            rows[0][0] = 1
            for cell, n in enumerate(content_numerators(la, table.a, table.b), start=1):
                for row in range(min(order, cell), 0, -1):
                    src, dst = rows[row - 1], rows[row]
                    quot = 0
                    for m in range(len(dst)):
                        quot = src[m] - n * quot
                        dst[m] += quot
            lhs = [rows[i][j] * facts[i] * facts[j] for i, j in keys]
            (k0,) = table.evaluate([_p0_plan(order)], order)
            rhs = [-v if j % 2 else v for (_, j), v in zip(keys, k0)]
            rec.numerators(lhs, rhs, lambda key: facts[key[0]] * facts[key[1]] * table.a ** key[1], keys, la=la, alpha=alpha)


def _thm51_terms(table, order: int) -> list[tuple[int, int, int, int]]:
    """The y-free terms of Theorem 5.1's right side at one (shape, alpha),
    as (m, shift, n, v).

    The right side sums (-y)^n (-1)^N t^(2n+N) (1 + (y+1) t)^-(n+q) times
    the k-sum K(n, N)[p] / (N! a^N) at shift n-1 over N = p+q, alpha = a/b.
    A term has m = n+q, shift = 2n+N and v = (-1)^N K(n, N)[p] (order!/N!)
    a^(order-N), the integer numerator over order! a^order; terms with
    v = 0 are left out."""
    keys, plan = _thm51_plan(order)
    (values,) = table.evaluate([plan], order)
    return [(*key, v) for key, v in zip(keys, values) if v]


def _thm51_right_side(terms: list[tuple[int, int, int, int]], y: Fraction, order: int) -> list[int]:
    """Theorem 5.1's right side mod t^(order+1) at y = c/d, from the terms
    of :func:`_thm51_terms`, by Horner's rule in m: coefficient s is the
    returned integer s over order! a^order d^s.

    B_m(t) sums (-y)^n t^shift v over the terms of one m; its coefficient
    s is an integer over d^s order! a^order.  The right side is
    sum_m B_m (1 + (c+d) t/d)^-m, so R <- B_m + R / (1 + (c+d) t/d) from
    the largest m down; over d^s the division is the in-place update
    R_s -= (c+d) R_(s-1), upward."""
    c, d = y.numerator, y.denominator
    e = c + d
    d_pows = [d**s for s in range(order + 1)]
    # pows[n][j] = (-c)^n d^j
    pows = [[(-c) ** n * dp for dp in d_pows] for n in range(order // 2 + 1)]
    by_m = [[0] * (order + 1) for _ in range(order + 1)]
    for m, shift, n, v in terms:
        by_m[m][shift] += v * pows[n][shift - n]
    # B_m starts at t^m (shift >= m), so R starts at t^(m+1) when it is divided
    acc = [0] * (order + 1)
    for m in range(order, -1, -1):
        if e:
            for s in range(m + 2, order + 1):
                acc[s] -= e * acc[s - 1]
        for s in range(m, order + 1):
            acc[s] += by_m[m][s]
    return acc


def _check_thm51(rec: _Recorder, *, lambda_max: int, order: int, alpha_set: _Rationals, y_set: _Rationals) -> None:
    # Both sides over order! a^order d^s at t^s, the content ratio's being
    # G_s / (a d)^s; the y-free terms are collected once per (shape, alpha).
    fact = math.factorial(order)
    keys = [(s,) for s in range(order + 1)]
    for la in partitions_upto(lambda_max):
        for alpha in alpha_set:
            table = moment_table(la, alpha)
            a = table.a
            terms = _thm51_terms(table, order)
            scales = [fact * a ** (order - s) for s in range(order + 1)]
            for y in y_set:
                lhs = [g * scale for g, scale in zip(_content_ratio_integers(la, alpha, y.numerator, y.denominator, order), scales)]
                den = fact * a**order
                rec.numerators(lhs, _thm51_right_side(terms, y, order), lambda key: den * y.denominator ** key[0], keys, la=la, alpha=alpha, y=y)


def _check_cor52(rec: _Recorder, *, lambda_max: int, order: int, alpha_set: _Rationals, y_set: _Rationals) -> None:
    # Both sides over (a d)^r r! at y = c/d: c_r = T_r / ((a d)^r r!)
    # against (-1)^r G_r / (a d)^r, the content ratio's coefficient r.
    facts = [math.factorial(r) for r in range(order + 1)]
    for la in partitions_upto(lambda_max):
        for alpha in alpha_set:
            table = moment_table(la, alpha)
            for y in y_set:
                g = _content_ratio_integers(la, alpha, y.numerator, y.denominator, order)
                t = _cor52_numerators(table, y.numerator, y.denominator, max(order, 1))
                ad = table.a * y.denominator
                # entries 0 .. order, then the low-index pair t_0 = 1, t_1 = 0
                lhs = [*t[: order + 1], t[0], t[1]]
                rhs = [(-1) ** r * g[r] * facts[r] for r in range(order + 1)] + [1, 0]
                dens = [ad**r * facts[r] for r in range(order + 1)] + [1, ad]
                rec.each(lhs, rhs, dens, lambda i: dict(la=la, alpha=alpha, y=y, r=i) if i <= order else dict(group="low-index", la=la, alpha=alpha, y=y, r=i - order - 1))


def _check_prop71(rec: _Recorder, *, lambda_max: int, k_max: int, alpha_set: _Rationals) -> None:
    # Both sides over a^(k+1) (k+1)!: d_k = P_k / a^k against the shifted sum.
    facts = [math.factorial(k + 1) for k in range(k_max + 1)]
    for la in partitions_upto(lambda_max):
        for alpha in alpha_set:
            shifted = dk_from_shifted(la, alpha, k_max)
            table, a = moment_table(la, alpha), alpha.numerator
            lhs = [table.power_sum(k) * a * fact for k, fact in enumerate(facts)]
            rec.each(lhs, shifted, lambda k: a ** (k + 1) * facts[k], lambda k: dict(la=la, alpha=alpha, k=k))


def _lifted(*routes) -> tuple[list[int], list[list[int]]]:
    """Routes (numerators, denominators) over one shared denominator per
    index, as (L, [numerators of each route over L]): L[r] is the lcm of
    the routes' denominators at r, and a numerator n over d becomes
    n * (L[r] // d)."""
    dens = list(map(math.lcm, *(ds for _, ds in routes)))
    return dens, [list(map(mul, nums, map(floordiv, dens, ds))) for nums, ds in routes]


def _each_by_r(rec: _Recorder, routes, **context) -> None:
    """One batch over the routes (group, lhs, rhs, dens), lhs[r] against rhs[r]
    over dens[r], in the order of one call per comparison: r by r, and within
    one r the routes in order; a failing entry's context adds group and r."""
    groups, lhs, rhs, dens = zip(*routes)
    n = len(groups)
    lhs, rhs = (list(chain.from_iterable(zip(*rows))) for rows in (lhs, rhs))
    rec.each(lhs, rhs, lambda i: dens[i % n][i // n], lambda i: dict(context, group=groups[i % n], r=i // n))


def _check_thm81(rec: _Recorder, *, lambda_max: int, r_max: int, alpha_set: _Rationals) -> None:
    # The routes of S_ROUTES, the regrouped route and the content ratio at
    # y = -1/alpha = -b/a, which has G_r over a^(2r) at t^r, over one
    # shared denominator per r.
    for la in partitions_upto(lambda_max):
        for alpha in alpha_set:
            a, b = alpha.numerator, alpha.denominator
            series = _content_ratio_integers(la, alpha, -b, a, r_max), [a ** (2 * r) for r in range(r_max + 1)]
            cores = [S_ROUTES[name](la, alpha, r_max) for name in ("direct", "lagrange", "closed")]
            dens, (direct, lagrange, closed, regrouped, lifted) = _lifted(*cores, _s_regrouped(la, alpha, r_max), series)
            routes = [("interpolation-route", direct, lagrange, dens), ("closed-route", direct, closed, dens), ("integer-regrouping", direct, regrouped, dens)]
            _each_by_r(rec, routes, la=la, alpha=alpha)
            rec.each(lifted, [-v if r % 2 else v for r, v in enumerate(direct)], dens, lambda r: dict(group="generating-series", la=la, alpha=alpha, r=r))
    # the regrouping coefficients themselves: integral and nonnegative
    for r in range(0, r_max + 1):
        for i in range(0, r // 2 + 1):
            for j in range(0, r - 2 * i + 1):
                for rho in enumerate_partitions(j):
                    for k in range(0, min(i, j) + 1):
                        u = u_ijk_coefficients(r, i, j, k, rho)
                        rec.condition(isinstance(u, int) and u >= 0, group="nonnegative-integrality", r=r, i=i, j=j, k=k, rho=rho, value=u)
                        if j == 0:
                            rec.check(u, comb_int(r - i - 1, r - 2 * i), group="empty-shape-reduction", r=r, i=i)


def _check_thm91(rec: _Recorder, *, lambda_max: int, r_max: int, alpha_set: _Rationals) -> None:
    # The routes of SIGMA_ROUTES and the corner-moment series, which has
    # Z_r over b a^(2r+4) at t^r, over one shared denominator per r.
    for alpha in alpha_set:
        dens, routes = _lifted(*(route(EMPTY, alpha, r_max) for route in SIGMA_ROUTES.values()))
        _each_by_r(rec, [("empty-shape", vals, [0] * (r_max + 1), dens) for vals in routes], alpha=alpha)
    for la in partitions_upto(lambda_max):
        if la.weight == 0:
            continue
        for alpha in alpha_set:
            a, b = alpha.numerator, alpha.denominator
            rec.numerators(_sigma_lagrange_numerators(la, alpha, 1)[1], -b, b, group="first-difference", la=la, alpha=alpha)
            series = _sigma_series_numerators(la, alpha, r_max), [b * a ** (2 * r + 4) for r in range(r_max + 1)]
            cores = [SIGMA_ROUTES[name](la, alpha, r_max) for name in ("direct", "closed", "lagrange")]
            dens, (direct, closed, lagrange, lifted) = _lifted(*cores, series)
            _each_by_r(rec, [("closed-route", direct, closed, dens), ("interpolation-route", direct, lagrange, dens)], la=la, alpha=alpha)
            rec.each(lifted, [-v if r % 2 else v for r, v in enumerate(direct)], dens, lambda r: dict(group="generating-series", la=la, alpha=alpha, r=r))


def _check_lem111(rec: _Recorder, *, order: int) -> None:
    for k in range(1, order + 1):
        lhs, rhs = stirling_inverse_lemma_sides(k, order)
        rec.numerators(lhs, rhs, 1, [(i,) for i in range(order + 1)], k=k)


@lru_cache(maxsize=MEMO_SIZE)
def _reciprocal(alpha: Fraction) -> Fraction:
    """1/alpha, formed once per alpha."""
    return 1 / alpha


def _check_thm112(rec: _Recorder, *, lambda_max: int, p_max: int, alpha_set: _Rationals) -> None:
    # Each binomial over its R'_p or K'_p, which swap at 1/alpha: duality compares numerators.
    for la in partitions_upto(lambda_max):
        conj = la.conjugate()
        for alpha in alpha_set:
            duals = row_column_binomials(conj, _reciprocal(alpha), p_max)
            entries = []  # (lhs, rhs, den, group, p), p None where the context names none
            for p, ((row, row_den, col, col_den), (drow, _, dcol, _)) in enumerate(zip(row_column_binomials(la, alpha, p_max), duals)):
                if p <= 1:  # the empty inner shape, then the single cell: 1, then |la|
                    group, w = ("empty-inner-shape", 1) if p == 0 else ("single-cell", la.weight)
                    entries += [(row, w * row_den, row_den, group, None), (col, w * col_den, col_den, group, None)]
                entries += [(row, dcol, row_den, "duality", p), (col, drow, col_den, "duality", p)]
                if p > la.length:
                    entries.append((col, 0, col_den, "column-support", p))
                if p > la.part(1):
                    entries.append((row, 0, row_den, "row-support", p))
            lhs, rhs, dens, groups, ps = zip(*entries)
            rec.each(lhs, rhs, dens, lambda i: dict(group=groups[i], la=la, alpha=alpha, **({} if ps[i] is None else {"p": ps[i]})))
    for n in range(1, lambda_max + 1):
        la = Partition((n,))
        for alpha in alpha_set:
            rows, dens, _, _ = zip(*row_column_binomials(la, alpha, p_max))
            rec.each(rows, tuple(comb_int(n, p) * den for p, den in enumerate(dens)), dens, lambda p: dict(group="single-row", n=n, alpha=alpha, p=p))


def _check_chu_vandermonde(rec: _Recorder, *, lambda_max: int, alpha_set: _Rationals, y_set: _Rationals) -> str:
    skipped = 0
    for la in partitions_upto(lambda_max):
        for alpha in alpha_set:
            for y in y_set:
                sides = chu_vandermonde_sides(la, alpha, y)
                if sides is None:
                    skipped += 1
                    continue
                (lhs, lhs_den), (rhs, rhs_den) = sides
                rec.numerators(lhs * rhs_den, rhs * lhs_den, lhs_den * rhs_den, la=la, alpha=alpha, y=y)
    rec.condition(rec.cases > 0, group="coverage", checked=rec.cases, skipped=skipped)
    return f"{skipped} pole pairs skipped"


def _check_growth_normalization(rec: _Recorder, *, lambda_max: int, alpha_set: _Rationals) -> None:
    # The atoms (row, num, den) of each kernel sum to 1, the down kernel's
    # as the corner atoms over w = |la|, compared over w D for the lcm D of
    # their denominators; the down kernel's n / (d w) against its rebuild
    # vn / vd from the dimensions, row by row over d w vd.
    for la in partitions_upto(lambda_max):
        w = la.weight
        for alpha in alpha_set:
            kernels = [("up", _pieri_weights(la, alpha), 1)] + ([("down", _corner_weights(la, alpha), w)] if w else [])
            for kind, atoms, total in kernels:
                big_d = math.lcm(*(d for _, _, d in atoms))
                rec.numerators(sum(n * (big_d // d) for _, n, d in atoms), total * big_d, total * big_d, group=f"{kind}-normalization", la=la, alpha=alpha)
                rec.condition(all(n >= 0 for _, n, _ in atoms), group=f"{kind}-nonnegativity", la=la, alpha=alpha)
            if w:
                rows = zip(kernels[1][1], cotransition_from_dimensions(la, alpha), strict=True)
                keys, lhs, rhs, dens = zip(*(((i,), n * vd, vn * d * w, d * w * vd) for (i, n, d), (_, vn, vd) in rows))
                rec.numerators(lhs, rhs, lambda key: dens[keys.index(key)], keys, group="dimension-recurrence", la=la, alpha=alpha)


def _check_plancherel(rec: _Recorder, *, n_max: int) -> None:
    rec.condition(plancherel_check(n_max), n_max=n_max)


def _check_moments_bridge(rec: _Recorder, *, lambda_max: int, r_max: int, alpha_set: _Rationals) -> None:
    # s_r by the direct route of S_ROUTES against the sampler's exact law
    # of the added content after one step, M_r / (L a^r), over one shared
    # denominator per r; the down routes over their shared E a^r.
    for la in partitions_upto(lambda_max):
        for alpha in alpha_set:
            a_pows = [alpha.numerator**r for r in range(r_max + 1)]
            law, law_den = _last_step_law([(la, 1, _pieri_weights(la, alpha))], alpha, r_max)
            dens, (ups, law) = _lifted(S_ROUTES["direct"](la, alpha, r_max), (law, [law_den * a_r for a_r in a_pows]))
            routes = [("up-moment", ups, law, dens)]
            if la.weight:
                # the atoms against the corner-moment combination
                direct, combo, den = cotransition_moment_routes(la, alpha, r_max)
                routes.append(("down-moment", direct, combo, [den * a_r for a_r in a_pows]))
            _each_by_r(rec, routes, la=la, alpha=alpha)


def _check_chi(rec: _Recorder, *, n_max: int, p_max: int) -> str:
    report = chi_experiment(n_max, p_max)
    rows = []
    for row in report.rows:
        rows.append(
            {
                "n": row.n,
                "p": row.p,
                "k": row.k,
                "mu": str(row.mu),
                "fitted": row.chi_fitted,
                "conjectured": row.chi_conjectured,
                "match": row.match,
            }
        )
        rec.check(row.chi_fitted, row.chi_conjectured, n=row.n, p=row.p, k=row.k, mu=row.mu)
    violations = [_plain(v) for v in report.support_violations]
    rec.gating = False
    rec.payload = {"rows": rows, "support_violations": violations}
    if rec.failures or violations:
        return f"{rec.failures} of {rec.cases} fitted values disagree with the conjectured formula; {len(violations)} support violations"
    return f"all {rec.cases} fitted values match the conjectured formula"


_EXPANSION = {"n_max": 5, "order": 5, "mode": "symbolic", "seed": 12345, "trials": 3}

# Every job in catalog order: id -> (checker, default parameters).
_JOBS: dict[str, tuple[Callable[..., str | None], dict]] = {
    "thm3.1": (partial(_check_expansion_family, alternating=False, univariate=False), _EXPANSION),
    "thm3.1-alt": (partial(_check_expansion_family, alternating=True, univariate=False), _EXPANSION),
    "ll-v0": (partial(_check_expansion_family, alternating=False, univariate=True), _EXPANSION),
    "jz": (_check_jz, {"mu_max": 6, "n_max": 8}),
    "thm4.1": (_check_thm41, {"n_max": 8}),
    "rel5.1": (_check_rel51, {"lambda_max": 6, "order": 10, "alpha_set": DEFAULT_ALPHA_SET}),
    "thm5.1": (_check_thm51, {"lambda_max": 6, "order": 10, "alpha_set": DEFAULT_ALPHA_SET, "y_set": DEFAULT_Y_SET}),
    "cor5.2": (_check_cor52, {"lambda_max": 6, "order": 10, "alpha_set": DEFAULT_ALPHA_SET, "y_set": DEFAULT_Y_SET}),
    "gf2.3": (_check_gf23, {"n_max": 10, "order": 10, "lambda_max": 8}),
    "gn-closed": (_check_gn_closed, {"n_max": 12}),
    "prop7.1": (_check_prop71, {"lambda_max": 8, "k_max": 6, "alpha_set": DEFAULT_ALPHA_SET}),
    "thm8.1": (_check_thm81, {"lambda_max": 8, "r_max": 9, "alpha_set": DEFAULT_ALPHA_SET}),
    "thm9.1": (_check_thm91, {"lambda_max": 8, "r_max": 8, "alpha_set": DEFAULT_ALPHA_SET}),
    "lem11.1": (_check_lem111, {"order": 8}),
    "thm11.2": (_check_thm112, {"lambda_max": 6, "p_max": 6, "alpha_set": DEFAULT_ALPHA_SET}),
    "chu-vandermonde": (_check_chu_vandermonde, {"lambda_max": 6, "alpha_set": DEFAULT_ALPHA_SET, "y_set": DEFAULT_Y_SET}),
    "growth-normalization": (_check_growth_normalization, {"lambda_max": 8, "alpha_set": DEFAULT_ALPHA_SET}),
    "plancherel": (_check_plancherel, {"n_max": 8}),
    "moments-bridge": (_check_moments_bridge, {"lambda_max": 8, "r_max": 6, "alpha_set": DEFAULT_ALPHA_SET}),
    "chi": (_check_chi, {"n_max": 6, "p_max": 3}),
}

CATALOG = tuple(_JOBS)


def identity_ids() -> tuple[str, ...]:
    return CATALOG


def run_identity(identity: str, **overrides) -> VerificationReport:
    """Run one catalog job.  Every default and every override is read
    through PARAMETERS, so an out-of-range or malformed value, or a
    parameter the job does not take, raises ValueError; None overrides
    are ignored.

    An InvariantError raised inside the job, a library check that failed
    before the job could compare anything, becomes the job's failed
    report with the message in its notes."""
    if identity not in _JOBS:
        raise KeyError(f"unknown identity id: {identity}")
    checker, defaults = _JOBS[identity]
    chosen = {key: value for key, value in overrides.items() if value is not None}
    for key in chosen:
        if key not in defaults:
            raise ValueError(f"identity {identity} takes no parameter {key!r}")
    params = {key: PARAMETERS[key](key, chosen.get(key, value)) for key, value in defaults.items()}
    rec = _Recorder()
    try:
        notes = checker(rec, **params)
    except InvariantError as exc:
        return VerificationReport(identity, params, "failed", 0, None, f"InvariantError: {exc}")
    return rec.report(identity, params, notes or "")


def run_all(shared_overrides: dict | None = None, identities: Sequence[str] = CATALOG) -> list[VerificationReport]:
    """Run the given jobs, by default the whole catalog in id order,
    applying each override only to jobs that accept the parameter.  An
    unknown parameter or a bad value raises ValueError before any job
    runs."""
    shared = shared_overrides or {}
    for key, value in shared.items():
        if key not in PARAMETERS:
            raise ValueError(f"no job takes a parameter {key!r}")
        if value is not None:
            PARAMETERS[key](key, value)
    reports = []
    for identity in identities:
        accepted = {k: v for k, v in shared.items() if k in _JOBS[identity][1]}
        reports.append(run_identity(identity, **accepted))
    return reports
