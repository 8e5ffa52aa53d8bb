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
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Callable, Sequence

from .coefficients import (
    gn_closed_form,
    gn_series,
    jz_sides,
    nbi,
    nbi_from_hypergeometric,
    npbi,
    stirling_first_unsigned,
)
from .growth import (
    cotransition_from_dimensions,
    cotransition_kernel,
    exact_cotransition_moment,
    exact_transition_moment,
    plancherel_check,
    transition_kernel,
)
from .moments import (
    chu_vandermonde_sides,
    content_ratio_series,
    cor52_coefficient,
    h_series_of_difference,
    row_column_binomials,
    s_moment_series,
    s_r_closed,
    s_r_direct,
    s_r_from_u,
    s_r_lagrange,
    sigma_lagrange_alphabets,
    sigma_moment_series,
    sigma_r_closed,
    sigma_r_direct,
    sigma_r_lagrange,
    stirling_inverse_lemma_sides,
    u_ijk_coefficients,
)
from .partitions import (
    EMPTY,
    Partition,
    enumerate_partitions,
    partitions_upto,
    z_of,
)
from .series import (
    TruncatedSeries,
    UniPoly,
    XPolynomial,
    binomial,
    comb_int,
    linear_ratio_series,
)
from .shifted import d_k, dk_from_shifted, f_npk
from .symfunc import Specialization, chi_experiment, p_npk

DEFAULT_ALPHA_SET = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 5))
DEFAULT_Y_SET = (Fraction(1), Fraction(2), Fraction(-1, 3), Fraction(5, 7))


@dataclass
class VerificationReport:
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


class _Recorder:
    """Counts comparisons and keeps the first (smallest) counterexample."""

    def __init__(self):
        self.cases = 0
        self.failures = 0
        self.first: dict | None = None

    def check(self, lhs, rhs, **context):
        self.cases += 1
        if lhs != rhs:
            self.failures += 1
            if self.first is None:
                self.first = dict(context, lhs=_plain(lhs) if not isinstance(lhs, (int, Fraction)) else lhs, rhs=_plain(rhs) if not isinstance(rhs, (int, Fraction)) else rhs)

    def series_equal(self, lhs, rhs, **context):
        """One comparison of two TruncatedSeries, or of two UniPoly
        coefficientwise (a UniPoly mismatch reports key=[i])."""
        self.cases += 1
        if isinstance(lhs, UniPoly):
            pairs = zip_longest(lhs.coeffs, rhs.coeffs, fillvalue=Fraction(0))
            diff = next((((i,), a, b) for i, (a, b) in enumerate(pairs) if a != b), None)
        else:
            diff = lhs.first_difference(rhs)
        if diff is not None:
            key, a, b = diff
            self.failures += 1
            if self.first is None:
                self.first = dict(context, key=list(key), lhs=_plain(a), rhs=_plain(b))

    def condition(self, holds: bool, **context):
        self.cases += 1
        if not holds:
            self.failures += 1
            if self.first is None:
                self.first = dict(context)

    def report(self, identity: str, parameters: dict, notes: str = "", payload=None) -> VerificationReport:
        """A job that made no comparison has shown nothing, so it fails."""
        status = "verified" if self.failures == 0 and self.cases else "failed"
        if not self.cases:
            notes = "0 comparisons made"
        elif self.failures and notes:
            notes = f"{self.failures} of {self.cases} comparisons failed; " + notes
        elif self.failures:
            notes = f"{self.failures} of {self.cases} comparisons failed"
        return VerificationReport(identity, parameters, status, self.cases, self.first, notes, payload)


def _as_fraction_set(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


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


def _sk_biseries(k: int, order: int, xval) -> TruncatedSeries:
    coeffs = {}
    for r in range(order + 1):
        for s in range(order + 1 - r):
            c = comb_int(k + r - 1, r) * comb_int(k + s - 1, s)
            coeffs[(r, s)] = Fraction(c) * xval(r + s)
    return TruncatedSeries(("u", "v"), order, coeffs)


def _sk_useries(k: int, order: int, xval) -> TruncatedSeries:
    coeffs = {}
    for r in range(order + 1):
        coeffs[(r,)] = Fraction(comb_int(k + r - 1, r)) * xval(r)
    return TruncatedSeries(("u",), order, coeffs)


def _mixture(n: int, order: int, sk: Callable[[int], TruncatedSeries], signed: bool, variables) -> TruncatedSeries:
    total = TruncatedSeries(variables, order)
    for mu in enumerate_partitions(n):
        prod = TruncatedSeries.constant(Fraction(1), variables, order)
        for part in mu.parts:
            prod = prod * sk(part)
        weight = Fraction(1, z_of(mu))
        if signed and (n - mu.length) % 2:
            weight = -weight
        total = total + prod.scale(weight)
    return total


def _rhs_biseries(n: int, order: int, xval, x0, alternating: bool) -> TruncatedSeries:
    if alternating:
        spec = Specialization(None, lambda i: -xval(i))
    else:
        spec = Specialization(None, xval)
    coeffs = {}
    for p in range(order + 1):
        for q in range(order + 1 - p):
            total_deg = p + q
            acc = Fraction(0)
            for k in range(0, min(n, total_deg) + 1):
                pk = p_npk(total_deg, p, k, spec)
                if isinstance(pk, Fraction) and pk == 0:
                    continue
                if alternating:
                    prefix = binomial(x0 - k, n - k)
                    if k % 2:
                        prefix = prefix * Fraction(-1)
                else:
                    prefix = binomial(x0 + (n - 1), n - k)
                acc = acc + prefix * pk
            coeffs[(p, q)] = acc
    return TruncatedSeries(("u", "v"), order, coeffs)


def _rhs_useries(n: int, order: int, xval, x0) -> TruncatedSeries:
    spec = Specialization(None, xval)
    coeffs = {}
    for p in range(order + 1):
        acc = Fraction(0)
        for k in range(0, min(n, p) + 1):
            pk = p_npk(p, 0, k, spec)
            if isinstance(pk, Fraction) and pk == 0:
                continue
            acc = acc + binomial(x0 - p, n - k) * pk
        coeffs[(p,)] = acc
    return TruncatedSeries(("u",), order, coeffs)


def _check_expansion_family(identity: str, params: dict) -> VerificationReport:
    n_max = int(params["n_max"])
    order = int(params["order"])
    mode = params["mode"]
    seed = int(params["seed"])
    trials = int(params["trials"])
    if mode not in ("symbolic", "random"):
        raise ValueError("mode must be 'symbolic' or 'random'")
    alternating = identity == "thm3.1-alt"
    univariate = identity == "ll-v0"
    signed = alternating or univariate

    rec = _Recorder()
    value_sets: list[tuple[str, Callable[[int], object], object]]
    if mode == "symbolic":
        value_sets = [("symbolic", XPolynomial.symbol, XPolynomial.x0())]
    else:
        value_sets = []
        for t in range(trials):
            xval = _random_values(seed + t, order)
            value_sets.append((f"seed={seed + t}", xval, xval(0)))

    for label, xval, x0 in value_sets:
        for n in range(1, n_max + 1):
            if univariate:
                cache: dict[int, TruncatedSeries] = {}

                def sk(k: int, _c=cache, _x=xval) -> TruncatedSeries:
                    if k not in _c:
                        _c[k] = _sk_useries(k, order, _x)
                    return _c[k]

                lhs = _mixture(n, order, sk, signed, ("u",))
                rhs = _rhs_useries(n, order, xval, x0)
            else:
                cache = {}

                def sk(k: int, _c=cache, _x=xval) -> TruncatedSeries:
                    if k not in _c:
                        _c[k] = _sk_biseries(k, order, _x)
                    return _c[k]

                lhs = _mixture(n, order, sk, signed, ("u", "v"))
                rhs = _rhs_biseries(n, order, xval, x0, alternating)
            keys = sorted(set(lhs.coeffs) | set(rhs.coeffs), key=lambda k: (sum(k), k))
            for key in keys:
                rec.check(lhs.coefficient(key), rhs.coefficient(key), n=n, key=list(key), values=label)
    return rec.report(identity, params)


# ---------------------------------------------------------------------------
# Remaining catalog entries, one checker per id.


def _check_jz(identity: str, params: dict) -> VerificationReport:
    mu_max = int(params["mu_max"])
    n_max = int(params["n_max"])
    rec = _Recorder()
    for mu in partitions_upto(mu_max):
        for n in range(1, n_max + 1):
            lhs, rhs = jz_sides(mu, n)
            rec.check(lhs, rhs, mu=str(mu), n=n)
    return rec.report(identity, params)


def _check_thm41(identity: str, params: dict) -> VerificationReport:
    n_max = int(params["n_max"])
    rec = _Recorder()
    x = UniPoly.x()
    for n in range(1, n_max + 1):
        mus = enumerate_partitions(n)
        for p in range(0, n + 1):
            for k in range(1, n + 1):
                by_length = [Fraction(0)] * (n + 1)
                for mu in mus:
                    c = npbi(mu, p, k)
                    if c:
                        by_length[mu.length] += Fraction(c, z_of(mu))
                lhs = UniPoly(by_length)
                scale = Fraction(k, n) * nbi(n, p, k)
                rhs = scale * binomial(x + (k - 1), k)
                rec.check(lhs, rhs, group="length-graded", n=n, p=p, k=k)
                for r in range(1, n + 1):
                    left = scale * stirling_first_unsigned(k, r)
                    right = Fraction(math.factorial(k)) * by_length[r]
                    rec.check(left, right, group="first-kind-refinement", n=n, p=p, k=k, r=r)
    # two scalar consequences: the p-step recurrence and the binomial
    # reduction generalizing the classical convolution identity
    for m in range(2, n_max + 1):
        for p in range(1, m + 1):
            q = m - p
            for k in range(1, m + 1):
                left = Fraction(p) * nbi(m, p, k)
                right = Fraction(q + 1) * nbi(m, p - 1, k)
                if k <= m - 1:
                    right -= Fraction(m, m - 1) * (q - p + 1) * nbi(m - 1, p - 1, k)
                rec.check(left, right, group="p-recurrence", m=m, p=p, k=k)
    for n in range(1, n_max + 1):
        for m in range(1, n_max + 1):
            for p in range(0, m + 1):
                q = m - p
                left = Fraction(comb_int(n + p - 1, p)) * comb_int(n + q - 1, q)
                right = Fraction(0)
                for k in range(1, min(n, m) + 1):
                    right += Fraction(comb_int(n, k) * k, m) * nbi(m, p, k)
                rec.check(left, right, group="binomial-reduction", n=n, m=m, p=p)
    return rec.report(identity, params)


def _check_gf23(identity: str, params: dict) -> VerificationReport:
    n_max = int(params["n_max"])
    order = int(params["order"])
    lambda_max = int(params["lambda_max"])
    rec = _Recorder()
    for n in range(1, n_max + 1):
        for p in range(0, n + 1):
            table = nbi_from_hypergeometric(n, p, order)
            for k in range(1, order + 1):
                want = Fraction(nbi(n, p, k)) if k <= n else Fraction(0)
                rec.check(table.get(k, Fraction(0)), want, group="hypergeometric-row", n=n, p=p, k=k)
    for la in partitions_upto(lambda_max):
        w = la.weight
        cap = 2 * w
        variables = ("y", "x")
        prod = TruncatedSeries.constant(Fraction(1), variables, cap)
        for part in la.parts:
            prod = prod * gn_series(part, cap)
        expect = {}
        for p in range(0, w + 1):
            for k in range(la.length, w + 1):
                if k < 1:
                    continue
                c = npbi(la, p, k)
                if c:
                    expect[(p, k)] = Fraction(c)
        if w == 0:
            expect[(0, 0)] = Fraction(1)
        rhs = TruncatedSeries(variables, cap, expect)
        rec.series_equal(prod, rhs, group="row-product", la=str(la))
    return rec.report(identity, params)


def _check_gn_closed(identity: str, params: dict) -> VerificationReport:
    n_max = int(params["n_max"])
    rec = _Recorder()
    for n in range(1, n_max + 1):
        rec.series_equal(gn_closed_form(n), gn_series(n, 2 * n), n=n)
    return rec.report(identity, params)


def _check_rel51(identity: str, params: dict) -> VerificationReport:
    lambda_max = int(params["lambda_max"])
    order = int(params["order"])
    alphas = _as_fraction_set(params["alpha_set"])
    rec = _Recorder()
    variables = ("u", "t")
    for la in partitions_upto(lambda_max):
        w = la.weight
        for alpha in alphas:
            lhs = TruncatedSeries.constant(Fraction(1), variables, order)
            for i, j in la.cells():
                c = Fraction(j - 1) - Fraction(i - 1) / alpha
                # 1 + u / (1 + c t)
                factor = TruncatedSeries(variables, order, {(1, m): (-c) ** m for m in range(order)})
                lhs = lhs * (factor + 1)
            coeffs = {}
            for i in range(order + 1):
                for j in range(order + 1 - i):
                    acc = Fraction(0)
                    for k in range(0, min(i, j) + 1):
                        f = f_npk(la, alpha, j, 0, k)
                        if f:
                            acc += comb_int(w - j, i - k) * f
                    if j % 2:
                        acc = -acc
                    coeffs[(i, j)] = acc
            rhs = TruncatedSeries(variables, order, coeffs)
            rec.series_equal(lhs, rhs, la=str(la), alpha=alpha)
    return rec.report(identity, params)


def _check_thm51(identity: str, params: dict) -> VerificationReport:
    lambda_max = int(params["lambda_max"])
    order = int(params["order"])
    alphas = _as_fraction_set(params["alpha_set"])
    ys = _as_fraction_set(params["y_set"])
    rec = _Recorder()
    # inv_pows[y][m] = (1 + (y+1) t)^(-m)
    inv_pows = {y: [linear_ratio_series((), (y + 1,) * m, order) for m in range(order + 1)] for y in ys}
    for la in partitions_upto(lambda_max):
        w = la.weight
        for alpha in alphas:
            for y in ys:
                lhs = content_ratio_series(la, alpha, y, order)
                rhs = [Fraction(0)] * (order + 1)
                for n in range(0, order // 2 + 1):
                    for p in range(0, order - 2 * n + 1):
                        for q in range(0, order - 2 * n - p + 1):
                            big_n = p + q
                            acc = Fraction(0)
                            for k in range(0, min(n, big_n) + 1):
                                f = f_npk(la, alpha, big_n, p, k)
                                if f:
                                    acc += comb_int(w + n - 1, n - k) * f
                            if acc == 0:
                                continue
                            coef = (-y) ** n * Fraction(-1) ** big_n * acc
                            shift = 2 * n + big_n
                            for i, c in enumerate(inv_pows[y][n + q].coeffs[: order + 1 - shift]):
                                rhs[shift + i] += coef * c
                rec.series_equal(lhs, UniPoly(rhs), la=str(la), alpha=alpha, y=y)
    return rec.report(identity, params)


def _check_cor52(identity: str, params: dict) -> VerificationReport:
    lambda_max = int(params["lambda_max"])
    order = int(params["order"])
    alphas = _as_fraction_set(params["alpha_set"])
    ys = _as_fraction_set(params["y_set"])
    rec = _Recorder()
    for la in partitions_upto(lambda_max):
        for alpha in alphas:
            for y in ys:
                lhs = content_ratio_series(la, alpha, y, order)
                for r in range(0, order + 1):
                    c = cor52_coefficient(la, alpha, y, r)
                    want = lhs.coefficient(r) * Fraction(-1) ** r
                    rec.check(c, want, la=str(la), alpha=alpha, y=y, r=r)
                rec.check(cor52_coefficient(la, alpha, y, 0), Fraction(1), group="low-index", la=str(la), alpha=alpha, y=y, r=0)
                rec.check(cor52_coefficient(la, alpha, y, 1), Fraction(0), group="low-index", la=str(la), alpha=alpha, y=y, r=1)
    return rec.report(identity, params)


def _check_prop71(identity: str, params: dict) -> VerificationReport:
    lambda_max = int(params["lambda_max"])
    k_max = int(params["k_max"])
    alphas = _as_fraction_set(params["alpha_set"])
    rec = _Recorder()
    for la in partitions_upto(lambda_max):
        for alpha in alphas:
            for k in range(0, k_max + 1):
                rec.check(d_k(la, alpha, k), dk_from_shifted(la, alpha, k), la=str(la), alpha=alpha, k=k)
    return rec.report(identity, params)


def _check_thm81(identity: str, params: dict) -> VerificationReport:
    lambda_max = int(params["lambda_max"])
    r_max = int(params["r_max"])
    alphas = _as_fraction_set(params["alpha_set"])
    rec = _Recorder()
    for la in partitions_upto(lambda_max):
        for alpha in alphas:
            direct_vals = [s_r_direct(la, alpha, r) for r in range(r_max + 1)]
            for r in range(0, r_max + 1):
                rec.check(direct_vals[r], s_r_lagrange(la, alpha, r), group="interpolation-route", la=str(la), alpha=alpha, r=r)
                rec.check(direct_vals[r], s_r_closed(la, alpha, r), group="closed-route", la=str(la), alpha=alpha, r=r)
                rec.check(direct_vals[r], s_r_from_u(la, alpha, r), group="integer-regrouping", la=str(la), alpha=alpha, r=r)
            series = s_moment_series(la, alpha, r_max)
            for r in range(0, r_max + 1):
                rec.check(series.coefficient(r), Fraction(-1) ** r * direct_vals[r], group="generating-series", la=str(la), alpha=alpha, r=r)
    # the regrouping coefficients themselves: integral and nonnegative
    for r in range(0, r_max + 1):
        for i in range(0, r // 2 + 1):
            for j in range(0, r - 2 * i + 1):
                for rho in enumerate_partitions(j):
                    for k in range(0, min(i, j) + 1):
                        u = u_ijk_coefficients(r, i, j, k, rho)
                        rec.condition(isinstance(u, int) and u >= 0, group="nonnegative-integrality", r=r, i=i, j=j, k=k, rho=str(rho), value=u)
                        if j == 0:
                            rec.check(u, comb_int(r - i - 1, r - 2 * i), group="empty-shape-reduction", r=r, i=i)
    return rec.report(identity, params)


def _check_thm91(identity: str, params: dict) -> VerificationReport:
    lambda_max = int(params["lambda_max"])
    r_max = int(params["r_max"])
    alphas = _as_fraction_set(params["alpha_set"])
    rec = _Recorder()
    for alpha in alphas:
        for r in range(0, r_max + 1):
            rec.check(sigma_r_direct(EMPTY, alpha, r), Fraction(0), group="empty-shape", alpha=alpha, r=r)
            rec.check(sigma_r_closed(EMPTY, alpha, r), Fraction(0), group="empty-shape", alpha=alpha, r=r)
            rec.check(sigma_r_lagrange(EMPTY, alpha, r), Fraction(0), group="empty-shape", alpha=alpha, r=r)
    for la in partitions_upto(lambda_max):
        if la.weight == 0:
            continue
        for alpha in alphas:
            a, b = sigma_lagrange_alphabets(la, alpha)
            h1 = h_series_of_difference(a, b, 1).coefficient(1)
            rec.check(h1, Fraction(-1), group="first-difference", la=str(la), alpha=alpha)
            direct_vals = [sigma_r_direct(la, alpha, r) for r in range(r_max + 1)]
            for r in range(0, r_max + 1):
                rec.check(direct_vals[r], sigma_r_closed(la, alpha, r), group="closed-route", la=str(la), alpha=alpha, r=r)
                rec.check(direct_vals[r], sigma_r_lagrange(la, alpha, r), group="interpolation-route", la=str(la), alpha=alpha, r=r)
            series = sigma_moment_series(la, alpha, r_max)
            for r in range(0, r_max + 1):
                rec.check(series.coefficient(r), Fraction(-1) ** r * direct_vals[r], group="generating-series", la=str(la), alpha=alpha, r=r)
    return rec.report(identity, params)


def _check_lem111(identity: str, params: dict) -> VerificationReport:
    order = int(params["order"])
    rec = _Recorder()
    for k in range(1, order + 1):
        lhs, rhs = stirling_inverse_lemma_sides(k, order)
        rec.series_equal(lhs, rhs, k=k)
    return rec.report(identity, params)


def _check_thm112(identity: str, params: dict) -> VerificationReport:
    lambda_max = int(params["lambda_max"])
    p_max = int(params["p_max"])
    alphas = _as_fraction_set(params["alpha_set"])
    rec = _Recorder()
    for la in partitions_upto(lambda_max):
        conj = la.conjugate()
        for alpha in alphas:
            inv = Fraction(1) / alpha
            for p in range(0, p_max + 1):
                row, col = row_column_binomials(la, alpha, p)
                if p == 0:
                    rec.check(row, Fraction(1), group="empty-inner-shape", la=str(la), alpha=alpha)
                    rec.check(col, Fraction(1), group="empty-inner-shape", la=str(la), alpha=alpha)
                if p == 1:
                    rec.check(row, Fraction(la.weight), group="single-cell", la=str(la), alpha=alpha)
                    rec.check(col, Fraction(la.weight), group="single-cell", la=str(la), alpha=alpha)
                drow, dcol = row_column_binomials(conj, inv, p)
                rec.check(row, dcol, group="duality", la=str(la), alpha=alpha, p=p)
                rec.check(col, drow, group="duality", la=str(la), alpha=alpha, p=p)
                if p > la.length:
                    rec.check(col, Fraction(0), group="column-support", la=str(la), alpha=alpha, p=p)
                if p > la.part(1):
                    rec.check(row, Fraction(0), group="row-support", la=str(la), alpha=alpha, p=p)
    for n in range(1, lambda_max + 1):
        la = Partition((n,))
        for alpha in alphas:
            for p in range(0, p_max + 1):
                row, _ = row_column_binomials(la, alpha, p)
                rec.check(row, Fraction(comb_int(n, p)), group="single-row", n=n, alpha=alpha, p=p)
    return rec.report(identity, params)


def _check_chu_vandermonde(identity: str, params: dict) -> VerificationReport:
    lambda_max = int(params["lambda_max"])
    alphas = _as_fraction_set(params["alpha_set"])
    ys = _as_fraction_set(params["y_set"])
    rec = _Recorder()
    skipped = 0
    for la in partitions_upto(lambda_max):
        for alpha in alphas:
            for y in ys:
                sides = chu_vandermonde_sides(la, alpha, y)
                if sides is None:
                    skipped += 1
                    continue
                rec.check(sides[0], sides[1], la=str(la), alpha=alpha, y=y)
    rec.condition(rec.cases > 0, group="coverage", checked=rec.cases, skipped=skipped)
    return rec.report(identity, params, notes=f"{skipped} pole pairs skipped")


def _check_growth_normalization(identity: str, params: dict) -> VerificationReport:
    lambda_max = int(params["lambda_max"])
    alphas = _as_fraction_set(params["alpha_set"])
    rec = _Recorder()
    for la in partitions_upto(lambda_max):
        for alpha in alphas:
            up = transition_kernel(la, alpha)
            rec.check(sum((p for _, p in up.atoms), Fraction(0)), Fraction(1), group="up-normalization", la=str(la), alpha=alpha)
            rec.condition(all(p >= 0 for _, p in up.atoms), group="up-nonnegativity", la=str(la), alpha=alpha)
            if la.weight == 0:
                continue
            down = cotransition_kernel(la, alpha)
            rec.check(sum((p for _, p in down.atoms), Fraction(0)), Fraction(1), group="down-normalization", la=str(la), alpha=alpha)
            rec.condition(all(p >= 0 for _, p in down.atoms), group="down-nonnegativity", la=str(la), alpha=alpha)
            via_dim = cotransition_from_dimensions(la, alpha)
            rec.check(list(down.atoms), list(via_dim.atoms), group="dimension-recurrence", la=str(la), alpha=alpha)
    return rec.report(identity, params)


def _check_plancherel(identity: str, params: dict) -> VerificationReport:
    n_max = int(params["n_max"])
    rec = _Recorder()
    try:
        plancherel_check(n_max)
        rec.condition(True, n_max=n_max)
    except AssertionError as exc:
        rec.condition(False, n_max=n_max, detail=str(exc))
    return rec.report(identity, params)


def _check_moments_bridge(identity: str, params: dict) -> VerificationReport:
    lambda_max = int(params["lambda_max"])
    r_max = int(params["r_max"])
    alphas = _as_fraction_set(params["alpha_set"])
    rec = _Recorder()
    for la in partitions_upto(lambda_max):
        for alpha in alphas:
            for r in range(0, r_max + 1):
                up = exact_transition_moment(la, alpha, r)
                rec.check(up, s_r_closed(la, alpha, r), group="up-moment", la=str(la), alpha=alpha, r=r)
                if la.weight:
                    try:
                        exact_cotransition_moment(la, alpha, r)
                        rec.condition(True, group="down-moment", la=str(la), alpha=alpha, r=r)
                    except AssertionError as exc:
                        rec.condition(False, group="down-moment", la=str(la), alpha=alpha, r=r, detail=str(exc))
    return rec.report(identity, params)


def _check_chi(identity: str, params: dict) -> VerificationReport:
    n_max = int(params["n_max"])
    p_max = int(params["p_max"])
    report = chi_experiment(n_max, p_max)
    rows = []
    mismatches = 0
    compared = 0
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
        if row.match is not None:
            compared += 1
            if not row.match:
                mismatches += 1
    violations = [_plain(v) for v in report.support_violations]
    if mismatches or violations:
        notes = f"{mismatches} of {compared} fitted values disagree with the conjectured formula; {len(violations)} support violations"
    else:
        notes = f"all {compared} fitted values match the conjectured formula"
    payload = {"rows": rows, "support_violations": violations}
    return VerificationReport(identity, params, "reported", compared, None, notes, payload)


_CHECKERS: dict[str, Callable[[str, dict], VerificationReport]] = {
    "thm3.1": _check_expansion_family,
    "thm3.1-alt": _check_expansion_family,
    "ll-v0": _check_expansion_family,
    "jz": _check_jz,
    "thm4.1": _check_thm41,
    "rel5.1": _check_rel51,
    "thm5.1": _check_thm51,
    "cor5.2": _check_cor52,
    "gf2.3": _check_gf23,
    "gn-closed": _check_gn_closed,
    "prop7.1": _check_prop71,
    "thm8.1": _check_thm81,
    "thm9.1": _check_thm91,
    "lem11.1": _check_lem111,
    "thm11.2": _check_thm112,
    "chu-vandermonde": _check_chu_vandermonde,
    "growth-normalization": _check_growth_normalization,
    "plancherel": _check_plancherel,
    "moments-bridge": _check_moments_bridge,
    "chi": _check_chi,
}

_DEFAULTS: dict[str, dict] = {
    "thm3.1": {"n_max": 5, "order": 5, "mode": "symbolic", "seed": 12345, "trials": 3},
    "thm3.1-alt": {"n_max": 5, "order": 5, "mode": "symbolic", "seed": 12345, "trials": 3},
    "ll-v0": {"n_max": 5, "order": 5, "mode": "symbolic", "seed": 12345, "trials": 3},
    "jz": {"mu_max": 6, "n_max": 8},
    "thm4.1": {"n_max": 8},
    "rel5.1": {"lambda_max": 6, "order": 10, "alpha_set": DEFAULT_ALPHA_SET},
    "thm5.1": {"lambda_max": 6, "order": 10, "alpha_set": DEFAULT_ALPHA_SET, "y_set": DEFAULT_Y_SET},
    "cor5.2": {"lambda_max": 6, "order": 10, "alpha_set": DEFAULT_ALPHA_SET, "y_set": DEFAULT_Y_SET},
    "gf2.3": {"n_max": 10, "order": 10, "lambda_max": 8},
    "gn-closed": {"n_max": 12},
    "prop7.1": {"lambda_max": 8, "k_max": 6, "alpha_set": DEFAULT_ALPHA_SET},
    "thm8.1": {"lambda_max": 8, "r_max": 9, "alpha_set": DEFAULT_ALPHA_SET},
    "thm9.1": {"lambda_max": 8, "r_max": 8, "alpha_set": DEFAULT_ALPHA_SET},
    "lem11.1": {"order": 8},
    "thm11.2": {"lambda_max": 6, "p_max": 6, "alpha_set": DEFAULT_ALPHA_SET},
    "chu-vandermonde": {"lambda_max": 6, "alpha_set": DEFAULT_ALPHA_SET, "y_set": DEFAULT_Y_SET},
    "growth-normalization": {"lambda_max": 8, "alpha_set": DEFAULT_ALPHA_SET},
    "plancherel": {"n_max": 8},
    "moments-bridge": {"lambda_max": 8, "r_max": 6, "alpha_set": DEFAULT_ALPHA_SET},
    "chi": {"n_max": 6, "p_max": 3},
}

CATALOG = tuple(_DEFAULTS)


def identity_ids() -> tuple[str, ...]:
    return CATALOG


def run_identity(identity: str, **overrides) -> VerificationReport:
    """Run one catalog job; unknown parameter names raise ValueError."""
    if identity not in _CHECKERS:
        raise KeyError(f"unknown identity id: {identity}")
    params = dict(_DEFAULTS[identity])
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in params:
            raise ValueError(f"identity {identity} takes no parameter {key!r}")
        params[key] = value
    if "alpha_set" in params:
        params["alpha_set"] = _as_fraction_set(params["alpha_set"])
    if "y_set" in params:
        params["y_set"] = _as_fraction_set(params["y_set"])
    return _CHECKERS[identity](identity, params)


def run_all(shared_overrides: dict | None = None) -> list[VerificationReport]:
    """Run the whole catalog in id order, applying each override only to
    jobs that accept the parameter."""
    shared = shared_overrides or {}
    reports = []
    for identity in CATALOG:
        accepted = {k: v for k, v in shared.items() if k in _DEFAULTS[identity]}
        reports.append(run_identity(identity, **accepted))
    return reports
