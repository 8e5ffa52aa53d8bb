"""The verification catalog: every job runs, reports well, serializes stably."""

import hashlib
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ycalc import growth, moments, shifted, verify
from ycalc.partitions import Partition
from ycalc.series import BiSeries, falling_binomial
from ycalc.verify import (
    _JOBS,
    CATALOG,
    PARAMETERS,
    VerificationReport,
    _bound,
    _entries,
    _graded_keys,
    _Recorder,
    identity_ids,
    report_to_dict,
    reports_to_json,
    run_all,
    run_identity,
)

# small parameter sets so the whole catalog stays fast in unit testing
_SMALL = {
    "thm3.1": {"n_max": 3, "order": 3},
    "thm3.1-alt": {"n_max": 3, "order": 3},
    "ll-v0": {"n_max": 3, "order": 3},
    "jz": {"mu_max": 4, "n_max": 5},
    "thm4.1": {"n_max": 5},
    "rel5.1": {"lambda_max": 4, "order": 6},
    "thm5.1": {"lambda_max": 3, "order": 6},
    "cor5.2": {"lambda_max": 3, "order": 6},
    "gf2.3": {"n_max": 5, "order": 6, "lambda_max": 5},
    "gn-closed": {"n_max": 6},
    "prop7.1": {"lambda_max": 5, "k_max": 4},
    "thm8.1": {"lambda_max": 5, "r_max": 5},
    "thm9.1": {"lambda_max": 5, "r_max": 4},
    "lem11.1": {"order": 6},
    "thm11.2": {"lambda_max": 4, "p_max": 4},
    "chu-vandermonde": {"lambda_max": 4},
    "growth-normalization": {"lambda_max": 5},
    "plancherel": {"n_max": 5},
    "moments-bridge": {"lambda_max": 5, "r_max": 4},
    "chi": {"n_max": 4, "p_max": 2},
}


SRC = Path(__file__).resolve().parents[1] / "src"

# Runs each job of the catalog at the parameters given as JSON in argv[1]
# and prints the interpreter's optimize flag with [status, cases] per job.
_CATALOG_STATUSES = """
import json, sys
from ycalc.verify import run_identity
small = json.loads(sys.argv[1])
jobs = {}
for identity, params in small.items():
    report = run_identity(identity, **params)
    jobs[identity] = [report.status, report.cases]
print(json.dumps({"optimize": sys.flags.optimize, "jobs": jobs}))
"""


def test_catalog_is_complete():
    assert set(_SMALL) == set(CATALOG)
    assert identity_ids() == CATALOG
    assert len(CATALOG) == 20


@pytest.mark.parametrize("identity", CATALOG)
def test_each_identity_verifies_at_small_parameters(identity):
    report = run_identity(identity, **_SMALL[identity])
    assert report.identity == identity
    assert report.ok(), report.counterexample
    assert report.status == ("reported" if identity == "chi" else "verified")
    assert report.cases > 0
    assert report.counterexample is None


def test_catalog_under_python_O_matches_a_normal_run():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _CATALOG_STATUSES, json.dumps(_SMALL)],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    optimized = json.loads(proc.stdout)
    assert optimized["optimize"] == 1
    normal = {}
    for identity in CATALOG:
        report = run_identity(identity, **_SMALL[identity])
        normal[identity] = [report.status, report.cases]
    assert optimized["jobs"] == normal
    assert all(status in ("verified", "reported") for status, _ in normal.values())


def test_unknown_identity_and_parameter():
    with pytest.raises(KeyError, match="unknown identity"):
        run_identity("nope")
    with pytest.raises(ValueError, match="takes no parameter"):
        run_identity("lem11.1", n_max=3)


def test_none_overrides_are_ignored():
    a = run_identity("lem11.1", order=None)
    b = run_identity("lem11.1")
    assert a.cases == b.cases


def test_alpha_set_normalization():
    report = run_identity("prop7.1", lambda_max=3, k_max=2, alpha_set=("1/2", 2))
    assert report.ok()
    assert report.parameters["alpha_set"] == (Fraction(1, 2), Fraction(2))


def test_randomized_expansion_mode():
    report = run_identity("thm3.1", n_max=4, order=4, mode="random", trials=2, seed=7)
    assert report.ok()
    assert report.parameters["mode"] == "random"


def test_run_all_filters_shared_overrides():
    reports = run_all({"lambda_max": 3, "n_max": 3, "order": 3, "r_max": 3,
                       "k_max": 3, "p_max": 2, "mu_max": 3, "trials": 1})
    assert [r.identity for r in reports] == list(CATALOG)
    assert all(r.ok() for r in reports)
    # the shared bound reached jobs that accept it
    by_id = {r.identity: r for r in reports}
    assert by_id["thm4.1"].parameters["n_max"] == 3
    assert by_id["lem11.1"].parameters["order"] == 3
    assert "lambda_max" not in by_id["lem11.1"].parameters


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"alpha_set": [1, 0]}, "^alpha_set: alpha must be positive: 0$"),
        ({"lambda_max": -1}, "^lambda_max must be nonnegative$"),
        ({"wibble": 3}, "^no job takes a parameter 'wibble'$"),
    ],
)
def test_run_all_reads_overrides_before_any_job(monkeypatch, overrides, message):
    monkeypatch.setattr(verify, "run_identity", lambda *args, **kw: pytest.fail("a job ran"))
    with pytest.raises(ValueError, match=message):
        run_all(overrides)


def test_report_serialization_round_trip():
    report = run_identity("lem11.1", order=5)
    data = report_to_dict(report)
    assert data["identity"] == "lem11.1"
    assert data["status"] == "verified"
    json.dumps(data)  # no exotic types may remain

    text = reports_to_json([report])
    parsed = json.loads(text)
    assert parsed[0]["cases"] == report.cases
    assert text == reports_to_json([run_identity("lem11.1", order=5)])


def test_report_json_stringifies_fractions():
    report = run_identity("prop7.1", lambda_max=3, k_max=2)
    text = reports_to_json([report])
    parsed = json.loads(text)
    alphas = parsed[0]["parameters"]["alpha_set"]
    assert "1/2" in alphas and "3/5" in alphas


def test_failed_report_shape():
    # a deliberately broken comparison never reaches "verified"
    report = VerificationReport(
        identity="x", parameters={}, status="failed", cases=3,
        counterexample={"where": "here"},
    )
    assert not report.ok()
    data = report_to_dict(report)
    assert data["counterexample"] == {"where": "here"}


@pytest.mark.parametrize(
    "identity, overrides",
    [
        ("thm3.1", {"mode": "random", "trials": 0}),
        ("lem11.1", {"order": 0}),
        ("chi", {"n_max": 0}),
    ],
)
def test_zero_comparisons_never_verify(identity, overrides):
    report = run_identity(identity, **overrides)
    assert (report.status, report.cases, report.notes) == ("failed", 0, "0 comparisons made")


@pytest.mark.parametrize(
    "identity,key",
    [(identity, key) for identity in CATALOG for key in _JOBS[identity][1] if PARAMETERS[key] is _bound],
)
def test_negative_bounds_are_rejected(identity, key):
    with pytest.raises(ValueError, match=f"^{key} must be nonnegative$"):
        run_identity(identity, **{key: -1})


def test_text_overrides_are_read_to_typed_values():
    report = run_identity("jz", mu_max=2, n_max="3")
    assert report.parameters == {"mu_max": 2, "n_max": 3}
    report = run_identity("prop7.1", lambda_max=2, k_max=1, alpha_set="1/2, 2")
    assert report.parameters["alpha_set"] == (Fraction(1, 2), Fraction(2))


@pytest.mark.parametrize(
    "identity,overrides,message",
    [
        ("jz", {"n_max": 2.5}, "n_max: not an integer: 2.5"),
        ("jz", {"n_max": "x"}, "n_max: not an integer: 'x'"),
        ("thm3.1", {"seed": True}, "seed: not an integer: True"),
        ("thm3.1", {"mode": "exhaustive"}, "mode must be 'symbolic' or 'random'"),
        ("prop7.1", {"alpha_set": 2}, "alpha_set: not a sample set: 2"),
        ("prop7.1", {"alpha_set": ()}, "alpha_set: empty sample set"),
        ("prop7.1", {"alpha_set": "1,1/0"}, "alpha_set: not a rational: '1/0'"),
        ("cor5.2", {"y_set": [math.inf]}, "y_set: not a rational: inf"),
        ("cor5.2", {"y_set": [1, math.nan]}, "y_set: not a rational: nan"),
        ("cor5.2", {"y_set": [True]}, "y_set: not a rational: True"),
        ("prop7.1", {"alpha_set": [-math.inf]}, "alpha_set: not a rational: -inf"),
    ],
)
def test_malformed_overrides_are_rejected(identity, overrides, message):
    with pytest.raises(ValueError) as exc:
        run_identity(identity, **overrides)
    assert str(exc.value) == message


# sha256 of `verify --all --format json` at the catalog defaults (20 jobs,
# 39,813 cases), computed before the parameter table replaced the
# per-checker parameter reading.
_CATALOG_DIGEST = "292678e41b6507bc419cad7a4b36eb12a8a0b29b212c49a176109eca716b5a80"


def test_catalog_at_defaults_is_pinned(fresh_memos):
    reports = run_all()
    assert sum(r.cases for r in reports) == 39_813
    assert hashlib.sha256(reports_to_json(reports).encode()).hexdigest() == _CATALOG_DIGEST


# sha256 of the reports below with npbi(1,1; 0, 2) raised by 1, pinned
# before the marked family and the closed routes moved to one call per row
# or per index: every job that reads npbi fails, with its first
# counterexample and its failure count.  Re-pinned once thm4.1 compared
# integer lists: its first counterexample (n=2, p=0, k=2) names key [2]
# with lhs 1 and rhs 1/2, the x^2 coefficients of the two polynomials it
# printed whole before; every other job's report is unchanged.
_NPBI_FAULT_JOBS = (
    "thm3.1", "thm3.1-alt", "ll-v0", "thm4.1", "gf2.3", "rel5.1", "thm5.1",
    "cor5.2", "thm8.1", "thm9.1", "thm11.2", "chu-vandermonde",
)
_NPBI_FAULT_DIGEST = "58d8adae1ae2a6b508703b6cb1c8a41c6fcf7c6523211345b2a0c0b46cc5c09a"


def test_npbi_fault_fails_every_reader_the_same_way(fresh_memos, monkeypatch):
    from types import MappingProxyType

    from ycalc import coefficients

    npbi_map = coefficients._npbi_map

    def raised(parts):
        table = npbi_map(parts)
        if parts == (1, 1):
            table = dict(table)
            table[(0, 2)] += 1
            return MappingProxyType(table)
        return table

    monkeypatch.setattr(coefficients, "_npbi_map", raised)
    bounds = {"n_max": 4, "order": 6, "lambda_max": 4, "r_max": 6, "p_max": 4}
    reports = run_all(bounds, _NPBI_FAULT_JOBS)
    assert [r.status for r in reports] == ["failed"] * len(_NPBI_FAULT_JOBS)
    assert hashlib.sha256(reports_to_json(reports).encode()).hexdigest() == _NPBI_FAULT_DIGEST


# the unpatched kernels, read once at import
moments_corner_row_values = moments._corner_row_values
verify_content_ratio_integers = verify._content_ratio_integers
verify_marked_row = verify.marked_row
verify_npbi = verify.npbi
verify_pieri_weights = verify._pieri_weights
growth_dimension_integers = growth._dimension_integers
shifted_c_formula = shifted._c_formula
shifted_k_formula = shifted._k_formula
shifted_falling_binomial = shifted.falling_binomial
moments_u_table = moments._u_table


def _bumped_content_ratio(la, alpha, c, d, order):
    # G_3 raised by 1, which moves t^3 by 1/(a d)^3, on the shapes of weight 4
    g = verify_content_ratio_integers(la, alpha, c, d, order)
    if la.weight == 4:
        g[3] += 1
    return g


def _bumped_marked_row(n, xk):
    # +X_1 (-X_1 in the alternating variant, which reads xk = -X) at
    # degree 3, p = 1, k = 1
    row = verify_marked_row(n, xk)
    if n != 3:
        return row
    line = list(row[1])
    line[1] = line[1] + xk(1)
    return (row[0], tuple(line), *row[2:])


def _bumped_npbi(mu, p, k):
    return verify_npbi(mu, p, k) + ((mu.parts, p, k) == ((3, 1), 2, 2))


def _bumped_c_formula(r):
    # the |la| term of C[4][1] raised by 1, which moves c_4(y) by |la| y / 24
    formula = shifted_c_formula(r)
    if r != 4:
        return formula
    terms = dict(formula[1])
    terms[1, ()] += 1
    return (formula[0], terms, *formula[2:])


def _bumped_k_formula(n, m, shift, p_max):
    # A[2][0][1] raised by 1 in every k-sum: n! C(X0 + shift, n - 1) added
    # at mu = () to entry p = 0 when m = 2 and n >= 1, which moves the p = 0
    # k-sums that rel5.1 and the row and column binomials read
    formula = shifted_k_formula(n, m, shift, p_max)
    if m != 2 or not n:
        return formula
    terms = dict(formula[0])
    for e0, v in enumerate(falling_binomial(n, n - 1, shift)):
        terms[e0, ()] = terms.get((e0, ()), 0) + v
    return (terms, *formula[1:])


def _raised_falling_binomial(n, j, s):
    # the X0 coefficient of 1! C(X0, 1) raised from 1 to 2: the k = 0 term
    # of K(1, 0) at shift 0, which doubles K(1, 0) = |la| wherever it is
    # read, at shift n - 1 by the C rows and Theorem 5.1's plan and at
    # shift -m by the p = 0 plan; the empty shape reads 0 either way
    out = shifted_falling_binomial(n, j, s)
    if (n, j, s) == (1, 1, 0):
        out[1] += 1
    return out


def _moved_u_unit(r):
    # one unit of u moved from rho = 2 to rho = 1,1 in the row
    # (r, i, j, k) = (6, 2, 2, 2), 4 and 4 to 3 and 5: every u stays a
    # nonnegative integer, and s_6 moves by (a b)^2 (6!/2!) (P_1^2 - P_2)
    # over a^6 6!, which is 0 on the shapes of weight 1 and 2
    rows = moments_u_table(r)
    if r != 6:
        return rows
    return tuple((i, j, k, ((0, terms[0][1] - 1), (1, terms[1][1] + 1))) if (i, j, k) == (2, 2, 2) else (i, j, k, terms) for i, j, k, terms in rows)


def _swapped_corner_rows(la, a, b):
    # the corner atoms 10/6 and -8/-6 of rows 1 and 2 of 2,1 at alpha 2
    # swapped, which keeps their sum, signs and zeros
    values = moments_corner_row_values(la, a, b)
    if la.parts == (2, 1) and (a, b) == (2, 1):
        return values[::-1]
    return values


def _doubled_pieri_row(la, alpha):
    # row 1's weight doubled on 2,1, past the library's own sum check
    atoms = verify_pieri_weights(la, alpha)
    if la.parts != (2, 1):
        return atoms
    return tuple((row, 2 * num if row == 1 else num, den) for row, num, den in atoms)


def _swapped_dimension_integers(la, a, b):
    # a and b swapped in the hook product: the dimension at 1/alpha
    return growth_dimension_integers(la, b, a)


# One row per perturbed kernel, as the name it patches, the module (or
# class) it is patched in, the replacement, the jobs run at reduced bounds
# with their statuses, and the sha256 of reports_to_json over them.  The
# marked_row and npbi rows were pinned before the checkers moved to integer
# arithmetic, the C-row formula's once it was in place of the per-table
# C-row loop.  The _content_ratio_integers and _k_formula digests equal the
# reports of the Fraction comparisons they replaced, under the same
# perturbation made through the old kernels (content_ratio_series moved by
# 1/(a d)^3 at t^3, column (2, 1) of the per-table marked row moved by 1 at
# p = 0).
# The npbi row was re-pinned once thm4.1 compared integer lists: its first
# counterexample (n=4, p=2, k=2) names key [2] with lhs 23/6 and rhs 7/2,
# the x^2 coefficients of the two polynomials it printed whole before.
# Each fault keeps every library invariant true, so only a comparison can
# catch it.  ll-v0 stays verified under the marked-row fault: its right
# side reads marked_row(d, X) at p = 0 only.  moments-bridge stays verified
# under the corner-row fault: its down-moment compares two routes that both
# read the corner atoms, and its up-moment reads none.  The corner-row
# digest was re-pinned once the dimension recurrence compared integers row
# by row: growth-normalization's first counterexample names key [1] with
# lhs 4/9 and rhs 5/9, row 1 of the two kernels it printed whole before.
# The _u_table digest equals the report of the per-row loop the compiled
# regrouping plan replaced, under the same move; the regrouping
# coefficients thm8.1 checks by themselves are computed apart from the
# table, so only its integer-regrouping route fails.
# The doubled Pieri row reaches the two jobs that read the Pieri memo in
# verify: growth-normalization's up kernel and the law of moments-bridge,
# whose direct route reads the memo in moments.  The swapped hook product
# moves every dimension at alpha != 1, so growth-normalization's dimension
# recurrence fails; plancherel stays verified, since it runs only at
# alpha 1, where a = b and the swap cannot show.  The raised falling
# binomial reaches every job that reads the K polynomials, closed routes
# and binomials alike, and no other.
_FAULT_ROWS = {
    "_c_formula": (
        shifted,
        _bumped_c_formula,
        {"cor5.2": "failed", "thm8.1": "failed", "thm9.1": "failed"},
        {"lambda_max": 2, "order": 4, "r_max": 4},
        "b552394ba42135f219a8415f046efe4334b6facd9a6c3732c4f4f53514516897",
    ),
    "_corner_row_values": (
        moments,
        _swapped_corner_rows,
        {"thm9.1": "failed", "growth-normalization": "failed", "moments-bridge": "verified"},
        {"lambda_max": 3, "r_max": 2},
        "dd638cf9452539a0b0e171aba0603022bf13f94b721d4ed6368882f25fb9e629",
    ),
    "_content_ratio_integers": (
        verify,
        _bumped_content_ratio,
        {"thm5.1": "failed", "cor5.2": "failed"},
        {"lambda_max": 4, "order": 6},
        "9653aa3f13e989fd9591de66fa271a2a0a27bee7cd5703436cabf39fa08444b2",
    ),
    "marked_row": (
        verify,
        _bumped_marked_row,
        {"thm3.1": "failed", "thm3.1-alt": "failed", "ll-v0": "verified"},
        {"n_max": 3, "order": 4},
        "7ec5cf39ede4468d9053bb47449d915d533f41b6ca6fa41cae8878020ce01973",
    ),
    "npbi": (
        verify,
        _bumped_npbi,
        {"thm4.1": "failed"},
        {"n_max": 5},
        "5469badf0fe30abf6f2c01879f001018c9d565e58dfa89847a65f1567b400880",
    ),
    "_k_formula": (
        shifted,
        _bumped_k_formula,
        {"rel5.1": "failed", "thm11.2": "failed", "chu-vandermonde": "failed"},
        {"lambda_max": 4, "order": 6, "p_max": 4},
        "5796de3c7ed5f6665b8bae7d2577ec7e60bb0fca08a5729c3522803540fa9f5b",
    ),
    "falling_binomial": (
        shifted,
        _raised_falling_binomial,
        {
            "rel5.1": "failed",
            "thm5.1": "failed",
            "cor5.2": "failed",
            "thm8.1": "failed",
            "thm9.1": "failed",
            "thm11.2": "failed",
            "chu-vandermonde": "failed",
        },
        {"lambda_max": 2, "order": 4, "r_max": 4, "p_max": 3},
        "a85feacdf1f750c24a1c45840260aa1abf9a351a6f0e259e264c22cfad1c2c7f",
    ),
    "_u_table": (
        moments,
        _moved_u_unit,
        {"thm8.1": "failed"},
        {"lambda_max": 3, "r_max": 6},
        "525d6f75d70e1d8cfb7040eb8f56a9b5b9fb388887b06252b53e6366a4fa5a19",
    ),
    "_pieri_weights": (
        verify,
        _doubled_pieri_row,
        {"growth-normalization": "failed", "moments-bridge": "failed"},
        {"lambda_max": 4, "r_max": 4},
        "5dded51a498faba36a01ecc77f4fde3eed82d751eb7fc3666c43873e0e906470",
    ),
    "_dimension_integers": (
        growth,
        _swapped_dimension_integers,
        {"growth-normalization": "failed", "plancherel": "verified"},
        {"lambda_max": 4, "n_max": 4},
        "8518685fea28be7fcb70358e01667406deed29bd045816af81ef3d62de8f256e",
    ),
}


@pytest.mark.parametrize("name", sorted(_FAULT_ROWS))
def test_fault_rows_fail_through_a_comparison(fresh_memos, monkeypatch, name):
    module, replacement, statuses, bounds, digest = _FAULT_ROWS[name]
    monkeypatch.setattr(module, name, replacement)
    reports = run_all(bounds, tuple(statuses))
    assert {r.identity: r.status for r in reports} == statuses
    for report in reports:
        if report.status == "failed":
            assert report.counterexample is not None, report.notes
    assert hashlib.sha256(reports_to_json(reports).encode()).hexdigest() == digest


def test_jz_fault_names_the_first_differing_coefficient(monkeypatch):
    # pbi(2,1; 2) raised from 2 to 3 moves the left side of mu = 2,1 by
    # C(X0 - 3, n - 2) and the right side by C(X0 - 2, n - 2), equal at
    # n = 2; at n = 3 the sides are 3 X0 - 8 and 3 X0 - 7, first apart at X0^0
    from ycalc import coefficients

    pbi = coefficients.pbi
    monkeypatch.setattr(coefficients, "pbi", lambda mu, k: pbi(mu, k) + ((mu.parts, k) == ((2, 1), 2)))
    report = run_identity("jz", mu_max=3, n_max=4)
    assert report.status == "failed"
    assert report.notes.startswith("2 of ")
    assert report.counterexample == {"mu": "2,1", "n": 3, "key": [0], "lhs": "-8", "rhs": "-7"}


def test_doubled_pieri_row_names_its_shape(monkeypatch):
    monkeypatch.setattr(verify, "_pieri_weights", _doubled_pieri_row)
    report = run_identity("growth-normalization", lambda_max=3)
    assert report.status == "failed"
    assert report.counterexample["la"] == "2,1"
    assert report.counterexample["group"] == "up-normalization"


def test_chi_fault_beyond_p3_is_reported(monkeypatch):
    # npbi(2,2,1; 4, 2) raised by 1 is read only by rows with p = 4: the
    # default p_max cannot see it, p_max 6 reports it with its row.
    from ycalc import symfunc
    from ycalc.partitions import Partition

    before = report_to_dict(run_identity("chi", n_max=6, p_max=3))
    npbi, target = symfunc.npbi, (Partition((2, 2, 1)), 4, 2)

    def raised(la, p, k):
        return npbi(la, p, k) + ((la, p, k) == target)

    monkeypatch.setattr(symfunc, "npbi", raised)
    assert report_to_dict(run_identity("chi", n_max=6, p_max=3)) == before
    report = run_identity("chi", n_max=6, p_max=6)
    assert report.status == "reported"
    assert report.notes.startswith("2 of 164 fitted values disagree")
    # L[2,2,1; 3,2] = 2 and z = 8 move chi from 2 by -2/8 on that row
    assert report.counterexample == {"n": 5, "p": 4, "k": 2, "mu": "3,2", "lhs": Fraction(7, 4), "rhs": Fraction(2)}


def test_univariate_series_mismatch_reports_index():
    rec = _Recorder()
    rec.numerators([1, 2, 3], [1, 2, 0], 1, [(0,), (1,), (2,)], k=1)
    report = rec.report("x", {})
    assert report.status == "failed"
    assert report.counterexample == {"k": 1, "key": [2], "lhs": "3", "rhs": "0"}


def test_bivariate_series_mismatch_reports_key():
    # the entries in (total degree, key) order: the first difference is at
    # the smallest total degree, then at the smallest key within it, and
    # its values print as strings over the key's denominator
    keys = _graded_keys(3)
    assert keys[:6] == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    lhs = BiSeries(3, {(0, 2): 5, (1, 0): 1, (0, 3): 1})
    rhs = BiSeries(3, {(2, 1): 4, (1, 0): 1, (1, 1): 9})
    rec = _Recorder()
    rec.numerators(_entries(lhs, keys), _entries(rhs, keys), lambda key: 2 ** key[1], keys, la="2,1")
    report = rec.report("x", {})
    assert report.status == "failed"
    assert report.counterexample == {"la": "2,1", "key": [0, 2], "lhs": "5/4", "rhs": "0"}
    rec = _Recorder()
    rec.numerators(_entries(rhs, keys), _entries(rhs, keys), 1, keys)
    assert (rec.cases, rec.failures) == (1, 0)


def test_recorder_names_a_partition_only_in_its_counterexample():
    la = Partition((2, 1))
    rec = _Recorder()
    rec.check(1, 1, la=la)
    rec.numerators([1], [1], 1, [(0,)], la=la)
    rec.condition(True, la=la)
    assert (rec.cases, rec.first) == (3, None)
    for record in (
        lambda rec: rec.check(Fraction(1), Fraction(2), la=la, r=0),
        lambda rec: rec.numerators([1], [2], 1, [(0,)], la=la, r=0),
        lambda rec: rec.condition(False, la=la, r=0),
    ):
        rec = _Recorder()
        record(rec)
        record(rec)
        assert rec.failures == 2
        assert rec.first["la"] == "2,1"
        assert rec.first["r"] == 0
        assert rec.report("x", {}).counterexample["la"] == "2,1"


def test_recorder_numerators_count_one_case_and_keep_the_fractions():
    la = Partition((2, 1))
    rec = _Recorder()
    rec.numerators(6, 6, 4, la=la)
    rec.numerators([1, 2], [1, 2], None, [(0,), (1,)], la=la)
    assert (rec.cases, rec.failures, rec.first) == (2, 0, None)
    # a scalar keeps Fraction(lhs, den) and Fraction(rhs, den)
    rec = _Recorder()
    rec.numerators(6, 3, 4, la=la, r=1)
    rec.numerators(1, 2, 3, la=la, r=2)
    assert (rec.cases, rec.failures) == (2, 2)
    assert rec.first == {"la": "2,1", "r": 1, "lhs": Fraction(3, 2), "rhs": Fraction(3, 4)}
    # a series keeps its first differing key, over den(key) or over one den
    keys = _graded_keys(2)
    lhs, rhs = [1, 0, 4, 2, 0, 0], [1, 0, 4, 3, 9, 0]
    rec = _Recorder()
    rec.numerators(lhs, rhs, lambda key: 2 ** key[1], keys, la=la)
    assert (rec.cases, rec.failures) == (1, 1)
    assert rec.first == {"la": "2,1", "key": [0, 2], "lhs": "1/2", "rhs": "3/4"}
    rec = _Recorder()
    rec.numerators(lhs, rhs, 4, keys, la=la)
    assert rec.first == {"la": "2,1", "key": [0, 2], "lhs": "1/2", "rhs": "3/4"}


# One batch of four entries over the denominators 1 .. 4, failing at no
# entry, at the first, at a middle one, at the last and at all of them;
# prints, per case, the report of one each() call and the report of one
# numerators() call per entry, in the same order.
_BATCH_CONTRACT = """
import json, sys
from ycalc.partitions import Partition
from ycalc.verify import _Recorder, report_to_dict

lhs, dens = [1, 2, 3, 4], [1, 2, 3, 4]
cases = {"none": [], "first": [0], "middle": [2], "last": [3], "all": [0, 1, 2, 3]}
out = {}
for name, wrong in cases.items():
    rhs = [v + 2 * (i in wrong) for i, v in enumerate(lhs)]
    batch, single = _Recorder(), _Recorder()
    batch.each(lhs, rhs, dens, lambda i: dict(la=Partition((2, 1)), r=i))
    for i in range(len(lhs)):
        single.numerators(lhs[i], rhs[i], dens[i], la=Partition((2, 1)), r=i)
    out[name] = [report_to_dict(rec.report("x", {})) for rec in (batch, single)]
print(json.dumps({"optimize": sys.flags.optimize, "cases": out}))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_batch_matches_one_numerators_call_per_entry(flags):
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _BATCH_CONTRACT],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["optimize"] == len(flags)
    for name, (batch, single) in result["cases"].items():
        assert batch == single, name
        assert batch["cases"] == 4, name
    cases = result["cases"]
    assert cases["none"][0]["status"] == "verified"
    assert cases["none"][0]["counterexample"] is None
    # the first failing entry is the one kept, over its own denominator
    assert cases["first"][0]["counterexample"] == {"la": "2,1", "r": 0, "lhs": "1", "rhs": "3"}
    assert cases["middle"][0]["counterexample"] == {"la": "2,1", "r": 2, "lhs": "1", "rhs": "5/3"}
    assert cases["last"][0]["counterexample"] == {"la": "2,1", "r": 3, "lhs": "1", "rhs": "3/2"}
    assert cases["all"][0]["notes"] == "4 of 4 comparisons failed"
    assert cases["all"][0]["counterexample"]["r"] == 0


def test_batch_builds_a_context_only_for_a_failing_entry():
    built = []

    def context_of(i):
        built.append(i)
        return {"r": i}

    rec = _Recorder()
    rec.each([1, 2, 3], [1, 2, 3], [1, 1, 1], context_of)
    rec.each((4, 5), (4, 6), (1, 1), context_of)
    assert (rec.cases, rec.failures, built) == (5, 1, [1])
    assert rec.first == {"r": 1, "lhs": Fraction(5), "rhs": Fraction(6)}
    # dens may be a function of the entry's index
    rec = _Recorder()
    rec.each([4, 5], [4, 6], lambda i: i + 1, context_of)
    assert rec.first == {"r": 1, "lhs": Fraction(5, 2), "rhs": Fraction(3)}
    with pytest.raises(ValueError):
        rec.each([1, 2], [1], [1, 1], context_of)


@pytest.mark.parametrize(
    "identity",
    ["thm3.1", "thm3.1-alt", "ll-v0", "jz", "thm4.1", "gf2.3", "gn-closed", "rel5.1", "thm5.1", "cor5.2", "prop7.1", "thm8.1", "thm9.1", "lem11.1", "thm11.2", "growth-normalization", "moments-bridge"],
)
def test_integer_checkers_form_no_fraction_in_verify(monkeypatch, identity):
    formed = []

    class Counted(Fraction):
        def __new__(cls, *args):
            formed.append(args)
            return Fraction(*args)

    checker, defaults = _JOBS[identity]
    params = {**defaults, **_SMALL[identity]}
    monkeypatch.setattr(verify, "Fraction", Counted)
    rec = _Recorder()
    checker(rec, **params)
    assert rec.cases and not rec.failures
    assert formed == []
    # the counter sees the recorder's Fractions: a mismatch forms two
    rec.numerators(1, 2, 3)
    assert formed == [(1, 3), (2, 3)]
    # with the memos the first run filled, a second run forms no Fraction
    # anywhere: every route the checker reads is an integer core
    anywhere = []
    fraction_new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw: anywhere.append(args) or fraction_new(cls, *args, **kw))
    rec = _Recorder()
    checker(rec, **params)
    assert rec.cases and not rec.failures
    assert anywhere == []


@pytest.mark.parametrize("identity", ["thm8.1", "thm9.1", "growth-normalization", "moments-bridge"])
def test_atom_readers_form_no_fraction_from_cold_memos(fresh_memos, monkeypatch, identity):
    # The Pieri and corner memos hold integer atoms and key alpha = a/b by
    # its ints, so even with every memo empty the readers of the atoms form
    # no Fraction anywhere, at the catalog defaults.
    formed = []
    fraction_new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw: formed.append(args) or fraction_new(cls, *args, **kw))
    checker, defaults = _JOBS[identity]
    rec = _Recorder()
    checker(rec, **defaults)
    assert rec.cases and not rec.failures
    assert formed == []


def test_moments_bridge_draws_no_path_and_names_no_shape(monkeypatch):
    named = []
    to_str = Partition.__str__

    def counted(la):
        named.append(la)
        return to_str(la)

    def no_draws(*args):
        raise AssertionError("moments-bridge drew a path")

    monkeypatch.setattr(growth, "_lane_draws", no_draws)
    monkeypatch.setattr(Partition, "__str__", counted)
    report = run_identity("moments-bridge", **_SMALL["moments-bridge"])
    assert report.status == "verified" and report.cases
    assert named == []


@pytest.mark.parametrize("identity,rhs_name,key", [
    ("ll-v0", "_rhs_useries", [2]),
    ("thm3.1", "_rhs_biseries", [2, 0]),
])
def test_expansion_mismatch_reports_key(monkeypatch, identity, rhs_name, key):
    # shift the u^2 coefficient of every right-hand side by one: the
    # right side at total degree 2 is n! 2! times its value
    import ycalc.verify as verify

    original = getattr(verify, rhs_name)

    def shifted(n, *args, **kwargs):
        rhs = original(n, *args, **kwargs)
        rhs.rows[2][0] = rhs.rows[2][0] + math.factorial(n) * 2
        return rhs

    monkeypatch.setattr(verify, rhs_name, shifted)
    report = run_identity(identity, n_max=1, order=3, mode="random", trials=1)
    assert report.status == "failed"
    example = report_to_dict(report)["counterexample"]
    assert (example["n"], example["key"]) == (1, key)
    assert Fraction(example["rhs"]) == Fraction(example["lhs"]) + 1


def test_chi_report_payload():
    report = run_identity("chi", n_max=3, p_max=2)
    assert report.status == "reported"
    assert report.payload is not None
    rows = report.payload["rows"]
    assert rows and all({"n", "p", "k", "mu", "fitted"} <= set(r) for r in rows)
    data = report_to_dict(report)
    json.dumps(data)
