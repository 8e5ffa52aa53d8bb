"""The verification catalog: every job runs, reports well, serializes stably."""

import json
from fractions import Fraction

import pytest

from ycalc.series import UniPoly
from ycalc.verify import (
    CATALOG,
    VerificationReport,
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
        ("thm5.1", {"lambda_max": -1}),
        ("lem11.1", {"order": 0}),
    ],
)
def test_zero_comparisons_never_verify(identity, overrides):
    report = run_identity(identity, **overrides)
    assert (report.status, report.cases, report.notes) == ("failed", 0, "0 comparisons made")


def test_univariate_series_mismatch_reports_index():
    rec = _Recorder()
    rec.series_equal(UniPoly((1, 2, 3)), UniPoly((1, 2)), k=1)
    report = rec.report("x", {})
    assert report.status == "failed"
    assert report.counterexample == {"k": 1, "key": [2], "lhs": "3", "rhs": "0"}


def test_chi_report_payload():
    report = run_identity("chi", n_max=3, p_max=2)
    assert report.status == "reported"
    assert report.payload is not None
    rows = report.payload["rows"]
    assert rows and all({"n", "p", "k", "mu", "fitted"} <= set(r) for r in rows)
    data = report_to_dict(report)
    json.dumps(data)
