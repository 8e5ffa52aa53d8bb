"""Acceptance gate.

One test per criterion, at the full advertised parameter ranges, each
with its stated wall-clock budget.  Every numeric comparison is exact;
the only tolerance anywhere is the four-standard-error band of the
Monte Carlo criterion.  Each test emits one uncaptured
"criterion N: PASS" line on success; a failure surfaces through the
usual pytest report instead.
"""

import json
import time
from fractions import Fraction

from ycalc.growth import sample_growth
from ycalc.moments import S_ROUTES, SIGMA_ROUTES, _cor52_numerators, moment_values
from ycalc.partitions import Partition, partitions_upto
from ycalc.series import comb_int
from ycalc.shifted import d_k, moment_table
from ycalc.verify import DEFAULT_ALPHA_SET, DEFAULT_Y_SET, run_identity

_MC_SEED = 42


def _announce(capsys, number: int, detail: str, started: float) -> None:
    elapsed = time.monotonic() - started
    with capsys.disabled():
        print(f"criterion {number:2d}: PASS  {detail} [{elapsed:.1f}s]")


def test_criterion_01_symbolic_expansion(capsys):
    started = time.monotonic()
    symbolic = run_identity("thm3.1", n_max=5, order=5, mode="symbolic")
    assert symbolic.status == "verified", symbolic.counterexample
    randomized = run_identity("thm3.1", n_max=8, order=8, mode="random", trials=3)
    assert randomized.status == "verified", randomized.counterexample
    # the signed variant of the same expansion, at the symbolic range
    signed = run_identity("thm3.1-alt", n_max=5, order=5, mode="symbolic")
    assert signed.status == "verified", signed.counterexample
    elapsed = time.monotonic() - started
    assert elapsed < 120
    _announce(
        capsys, 1,
        f"symbolic n<=5 ({symbolic.cases} cases), random n<=8 x3 seeds "
        f"({randomized.cases} cases)",
        started,
    )


def test_criterion_02_length_graded_identity(capsys):
    started = time.monotonic()
    report = run_identity("thm4.1", n_max=8)
    assert report.status == "verified", report.counterexample
    elapsed = time.monotonic() - started
    assert elapsed < 30
    _announce(capsys, 2, f"polynomial identity n<=8 ({report.cases} cases)", started)


def test_criterion_03_generating_functions(capsys):
    started = time.monotonic()
    rows = run_identity("gf2.3", n_max=10, order=10, lambda_max=8)
    assert rows.status == "verified", rows.counterexample
    closed = run_identity("gn-closed", n_max=12)
    assert closed.status == "verified", closed.counterexample
    _announce(
        capsys, 3,
        f"series routes n<=10 + diagrams |la|<=8 ({rows.cases} cases), "
        f"closed form n<=12 ({closed.cases} cases)",
        started,
    )


def test_criterion_04_row_moments(capsys):
    started = time.monotonic()
    report = run_identity("thm8.1", lambda_max=8, r_max=9, alpha_set=DEFAULT_ALPHA_SET)
    assert report.status == "verified", report.counterexample
    # published low-moment values
    for alpha in DEFAULT_ALPHA_SET:
        for la in partitions_upto(6):
            w = la.weight
            assert moment_values(S_ROUTES["direct"], la, alpha, 3) == [
                1,
                0,
                Fraction(w) / alpha,
                2 * d_k(la, alpha, 1) / alpha + w * (alpha - 1) / alpha**2,
            ]
    elapsed = time.monotonic() - started
    assert elapsed < 120
    _announce(
        capsys, 4,
        f"three routes |la|<=8, r<=9, 4 alphas ({report.cases} cases) "
        "+ pinned s_0..s_3",
        started,
    )


def test_criterion_05_corner_moments(capsys):
    started = time.monotonic()
    report = run_identity("thm9.1", lambda_max=8, r_max=8, alpha_set=DEFAULT_ALPHA_SET)
    assert report.status == "verified", report.counterexample
    for alpha in DEFAULT_ALPHA_SET:
        for la in partitions_upto(6):
            w = la.weight
            assert moment_values(SIGMA_ROUTES["direct"], la, alpha, 2) == [
                w,
                2 * d_k(la, alpha, 1) + w,
                3 * d_k(la, alpha, 2)
                + (3 + 1 / alpha) * d_k(la, alpha, 1)
                + w
                - Fraction(comb_int(w, 2)) / alpha,
            ]
    elapsed = time.monotonic() - started
    assert elapsed < 120
    _announce(
        capsys, 5,
        f"three routes |la|<=8, r<=8, 4 alphas ({report.cases} cases) "
        "+ pinned sigma_0..sigma_2",
        started,
    )


def test_criterion_06_content_ratio_series(capsys):
    started = time.monotonic()
    thm = run_identity(
        "thm5.1", lambda_max=6, order=10,
        alpha_set=DEFAULT_ALPHA_SET, y_set=DEFAULT_Y_SET,
    )
    assert thm.status == "verified", thm.counterexample
    cor = run_identity(
        "cor5.2", lambda_max=6, order=10,
        alpha_set=DEFAULT_ALPHA_SET, y_set=DEFAULT_Y_SET,
    )
    assert cor.status == "verified", cor.counterexample
    rel = run_identity("rel5.1", lambda_max=6, order=10, alpha_set=DEFAULT_ALPHA_SET)
    assert rel.status == "verified", rel.counterexample
    for alpha in DEFAULT_ALPHA_SET:
        for y in DEFAULT_Y_SET:
            for la in partitions_upto(4):
                assert _cor52_numerators(moment_table(la, alpha), y.numerator, y.denominator, 1) == [1, 0]
    _announce(
        capsys, 6,
        f"two-variable ({thm.cases}), collected ({cor.cases}), "
        f"binomial relation ({rel.cases}) cases + c_0=1, c_1=0",
        started,
    )


def test_criterion_07_binomial_weights(capsys):
    started = time.monotonic()
    lemma = run_identity("lem11.1", order=8)
    assert lemma.status == "verified", lemma.counterexample
    weights = run_identity(
        "thm11.2", lambda_max=6, p_max=6, alpha_set=DEFAULT_ALPHA_SET
    )
    assert weights.status == "verified", weights.counterexample
    cv = run_identity(
        "chu-vandermonde", lambda_max=6,
        alpha_set=DEFAULT_ALPHA_SET, y_set=DEFAULT_Y_SET,
    )
    assert cv.status == "verified", cv.counterexample
    _announce(
        capsys, 7,
        f"inverse-power lemma ({lemma.cases}), row/column weights with duality "
        f"({weights.cases}), rational summation ({cv.cases})",
        started,
    )


def test_criterion_08_growth_kernels(capsys):
    started = time.monotonic()
    kernels = run_identity(
        "growth-normalization", lambda_max=8, alpha_set=DEFAULT_ALPHA_SET
    )
    assert kernels.status == "verified", kernels.counterexample
    bridge = run_identity(
        "moments-bridge", lambda_max=8, r_max=6, alpha_set=DEFAULT_ALPHA_SET
    )
    assert bridge.status == "verified", bridge.counterexample
    tableaux = run_identity("plancherel", n_max=8)
    assert tableaux.status == "verified", tableaux.counterexample
    _announce(
        capsys, 8,
        f"kernel laws ({kernels.cases}), moment bridge ({bridge.cases}), "
        f"tableau reduction n<=8",
        started,
    )


def _sample_fingerprint(stats) -> str:
    doc = {
        "steps": stats.steps,
        "alpha": str(stats.alpha),
        "paths": stats.paths,
        "seed": stats.seed,
        "start": str(stats.start),
        "moments": [
            {"r": m.r, "estimate": m.estimate, "exact": str(m.exact),
             "std_error": m.std_error}
            for m in stats.moments
        ],
        "occupancy": list(stats.occupancy),
    }
    return json.dumps(doc, sort_keys=True)


def test_criterion_09_monte_carlo(capsys):
    started = time.monotonic()
    kwargs = dict(
        steps=1, alpha=Fraction(1), paths=100_000, seed=_MC_SEED,
        start=Partition((4, 2, 1)), r_max=4,
    )
    stats = sample_growth(**kwargs)
    for m in stats.moments:
        # a moment with no spread must be hit exactly
        if m.std_error == 0.0:
            assert m.estimate == float(m.exact), (m.r, m.estimate, float(m.exact))
        else:
            assert abs(m.estimate - float(m.exact)) <= 4 * m.std_error, (m.r, m.estimate, float(m.exact), m.std_error)
    assert [m.exact for m in stats.moments] == moment_values(S_ROUTES["direct"], Partition((4, 2, 1)), Fraction(1), 4)
    rerun = sample_growth(**kwargs)
    assert _sample_fingerprint(rerun) == _sample_fingerprint(stats)
    elapsed = time.monotonic() - started
    assert elapsed < 60
    worst = max(
        (abs(m.estimate - float(m.exact)) / m.std_error
         for m in stats.moments if m.std_error),
        default=0.0,
    )
    _announce(
        capsys, 9,
        f"1e5 paths, r<=4 within 4 SE (worst {worst:.2f}), rerun byte-identical",
        started,
    )


def test_criterion_10_fitted_coefficients(capsys):
    started = time.monotonic()
    report = run_identity("chi", n_max=6, p_max=3)
    assert report.status == "reported"
    assert report.ok()
    rows = report.payload["rows"]
    mismatched = [r for r in rows if not r["match"]]
    detail = (
        f"{len(rows)} fitted coefficients, all match the closed guess"
        if not mismatched
        else f"{len(mismatched)} of {len(rows)} fitted coefficients disagree"
    )
    # disagreement is surfaced, not fatal: this family is experimental
    _announce(capsys, 10, detail, started)


def test_criterion_11_filtration_identities(capsys):
    started = time.monotonic()
    swap = run_identity("jz", mu_max=6, n_max=8)
    assert swap.status == "verified", swap.counterexample
    decomposition = run_identity(
        "prop7.1", lambda_max=8, k_max=6, alpha_set=DEFAULT_ALPHA_SET
    )
    assert decomposition.status == "verified", decomposition.counterexample
    _announce(
        capsys, 11,
        f"filtration swap ({swap.cases}), power-sum decomposition "
        f"({decomposition.cases})",
        started,
    )
