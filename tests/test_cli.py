"""Command line surface: exact output shapes and exit codes."""

import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import ycalc
from ycalc import cli, moments
from ycalc.cli import _use_color, main
from ycalc.verify import _JOBS, CATALOG, PARAMETERS, _bound, report_to_dict, run_identity


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeff_nbi_value(capsys):
    code, out, err = run_cli(capsys, "coeff", "nbi", "--n", "4", "--p", "0", "--k", "2")
    assert (code, err) == (0, "")
    assert out == "6\n"


def test_coeff_nbi_out_of_range(capsys):
    code, _, err = run_cli(capsys, "coeff", "nbi", "--n", "4", "--p", "5", "--k", "2")
    assert code == 2
    assert "p out of range" in err


def test_coeff_table_pbi_csv_quotes_shapes(capsys):
    code, out, _ = run_cli(capsys, "coeff", "table", "--family", "pbi", "--max", "2")
    assert code == 0
    assert out.splitlines() == [
        "lambda,p,k,value",
        "1,0,1,1",
        "2,0,1,2",
        "2,0,2,1",
        '"1,1",0,2,1',
    ]


def test_coeff_table_nbi_json(capsys):
    code, out, _ = run_cli(
        capsys, "coeff", "table", "--family", "nbi", "--max", "2", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert {"k": 1, "n": 1, "p": 0, "value": 1} in rows
    assert {"k": 2, "n": 2, "p": 1, "value": 2} in rows


def test_coeff_table_npbi_has_marked_column(capsys):
    code, out, _ = run_cli(
        capsys, "coeff", "table", "--family", "npbi", "--max", "2", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert {"lambda": "2", "p": 1, "k": 1, "value": 2} in rows


@pytest.mark.parametrize("family", ["nbi", "pbi", "npbi"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_coeff_table_max_0_exits_2(capsys, family, fmt):
    code, out, err = run_cli(
        capsys, "coeff", "table", "--family", family, "--max", "0", "--format", fmt
    )
    assert (code, out) == (2, "")
    assert err == "error: nothing to tabulate: --max must be at least 1\n"


def test_moments_dk_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "moments", "dk", "--lambda", "2,2", "--alpha", "1/2", "--k-max", "3",
    )
    assert code == 0
    assert out.splitlines() == [
        "k,value",
        "0,4",
        "1,-2",
        "2,6",
        "3,-8",
    ]


def test_moments_s_all_methods_agree(capsys):
    code, out, _ = run_cli(
        capsys,
        "moments", "s", "--lambda", "3,1", "--alpha", "2", "--r-max", "3",
        "--method", "all", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4 * 3
    by_r = {}
    for row in rows:
        by_r.setdefault(row["r"], set()).add(row["value"])
    assert all(len(values) == 1 for values in by_r.values())
    assert by_r[0] == {"1"} and by_r[1] == {"0"} and by_r[2] == {"2"}


# sha256 of the Lagrange-route listings, pinned before the route moved to
# one h-series per shape and integer numerators.
_PINNED_LAGRANGE = {
    "s": ("9", "9e85eaf0c0facf6f057b792fad584075e0f54fc3bb8016b24f6be3ac92e4e5bc"),
    "sigma": ("8", "41a35f963978b2fdf0e70a19b2b94d193eb3ec84c67a2a0cd3aa8afe866da13f"),
}


@pytest.mark.parametrize("moment", sorted(_PINNED_LAGRANGE))
def test_moments_lagrange_listing_is_pinned(capsys, moment):
    r_max, digest = _PINNED_LAGRANGE[moment]
    code, out, _ = run_cli(
        capsys, "moments", moment, "--lambda", "4,2,1", "--alpha", "3/5",
        "--r-max", r_max, "--method", "lagrange", "--format", "json",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the listings of all three routes, pinned before each route
# became one list per (shape, alpha).
_PINNED_ALL_METHODS = {
    "s": ("9", "9d93fd47db90389f6f1c6e40682fd9022a4145c2b06e3967594b4fb7bfd92e0d"),
    "sigma": ("8", "d7eb190ee26913aa6218c95f4e9be00e62ac1db93aa7ec6d2373a93476b03d6b"),
}


@pytest.mark.parametrize("moment", sorted(_PINNED_ALL_METHODS))
def test_moments_all_methods_listing_is_pinned(capsys, moment):
    r_max, digest = _PINNED_ALL_METHODS[moment]
    code, out, _ = run_cli(
        capsys, "moments", moment, "--lambda", "4,2,1", "--alpha", "3/5",
        "--r-max", r_max, "--method", "all", "--format", "json",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Each route entry with its denominator doubled at r = 3 (s) or r = 2 (sigma): thm8.1 or thm9.1
# fails through a comparison, with these notes and first counterexample, and the listing leaves its pin.
_DOUBLED_DENOMINATOR = {
    ("s", "direct"): ("80 of 607 comparisons failed", {"la": "1", "alpha": "2", "group": "interpolation-route", "r": 3, "lhs": "1/8", "rhs": "1/4"}),
    ("s", "closed"): ("20 of 607 comparisons failed", {"la": "1", "alpha": "2", "group": "closed-route", "r": 3, "lhs": "1/4", "rhs": "1/8"}),
    ("s", "lagrange"): ("20 of 607 comparisons failed", {"la": "1", "alpha": "2", "group": "interpolation-route", "r": 3, "lhs": "1/4", "rhs": "1/8"}),
    ("sigma", "direct"): ("66 of 444 comparisons failed", {"la": "1", "alpha": "1", "group": "closed-route", "r": 2, "lhs": "1/2", "rhs": "1"}),
    ("sigma", "closed"): ("22 of 444 comparisons failed", {"la": "1", "alpha": "1", "group": "closed-route", "r": 2, "lhs": "1", "rhs": "1/2"}),
    ("sigma", "lagrange"): ("22 of 444 comparisons failed", {"la": "1", "alpha": "1", "group": "interpolation-route", "r": 2, "lhs": "1", "rhs": "1/2"}),
}


@pytest.mark.parametrize("moment,method", list(_DOUBLED_DENOMINATOR))
def test_every_route_entry_reaches_the_catalog_and_the_listing(capsys, monkeypatch, moment, method):
    routes, r, identity = (moments.S_ROUTES, 3, "thm8.1") if moment == "s" else (moments.SIGMA_ROUTES, 2, "thm9.1")
    route = routes[method]

    def doubled(la, alpha, r_max):
        nums, dens = route(la, alpha, r_max)
        return nums, [2 * d if i == r else d for i, d in enumerate(dens)]

    monkeypatch.setitem(routes, method, doubled)
    report = report_to_dict(run_identity(identity, lambda_max=3, r_max=4))
    assert (report["status"], report["notes"], report["counterexample"]) == ("failed", *_DOUBLED_DENOMINATOR[moment, method])
    r_max, digest = _PINNED_ALL_METHODS[moment]
    code, out, _ = run_cli(capsys, "moments", moment, "--lambda", "4,2,1", "--alpha", "3/5", "--r-max", r_max, "--method", "all", "--format", "json")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() != digest


_VIEW_DOMAIN = """
import sys
from ycalc import S_ROUTES, Partition, moment_values
print(sys.flags.optimize)
for alpha, r_max in ((1, -1), (0, 2)):
    try:
        moment_values(S_ROUTES["direct"], Partition((2, 1)), alpha, r_max)
    except ValueError as exc:
        print(exc)
"""


def test_moment_view_checks_its_domain_under_python_O():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ycalc.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", _VIEW_DOMAIN], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["1", "r must be nonnegative", "alpha must be positive"]


def test_moments_sigma_default_method(capsys):
    code, out, _ = run_cli(
        capsys, "moments", "sigma", "--lambda", "2,1", "--alpha", "1", "--r-max", "1"
    )
    assert code == 0
    assert out.splitlines() == ["r,value,method", "0,3,direct", "1,3,direct"]


def test_growth_dist_up(capsys):
    code, out, _ = run_cli(
        capsys, "growth", "dist", "--lambda", "2,2", "--alpha", "1",
        "--direction", "up",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["base"] == "2,2"
    assert doc["direction"] == "up"
    assert doc["atoms"] == [
        {"p": "1/2", "row": 1},
        {"p": "1/2", "row": 3},
    ]


def test_growth_dist_down_from_empty_fails(capsys):
    code, _, err = run_cli(
        capsys, "growth", "dist", "--lambda", "0", "--alpha", "1",
        "--direction", "down",
    )
    assert code == 2
    assert "no co-transition from the empty shape" in err


def test_growth_sample_moments(capsys):
    code, out, _ = run_cli(
        capsys,
        "growth", "sample", "--alpha", "1", "--steps", "1", "--paths", "100",
        "--seed", "3", "--start", "2,1", "--r-max", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["start"] == "2,1"
    assert [m["r"] for m in doc["moments"]] == [0, 1, 2]
    assert doc["moments"][0]["estimate"] == 1.0
    assert doc["moments"][2]["exact"] == "3"  # |la|/alpha


def test_growth_sample_occupancy_and_paths(capsys):
    code, out, _ = run_cli(
        capsys,
        "growth", "sample", "--alpha", "1", "--steps", "2", "--paths", "20",
        "--seed", "3", "--emit", "occupancy",
    )
    assert code == 0
    doc = json.loads(out)
    assert sum(entry["count"] for entry in doc["occupancy"]) == 20

    code, out, _ = run_cli(
        capsys,
        "growth", "sample", "--alpha", "1", "--steps", "2", "--paths", "4",
        "--seed", "3", "--emit", "paths",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("0|1|") for line in lines)


def test_growth_sample_is_reproducible(capsys):
    argv = [
        "growth", "sample", "--alpha", "1", "--steps", "2", "--paths", "64",
        "--seed", "17",
    ]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_growth_sample_paths_are_pinned(capsys):
    # The first paths of one seed, so that any change of the draw stream shows.
    code, out, _ = run_cli(
        capsys,
        "growth", "sample", "--alpha", "1/2", "--steps", "6", "--paths", "5",
        "--seed", "2026", "--start", "2,1", "--emit", "paths",
    )
    assert code == 0
    assert out.splitlines()[:3] == [
        "2,1|3,1|3,2|4,2|4,2,1|5,2,1|6,2,1",
        "2,1|3,1|3,2|3,3|4,3|4,3,1|4,3,2",
        "2,1|3,1|3,2|3,2,1|4,2,1|4,2,2|4,2,2,1",
    ]


# sha256 of `growth sample`: the 1/2 and 3/5 settings were pinned before the
# exact reference was folded into the law of the last added content, the 1
# and 7/3 settings before the walk moved onto the state graph, the 5/2
# setting before paths were drawn in lane-packed blocks.  One step from
# 4,2,1 runs no linked step; 7/3 dumps fewer paths than it walks; 5/2
# spans three full blocks and part of a fourth and stops dumping inside
# the third.  The one step from 3,2,1 was pinned before a lone shape's last
# step was counted by lanes: with --emit paths its dump stops inside the
# second block, so the first two blocks bisect per path and the last two
# are counted by lanes; its other emits count every block by lanes.
_SAMPLE_DIGESTS = {
    ("1/2", "8", "0", "31", "moments"): "e9ec57d9192a71e85784eb6d44c4c08eedc0e73359e3429f80318a27c81cd8c4",
    ("3/5", "6", "2,1", "2026", "moments"): "9f3be3262ab88b616e497de6913f70201b70327ec92618fe4b3efedd9fe2cf19",
    ("1/2", "8", "0", "31", "occupancy"): "4a2b571a85bd74210dfb3da519c4ea8ce370499d6da96585d5748e3dc84e0d42",
    ("3/5", "6", "2,1", "2026", "occupancy"): "37187ad71a2a1ee0410061b85004e2666733b41fc384335dae5ebaee874f51e8",
    ("1/2", "8", "0", "31", "paths"): "ff0449cd7e8379f0305714c223feca0da0d681cb79807bc38fee9457473f2784",
    ("3/5", "6", "2,1", "2026", "paths"): "3bf3a9024dd448ecc1ed7a8260ff1548764deb4345313fc3f4aa4a09ade026af",
    ("1", "1", "4,2,1", "5", "moments"): "1355a044921b46ca42a469ed0712057deedda7bda8fa058ddb766dc9396dcf3f",
    ("1", "1", "4,2,1", "5", "occupancy"): "19ac9eca301e12196271985bc282637a4325023f2d7d8f615462f3a7b7927c15",
    ("7/3", "12", "3,1", "77", "paths"): "8c1cf698c04bf733530cef1d3ce428bd5e3417eb98b91b84fab13cdf6fb13deb",
    ("5/2", "5", "2,2", "123", "moments"): "d182467be5472f285fbf87c9a006017f6f9dedd795359504e080dbacc96ef5cc",
    ("5/2", "5", "2,2", "123", "occupancy"): "a7aeacbc09a6d22685b2db58975ef4dde2e01550f0495606886a40101b018c81",
    ("5/2", "5", "2,2", "123", "paths"): "3f2db0ae01cab420f3ef3c85737f539276a0efb329e7b3f5689059764782145f",
    ("1/2", "20", "0", "14", "moments"): "d6263586dd39e4d027554ee26e968da50d8156c6b7d36eb9eef493442fd684b3",
    ("1/2", "20", "0", "14", "occupancy"): "447245eec4f76e520118014e4a757aa0052f443b70c58df70fb30edc8108db6b",
    ("3/5", "1", "3,2,1", "9", "moments"): "832f56f095b2b99c173c5c103d46322e29d2f32e9dfe006ffd20ff74e58771b1",
    ("3/5", "1", "3,2,1", "9", "occupancy"): "8620102cebebdfc3d4f17a41f3a161171f7e3ffea9faf1ef8f0c5dc905ba9d6d",
    ("3/5", "1", "3,2,1", "9", "paths"): "5de23559e2599fa791a8228423ab5e26393435156a419d816b5607e6c6ec0ce3",
}
# Path count and options per setting where they differ from 3,000 paths.
_SAMPLE_OPTIONS = {
    ("7/3", "12", "3,1"): ("--paths", "2000", "--dump-cap", "50"),
    ("5/2", "5", "2,2"): ("--paths", "3500", "--dump-cap", "2600"),
    ("1/2", "20", "0"): ("--paths", "1500"),
    ("3/5", "1", "3,2,1"): ("--paths", "3500", "--dump-cap", "1500"),
}


@pytest.mark.parametrize("alpha,steps,start,seed,emit", sorted(_SAMPLE_DIGESTS))
def test_growth_sample_outputs_are_pinned(capsys, alpha, steps, start, seed, emit):
    options = _SAMPLE_OPTIONS.get((alpha, steps, start), ("--paths", "3000"))
    code, out, _ = run_cli(
        capsys,
        "growth", "sample", "--alpha", alpha, "--steps", steps, *options,
        "--start", start, "--seed", seed, "--emit", emit,
    )
    assert code == 0
    digest = _SAMPLE_DIGESTS[(alpha, steps, start, seed, emit)]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_growth_sample_dump_cap_0_exits_2(capsys):
    code, out, err = run_cli(
        capsys,
        "growth", "sample", "--alpha", "1", "--steps", "1", "--paths", "2",
        "--seed", "1", "--emit", "paths", "--dump-cap", "0",
    )
    assert (code, out) == (2, "")
    assert err == "error: nothing to dump: --dump-cap must be at least 1 with --emit paths\n"


def test_experiment_chi_json(capsys):
    code, out, _ = run_cli(capsys, "experiment", "chi", "--n-max", "2", "--p-max", "1")
    assert code == 0
    rows = json.loads(out)
    assert rows
    for row in rows:
        assert row["match"] is True
        assert row["chi_fitted"] == row["chi_conjectured"]


# sha256 of `experiment chi --n-max 6 --p-max 6`, pinned when the rows with
# p >= 4 got a verdict from the product formula; the 112 rows with p <= 3
# are byte-identical to the listing before.
_CHI_DIGEST = "0552c2681e3ecfe889959565eca034bb770f6f595d3bd55d02a63ecedb02edf8"


def test_experiment_chi_listing_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "experiment", "chi", "--n-max", "6", "--p-max", "6")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _CHI_DIGEST


def test_experiment_chi_without_coefficients_exits_2(capsys):
    code, out, err = run_cli(capsys, "experiment", "chi", "--n-max", "0")
    assert (code, out) == (2, "")
    assert "--n-max must be at least 1" in err


def test_verify_chi_without_comparisons_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "chi", "--n-max", "0")
    assert code == 1
    assert out == "chi: failed (0 cases)\n  0 comparisons made\n"


def test_verify_single_identity_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "lem11.1", "--order", "5")
    assert code == 0
    assert out == "lem11.1: verified (5 cases)\n"


def test_verify_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "gn-closed", "--n-max", "4",
        "--format", "json",
    )
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["identity"] == "gn-closed"
    assert reports[0]["status"] == "verified"
    assert reports[0]["parameters"] == {"n_max": 4}


# sha256 of `verify --identity ID --alpha-set 1,2,1/2,3/5,7/3 --format json`
# at reduced bounds, computed with the Fraction implementation of f_npk, of
# the closed routes and of the Chu-Vandermonde sums.  The integer routes
# must reproduce them.
_PINNED_VERIFY = {
    "rel5.1": (
        ["--lambda-max", "4", "--order", "6"],
        "1d57dc151f9d2e3b193e7f14cde7d87ecb1ef2ab529c3b494580a3cb49346b99",
    ),
    "thm5.1": (
        ["--lambda-max", "4", "--order", "6"],
        "ed725b97c5828fb54b5101c6df55659f8c37930a1f736c89709d632ad8308122",
    ),
    "cor5.2": (
        ["--lambda-max", "4", "--order", "6"],
        "d03e3b084b30e35d1be07d92fea0fc84455a2d49fae9191919ad782ce65a8a51",
    ),
    "thm8.1": (
        ["--lambda-max", "5", "--r-max", "6"],
        "ebb2202d72ca7da1a578532b689e9da804ffb583d814f4472533efdd9ec8780f",
    ),
    "thm9.1": (
        ["--lambda-max", "5", "--r-max", "5"],
        "ada2dbccd3ec408c09da9214e7d178ee077613180335f91b5a148aaef33e1de3",
    ),
    "thm11.2": (
        ["--lambda-max", "4", "--p-max", "4"],
        "2bf11917f9b51ef61ecc54b349731db3a6bded25e3333602337acda37eb2c29f",
    ),
    "prop7.1": (
        ["--lambda-max", "6", "--k-max", "6"],
        "a5ef04550174eb3a1f521d12108293fd3a965219b5c786ad694836e4590d2a58",
    ),
    "moments-bridge": (
        ["--lambda-max", "5", "--r-max", "5"],
        "07748add9861a0c7bd710a791fb97c2c3a9a520f5be5e6949234f0d9226cac4b",
    ),
    "chu-vandermonde": (
        ["--lambda-max", "5"],
        "4ed6b89c3e958f02672dbbc7be9f140677ff6bf1f9d55a6e96e273aec20c0c95",
    ),
}


@pytest.mark.parametrize("identity", sorted(_PINNED_VERIFY))
def test_verify_json_is_pinned(capsys, identity):
    bounds, digest = _PINNED_VERIFY[identity]
    code, out, _ = run_cli(
        capsys, "verify", "--identity", identity, *bounds,
        "--alpha-set", "1,2,1/2,3/5,7/3", "--format", "json",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `verify --identity ID ... --format json` for the two-variable
# series jobs at reduced bounds, computed with the dict-keyed series type
# before the dense one replaced it.
_PINNED_SERIES_VERIFY = [
    ("thm3.1", ["--n-max", "4", "--order", "4"],
     "6e73f5861b41ded8521894cf29c9141180859928da189250cb37a72a7b0d887b"),
    ("thm3.1-alt", ["--n-max", "4", "--order", "4"],
     "862f2cb0c4d855f5db8ec650e356479a09134dec497789b7afc0eb906418372e"),
    ("ll-v0", ["--n-max", "4", "--order", "4"],
     "205bf216843de65011eb12e819570c03a1c8b9a4fbe897be9d204ac4415e4ebb"),
    ("thm3.1", ["--n-max", "4", "--order", "4", "--mode", "random", "--trials", "2"],
     "c3d146f40c347e0507391c4b12dc84e80d950a7cb2ba9f2490a10a57866f77fc"),
    ("gf2.3", ["--n-max", "6", "--order", "6", "--lambda-max", "5"],
     "898cf187070130efa17f4a9db8338e5b9c1c8650fdc9e0d8458dbc28d1ed85cc"),
    ("gn-closed", ["--n-max", "8"],
     "6a33b99d5187a954de95a206409d2789220ee790948199abbda4551c89a5151e"),
]


@pytest.mark.parametrize(
    "identity,bounds,digest",
    _PINNED_SERIES_VERIFY,
    ids=["thm3.1", "thm3.1-alt", "ll-v0", "thm3.1-random", "gf2.3", "gn-closed"],
)
def test_series_verify_json_is_pinned(capsys, identity, bounds, digest):
    code, out, _ = run_cli(capsys, "verify", "--identity", identity, *bounds, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `verify --identity ID ... --format json` for the jobs whose
# checkers form their sides in integers, pinned while the expansion family
# multiplied Fraction-coefficient XPolynomials, thm4.1 summed Fractions and
# thm5.1 built its right side term by term.  y = -1 makes c + d = 0.
_PINNED_CHECKER_VERIFY = [
    ("thm3.1", ["--n-max", "6", "--order", "6"],
     "c5dbfc8e924725e3ffce1683b3d5826ebea1d007ae125adea1f2d3d37c3cab07"),
    ("thm3.1-alt", ["--n-max", "6", "--order", "6", "--mode", "random", "--trials", "2"],
     "74603b08913f6369eda76ac05fd0acea6728ba94381e431be747db8119751805"),
    ("ll-v0", ["--n-max", "7", "--order", "7"],
     "07ed14f6a55bf994613a285dbe2434dd5bd367dc9746dfdd50300c336e2ab6a4"),
    ("thm4.1", ["--n-max", "10"],
     "f0a436431f120db1ae0a5fb0b590c09452048c04d54784d3aef96beb9389b9dc"),
    ("thm5.1", ["--lambda-max", "5", "--order", "13", "--y-set", "1,2/3,-1/2,5,-1"],
     "33a7a555a6e8b3ae130280e69940a083f7fe187958d5085b2a0d50155cee78f8"),
]


@pytest.mark.parametrize(
    "identity,bounds,digest",
    _PINNED_CHECKER_VERIFY,
    ids=["thm3.1", "thm3.1-alt-random", "ll-v0", "thm4.1", "thm5.1"],
)
def test_integer_checker_verify_json_is_pinned(capsys, identity, bounds, digest):
    code, out, _ = run_cli(capsys, "verify", "--identity", identity, *bounds, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_all_reports_a_kernel_fault_per_job(capsys, fresh_memos, monkeypatch):
    # Row 1 of the shape 2,1 gets twice its weight, so the Pieri atoms of
    # 2,1 sum to 11/8 at alpha = 1 and pieri_coefficients raises.
    row_values = moments._pieri_row_values

    def doubled(la, alpha):
        values = row_values(la, alpha)
        if la.parts == (2, 1):
            (num, den), *rest = values
            return [(2 * num, den), *rest]
        return values

    monkeypatch.setattr(moments, "_pieri_row_values", doubled)
    code, out, err = run_cli(capsys, "verify", "--all", "--format", "json")
    assert (code, err) == (1, "")
    reports = {r["identity"]: r for r in json.loads(out)}
    assert list(reports) == list(CATALOG)
    broken = ("thm8.1", "growth-normalization", "plancherel", "moments-bridge")
    for identity, report in reports.items():
        if identity in broken:
            assert report["status"] == "failed", identity
            assert report["notes"] == "InvariantError: row weights of 2,1 sum to 11/8", identity
        else:
            assert report["status"] in ("verified", "reported"), identity


def test_verify_rejects_unknown_identity(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--identity", "nope"])
    assert exc.value.code == 2


def test_verify_config_file(tmp_path, capsys):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("# comment\nn-max = 3\norder=4\n")
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "thm3.1", "--config", str(cfg),
        "--format", "json",
    )
    assert code == 0
    params = json.loads(out)[0]["parameters"]
    assert params["n_max"] == 3 and params["order"] == 4


def test_verify_config_flag_overrides_file(tmp_path, capsys):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("order=4\n")
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "lem11.1", "--config", str(cfg),
        "--order", "6", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)[0]["parameters"] == {"order": 6}


def test_verify_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("wibble=3\n")
    code, _, err = run_cli(capsys, "verify", "--identity", "lem11.1", "--config", str(cfg))
    assert code == 2
    assert "unknown key" in err


def test_verify_missing_config_file(capsys):
    code, _, err = run_cli(capsys, "verify", "--all", "--config", "/nonexistent.cfg")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "s", "--lambda", "2,1", "--alpha", "1", "--r-max", "-1"],
        ["verify", "--identity", "thm8.1", "--r-max", "-1"],
        ["verify", "--identity", "thm3.1", "--mode", "random", "--trials", "-3"],
        [
            "growth", "sample", "--alpha", "1", "--steps", "1", "--paths", "2",
            "--seed", "1", "--emit", "paths", "--dump-cap", "-1",
        ],
    ],
)
def test_negative_bounds_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be nonnegative" in capsys.readouterr().err


def test_verify_config_negative_bound(tmp_path, capsys):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("order = -1\n")
    code, _, err = run_cli(capsys, "verify", "--identity", "lem11.1", "--config", str(cfg))
    assert code == 2
    assert "order must be nonnegative" in err


@pytest.mark.parametrize(
    "line,message",
    [
        ("alpha_set = 1,x", "alpha_set: not a rational: 'x'"),
        ("alpha_set =", "alpha_set: empty sample set"),
        ("alpha_set = 1,0", "alpha_set: alpha must be positive: 0"),
        ("y-set = 1/0", "y_set: not a rational: '1/0'"),
        ("lambda_max = abc", "lambda_max: not an integer: 'abc'"),
    ],
)
def test_verify_config_malformed_value(tmp_path, capsys, line, message):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(f"order = 4\n{line}\n")
    code, out, err = run_cli(capsys, "verify", "--all", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: {cfg}:2: {message}\n"


def test_verify_zero_comparisons_fails(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "thm3.1", "--mode", "random", "--trials", "0"
    )
    assert code == 1
    assert out == "thm3.1: failed (0 cases)\n  0 comparisons made\n"


def test_bad_fraction_argument(capsys):
    with pytest.raises(SystemExit):
        main(["moments", "dk", "--lambda", "2", "--alpha", "zero"])


def test_color_gating(monkeypatch):
    class Tty(io.StringIO):
        def isatty(self):
            return True

    monkeypatch.delenv("NO_COLOR", raising=False)
    assert _use_color(Tty())
    assert not _use_color(io.StringIO())
    monkeypatch.setenv("NO_COLOR", "1")
    assert not _use_color(Tty())


@pytest.mark.parametrize("key", [key for key, read in PARAMETERS.items() if read is _bound])
def test_negative_verify_bound_is_rejected_everywhere(tmp_path, capsys, key):
    # the flag, the config line and the library keyword read one table
    identity = next(i for i in CATALOG if key in _JOBS[i][1])
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--identity", identity, "--" + key.replace("_", "-"), "-1"])
    assert exc.value.code == 2
    assert f"{key} must be nonnegative" in capsys.readouterr().err
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(f"{key} = -1\n")
    code, out, err = run_cli(capsys, "verify", "--identity", identity, "--config", str(cfg))
    assert (code, out, err) == (2, "", f"error: {cfg}:1: {key} must be nonnegative\n")
    with pytest.raises(ValueError, match=f"^{key} must be nonnegative$"):
        run_identity(identity, **{key: -1})


@pytest.mark.parametrize("value", ["0", "1,-1/2"])
def test_nonpositive_alpha_set_is_rejected_before_any_job(capsys, monkeypatch, value):
    monkeypatch.setattr(cli, "run_all", lambda *args: pytest.fail("a job ran"))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--all", "--alpha-set", value])
    assert exc.value.code == 2
    assert "alpha_set: alpha must be positive" in capsys.readouterr().err


def test_negative_y_set_is_accepted(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "chu-vandermonde", "--lambda-max", "2",
        "--alpha-set", "1", "--y-set=-1/2", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)[0]["parameters"]["y_set"] == ["-1/2"]


def test_sampler_and_verify_do_not_load_dataclasses():
    script = (
        "import contextlib, io, sys\n"
        "from ycalc.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['growth', 'sample', '--alpha', '1/2', '--steps', '3', '--paths', '10', '--seed', '1']) == 0\n"
        "    assert main(['verify', '--identity', 'lem11.1']) == 0\n"
        "print('dataclasses' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(ycalc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"
