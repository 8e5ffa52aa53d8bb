"""Command line surface: exact output shapes and exit codes."""

import io
import json

import pytest

from ycalc.cli import _use_color, main


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


def test_experiment_chi_json(capsys):
    code, out, _ = run_cli(capsys, "experiment", "chi", "--n-max", "2", "--p-max", "1")
    assert code == 0
    rows = json.loads(out)
    assert rows
    for row in rows:
        assert row["match"] is True
        assert row["chi_fitted"] == row["chi_conjectured"]


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
