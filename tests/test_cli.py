"""CLI: exit codes, output formats, determinism, SVG geometry."""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from ostwave.cli import main

KDV = ["--symbol", "kdv", "--beta", "1", "--gamma", "1"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


# -------------------------------------------------------------- exit codes


def test_index_row_values(capsys):
    code, out, _ = run_cli(capsys, ["index", *KDV, "--k", "1"])
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["delta"]) == -15.0
    assert rows[0]["class"] == "unstable"


def test_kc_closed_form_row(capsys):
    code, out, _ = run_cli(capsys, ["kc", *KDV])
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["kc"]) == pytest.approx(3.0**-0.25, rel=1e-12)
    assert row["mechanism"] == "group_velocity_extremum"
    assert row["method"] == "closed_form"


def test_kc_numeric_flag(capsys):
    code, out, _ = run_cli(capsys, ["kc", "--symbol", "ilw", "--beta", "1",
                                    "--gamma", "1"])
    assert code == 0
    row = parse_csv(out)[0]
    assert row["method"] == "bisection"
    assert float(row["kc"]) == pytest.approx(0.9956913201370606, abs=1e-9)


def test_domain_error_exits_1(capsys):
    code, out, err = run_cli(
        capsys, ["kc", "--symbol", "kdv_st:T=0.333333", "--beta", "1", "--gamma", "1"]
    )
    assert code == 1
    assert out == ""
    assert "inconclusive" in err


def test_no_root_exits_1(capsys):
    # kc = (gamma/3)^(1/4), about 240, lies outside the scanned (0.01, 100)
    code, _, err = run_cli(
        capsys, ["kc", "--symbol", "kdv", "--beta", "1", "--gamma", "1e10", "--numeric"]
    )
    assert code == 1
    assert "no critical wavenumber" in err


def test_singular_hill_solve_exits_1_without_traceback():
    # beta = -4, k = 1, xi = 1/2 puts an exact zero on the diagonal of the Hill matrix
    proc = subprocess.run(
        [sys.executable, "-m", "ostwave.cli", "spectrum", "--symbol", "kdv", "--beta", "-4",
         "--gamma", "1", "--k", "1", "--a", "0", "--xi", "0.5", "--N", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "error: eigenvalue solve failed" in proc.stderr


def test_usage_errors_exit_2(capsys):
    code, _, err = run_cli(
        capsys, ["spectrum", *KDV, "--k", "1", "--a", "0.01", "--xi", "0"]
    )
    assert code == 2
    assert "xi" in err

    code, _, _ = run_cli(capsys, ["index", *KDV])  # no --k and no sweep
    assert code == 2

    code, _, _ = run_cli(
        capsys, ["index", "--symbol", "nope", "--beta", "1", "--gamma", "1",
                 "--k", "1"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["index", "--symbol", "kdv", "--beta", "nan", "--gamma", "1", "--k", "1"],
        ["index", "--symbol", "kdv", "--beta", "inf", "--gamma", "1", "--k", "1"],
        ["index", "--symbol", "kdv", "--beta", "1", "--gamma", "inf", "--k", "1"],
        ["index", *KDV, "--k", "nan"],
        ["index", *KDV, "--k-min", "nan", "--k-max", "2", "--nk", "3"],
        ["tc", "--symbol", "whitham_st", "--alpha", "nan"],
        ["spectrum", *KDV, "--k", "1", "--a", "nan"],
        ["stokes", *KDV, "--k", "1", "--a", "nan"],
        ["kc", "--symbol", "kdv_st:T=nan", "--beta", "1", "--gamma", "1"],
        ["kc", "--symbol", "kdv_st:T=inf", "--beta", "1", "--gamma", "1"],
        ["kc", "--symbol", "fkdv:delta=inf", "--beta", "1", "--gamma", "1"],
    ],
)
def test_non_finite_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize(
    "spec,message",
    [("kdv:T=0.5", "takes no parameters"), ("whitham:delta=3", "takes no parameters"),
     ("fkdv:delta=1.5,T=2", "takes delta, not T"), ("kdv_st:T=0.2,T=0.5", "repeated")],
)
def test_symbol_parameter_the_family_does_not_take_exits_2(capsys, spec, message):
    code, out, err = run_cli(capsys, ["kc", "--symbol", spec, "--beta", "1", "--gamma", "1"])
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_nan_index_at_finite_k_exits_2(capsys):
    # k^2 overflows, so c_p(k) - c_p(2k) is inf - inf
    code, out, err = run_cli(capsys, ["index", *KDV, "--k", "1e200"])
    assert code == 2
    assert out == ""
    assert "NaN" in err


def test_alpha_exclusive_with_beta(capsys):
    code, _, _ = run_cli(
        capsys,
        ["index", "--symbol", "kdv", "--alpha", "0.5", "--beta", "1",
         "--gamma", "1", "--k", "1"],
    )
    assert code == 2


@pytest.mark.parametrize("command", [["tc"], ["diagram", "--nk", "4", "--nt", "4"]])
@pytest.mark.parametrize(
    "model",
    [["--alpha", "0.1", "--beta", "1"], ["--alpha", "0.1", "--gamma", "1"],
     ["--beta", "1", "--gamma", "-0.1"], ["--beta", "-1", "--gamma", "0"]],
)
def test_tc_and_diagram_resolve_model_args_as_params(capsys, command, model):
    code, out, err = run_cli(capsys, [command[0], "--symbol", "whitham_st", *model, *command[1:]])
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:")


def test_alpha_mode_sets_sign_and_magnitude(capsys):
    code, out, _ = run_cli(
        capsys, ["kc", "--symbol", "kdv", "--alpha", "-0.5"]
    )
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["beta"]) == -1.0
    assert float(row["gamma"]) == 0.5


# ------------------------------------------------------------------ formats


def test_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, ["index", *KDV, "--k", "1",
                                    "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["delta"] == -15.0
    assert rows[0]["f1"] == 3.75
    assert rows[0]["class"] == "unstable"


def test_index_sweep_row_count(capsys):
    code, out, _ = run_cli(
        capsys,
        ["index", *KDV, "--k-min", "0.2", "--k-max", "2.0", "--nk", "10"],
    )
    assert code == 0
    assert len(parse_csv(out)) == 10


@pytest.mark.parametrize(
    "fmt,want", [("csv", "k,f1,f2,delta,ratio,class\n"), ("json", "[]\n")], ids=["csv", "json"]
)
def test_index_empty_sweep_is_header_only(capsys, fmt, want):
    code, out, err = run_cli(
        capsys,
        ["index", *KDV, "--k-min", "0.2", "--k-max", "2.0", "--nk", "0", "--format", fmt],
    )
    assert code == 0, err
    assert out == want


def test_determinism_byte_identical(capsys):
    argv = ["index", *KDV, "--k-min", "0.2", "--k-max", "2.0", "--nk", "25"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_spectrum_rows_and_summary(capsys):
    code, out, err = run_cli(
        capsys,
        ["spectrum", *KDV, "--k", "1", "--a", "0.01", "--xi", "0.001"],
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows and set(rows[0]) == {"re", "im"}
    summary = json.loads(err)
    assert summary["max_real_in_window"] > 1e-8
    assert summary["N"] == 32


def test_symbols_report(capsys):
    code, out, _ = run_cli(capsys, ["symbols", "--symbol",
                                    "whitham_st:T=0.2", "--beta", "1",
                                    "--gamma", "1"])
    assert code == 0
    row = parse_csv(out)[0]
    assert row["name"] == "whitham_st"
    assert row["h3"] == "false"


def test_tc_row(capsys):
    code, out, _ = run_cli(
        capsys, ["tc", "--symbol", "whitham_st", "--alpha", "0.1"]
    )
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["tc"]) == pytest.approx(0.132, abs=5e-3)


def test_tc_without_threshold_exits_1(capsys):
    # at alpha = 1 the owner's pair exists at no T in [0.01, 0.9]
    code, out, err = run_cli(capsys, ["tc", "--symbol", "whitham_st", "--alpha", "1"])
    assert code == 1
    assert out == ""
    assert "does not straddle" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["tc", "--symbol", "whitham_st", "--alpha", "0.1", "--T", "0.7"],
        ["tc", "--symbol", "whitham_st", "--alpha", "0.1", "--delta", "9"],
        ["diagram", "--symbol", "kdv_st", "--alpha", "1", "--T", "0.2", "--nk", "4", "--nt", "4"],
    ],
)
def test_tc_and_diagram_refuse_model_overrides(capsys, argv):
    # both sweep T over their own range, so --T and --delta would be ignored
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


_VALID = {
    "symbols": ["symbols", "--symbol", "kdv"],
    "stokes": ["stokes", *KDV, "--k", "1"],
    "index": ["index", *KDV, "--k", "1"],
    "kc": ["kc", *KDV],
    "spectrum": ["spectrum", *KDV, "--k", "1"],
    "diagram": ["diagram", "--symbol", "kdv_st", "--alpha", "1", "--nk", "4", "--nt", "4", "--spot-check", "1"],
}


@pytest.mark.parametrize(
    "command,flag",
    [(command, flag) for command in _VALID for flag in ("--T", "--delta")]
    + [("symbols", "--kmax"), ("symbols", "--n-samples"), ("stokes", "--n-modes"), ("kc", "--n-probe")]
    + [("diagram", "--a"), ("diagram", "--xi"), ("diagram", "--N"), ("kc", "--k-min"), ("kc", "--k-max"),
       ("spectrum", "--window"), ("stokes", "--profile-samples")],
)
def test_removed_flags_exit_2(capsys, command, flag):
    # tension and fractional order ride in the symbol spec; the scan sizes, the
    # kc range, the spectrum window and the spot-check scale are fixed
    with pytest.raises(SystemExit) as exc:
        main([*_VALID[command], flag, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["index", "--symbol", "kdv", "--bet", "1", "--gam", "1", "--k", "1"],
        ["diagram", "--symbol", "kdv_st", "--alpha", "1", "--nk", "4", "--nt", "4", "--spot-check", "1",
         "--a", "0.02"],
    ],
)
def test_abbreviated_flags_exit_2(capsys, argv):
    # a prefix would parse as the flag it starts: --a as --alpha
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["tc", "--symbol", "whitham_st:T=0.7", "--alpha", "0.1"],
        ["diagram", "--symbol", "kdv_st:T=0.5", "--alpha", "1", "--nk", "4", "--nt", "4"],
    ],
)
def test_tc_and_diagram_refuse_spec_parameters(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert repr(argv[2]) in err


# -------------------------------------------------------------------- files


def test_out_file_and_env_dir(tmp_path, monkeypatch, capsys):
    # a relative --out lands in the working directory
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, ["index", *KDV, "--k", "1", "--out", "row.csv"]
    )
    assert code == 0
    target = tmp_path / "row.csv"
    assert target.exists()
    assert parse_csv(target.read_text())[0]["class"] == "unstable"


def test_absolute_out_ignores_env_dir(tmp_path, monkeypatch, capsys):
    (tmp_path / "unused").mkdir()
    monkeypatch.chdir(tmp_path / "unused")
    target = tmp_path / "abs.json"
    code, _, _ = run_cli(
        capsys,
        ["index", *KDV, "--k", "1", "--format", "json", "--out", str(target)],
    )
    assert code == 0
    assert json.loads(target.read_text())[0]["delta"] == -15.0
    assert not any((tmp_path / "unused").iterdir())


def test_diagram_outputs(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    curves = tmp_path / "curves.csv"
    svg = tmp_path / "diagram.svg"
    code, _, err = run_cli(
        capsys,
        [
            "diagram", "--symbol", "kdv_st", "--alpha", "1",
            "--k-max", "2", "--t-max", "0.8", "--nk", "25", "--nt", "25",
            "--out", str(grid), "--curves-out", str(curves),
            "--svg", str(svg), "--spot-check", "4", "--seed", "3",
        ],
    )
    assert code == 0
    rows = parse_csv(grid.read_text())
    assert len(rows) == 625
    assert set(rows[0]) == {"k", "T", "k_sqrtT", "label", "f1", "f2", "delta"}
    crows = parse_csv(curves.read_text())
    assert crows and set(crows[0]) == {"curve", "k", "T", "k_sqrtT"}

    summary = json.loads(err)
    assert summary["region_counts"] == {"S": 1, "U": 2}
    check = summary["spot_check"]
    assert check["n"] == 4 and check["ok"] == 4
    assert all(c["ok"] for c in check["cells"])

    # the SVG is self-contained, parseable, one rect per cell plus curves
    root = ET.fromstring(svg.read_text())
    ns = {"s": "http://www.w3.org/2000/svg"}
    cells = root.find(".//s:g[@id='cells']", ns)
    assert len(cells.findall("s:rect", ns)) == 625
    curves_g = root.find(".//s:g[@id='curves']", ns)
    assert len(curves_g.findall("s:polyline", ns)) >= 2


def test_diagram_negative_spot_check_exits_2(capsys):
    code, _, err = run_cli(
        capsys,
        ["diagram", "--symbol", "kdv_st", "--alpha", "1", "--nk", "4", "--nt", "4",
         "--spot-check", "-2"],
    )
    assert code == 2
    assert "spot check cell count must be >= 0" in err


def test_installed_entry_point_smoke():
    exe = shutil.which("ostwave")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run(
        [exe, "index", *KDV, "--k", "1"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "unstable" in proc.stdout


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "ostwave.cli", "kc", *KDV],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "group_velocity_extremum" in proc.stdout
