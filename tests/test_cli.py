"""CLI: exit codes, output formats, determinism, SVG geometry."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import ostwave as ow
from ostwave import cli, critical, floquet_hill
from ostwave.cli import _csv_cell, emit, main
from ostwave.svg import FILL, HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, WIDTH

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

    code, out, err = run_cli(capsys, ["kc", "--symbol", "kdv", "--beta", "1"])
    assert code == 2
    assert out == ""
    assert "provide both --beta and --gamma, or --alpha" in err

    code, _, _ = run_cli(
        capsys, ["index", "--symbol", "nope", "--beta", "1", "--gamma", "1",
                 "--k", "1"]
    )
    assert code == 2

    # T_c is the fold to rounding, so tc takes no tolerance
    with pytest.raises(SystemExit) as exc:
        main(["tc", "--symbol", "whitham_st", "--alpha", "0.1", "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sweep",
    [["--k-min", "0.1", "--k-max", "2", "--nk", "5"], ["--k-min", "0.1"], ["--k-max", "2"], ["--nk", "100"]],
    ids=["all", "k-min", "k-max", "nk"],
)
def test_index_refuses_k_with_a_sweep_flag(capsys, sweep):
    # one k and a sweep contradict each other: neither is silently dropped
    code, out, err = run_cli(capsys, ["index", *KDV, "--k", "1", *sweep])
    assert code == 2
    assert out == ""
    assert "--k is exclusive with --k-min/--k-max/--nk" in err


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


@pytest.mark.parametrize("argv", [["kc"], ["symbols"], ["index", "--k", "1"]])
def test_custom_symbol_of_numbers_exits_2(capsys, argv):
    # a custom symbol's m, m1, m2 must be callables, which no --symbol spec can give
    code, out, err = run_cli(capsys, [*argv, "--symbol", "custom:m=1,m1=2,m2=3", "--beta", "1", "--gamma", "1"])
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["usage error: custom symbol requires callables m, m1, m2"]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_nan_index_at_finite_k_exits_2(capsys):
    # k^2 overflows, so c_p(k) - c_p(2k) is inf - inf
    code, out, err = run_cli(capsys, ["index", *KDV, "--k", "1e200"])
    assert code == 2
    assert out == ""
    assert "NaN" in err


OVERFLOW_CALLS = [
    ["index", *KDV, "--k", "1e77"],
    ["index", *KDV, "--k", "1e-160"],
    ["stokes", *KDV, "--k", "1e200"],
    ["spectrum", *KDV, "--k", "1e100"],
    ["spectrum", *KDV, "--k", "1e-160"],
    ["kc", "--symbol", "kdv", "--beta", "1e-300", "--gamma", "1e300"],
]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning",
                            "ignore:divide by zero:RuntimeWarning")
@pytest.mark.parametrize("argv", OVERFLOW_CALLS)
def test_overflow_at_finite_input_exits_2(capsys, argv):
    # finite inputs whose arithmetic overflows print nothing, rather than inf, NaN or a verdict read off them
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert "finite" in err or "kc=inf" in err


@pytest.mark.parametrize("argv", OVERFLOW_CALLS)
def test_overflow_refusal_is_one_stderr_line(argv):
    # main runs the subcommand with numpy's floating-point warnings off: with every warning
    # shown (-W default), the refusal is still the whole of stderr
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "ostwave.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("usage error: ")


@pytest.mark.parametrize("nt", ["4", "1000"])
def test_infinite_diagram_extent_is_one_stderr_line(tmp_path, nt):
    # an infinite T extent is refused before a T row is built, so no row appears in the message
    argv = ["diagram", "--symbol", "whitham_st", "--alpha", "0.1", "--t-max", "inf", "--nk", "4", "--nt", nt,
            "--out", str(tmp_path / "refused.csv")]
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "ostwave.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["usage error: extents must be positive and finite and resolutions >= 2"]
    assert not (tmp_path / "refused.csv").exists()


def test_alpha_exclusive_with_beta(capsys):
    code, _, _ = run_cli(
        capsys,
        ["index", "--symbol", "kdv", "--alpha", "0.5", "--beta", "1",
         "--gamma", "1", "--k", "1"],
    )
    assert code == 2


@pytest.mark.parametrize(
    "command",
    [["tc"], ["diagram", "--nk", "4", "--nt", "4", "--out", "g.csv", "--curves-out", "c.csv", "--svg", "d.svg"]],
)
@pytest.mark.parametrize(
    "model",
    [["--alpha", "0.1", "--beta", "1"], ["--alpha", "0.1", "--gamma", "1"],
     ["--beta", "1", "--gamma", "-0.1"], ["--beta", "-1", "--gamma", "0"], ["--beta", "2", "--gamma", "0.2"]],
)
def test_tc_and_diagram_resolve_model_args_as_params(capsys, monkeypatch, tmp_path, command, model):
    # tc and diagram read the model from --alpha alone: --beta/--gamma are refused, even a valid pair
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, [command[0], "--symbol", "whitham_st", *model, *command[1:]])
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:")
    assert list(tmp_path.iterdir()) == []


def test_key_error_is_not_a_usage_error(monkeypatch):
    # no input reaches a KeyError, so one is a fault of the program and propagates
    def broken(*args, **kwargs):
        raise KeyError("T")

    monkeypatch.setattr(critical, "tc_of_alpha", broken)
    with pytest.raises(KeyError):
        main(["tc", "--symbol", "whitham_st", "--alpha", "0.1"])


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


def per_cell_csv(records, fieldnames):
    """The CSV writer cell by cell: the reference the column writer must match."""
    lines = [",".join(fieldnames)]
    lines += [",".join(_csv_cell(rec.get(n)) for n in fieldnames) for rec in records]
    return "\n".join(lines) + "\n"


MIXED_TABLE = [
    {"x": 0.1, "y": np.float64(1 / 3), "flag": True, "n": 3, "s": "S", "any": 2.5, "gap": None},
    {"x": -0.0, "y": np.float64(-0.0), "flag": False, "n": -7, "s": "degenerate", "any": np.float64(0.1)},
    {"x": math.nan, "y": np.float64(math.nan), "flag": True, "n": 0, "s": "", "any": None, "gap": None},
    {"x": math.inf, "y": np.float64(-math.inf), "flag": False, "n": 10**20, "s": "a b", "any": True},
    {"x": -math.inf, "y": np.float64(5e-324), "flag": True, "n": 1, "s": "U", "any": "x"},
    {"x": 1e300 * 1e-10, "y": np.float64(1e22), "flag": False, "n": 2, "s": "S", "any": 7},
]
ONE_NONE_TABLE = [{"k": 0.5, "f": 1 / 3}, {"k": 1.5, "f": None}, {"k": 2.5, "f": -0.0}]
# doubles from random bit patterns: every exponent, subnormals, nan payloads
RANDOM_BITS_TABLE = [
    {"x": x} for x in np.random.default_rng(0).integers(0, 2**64, 4096, dtype=np.uint64).view(np.float64).tolist()
]


def as_blocks(records, fieldnames, shape):
    """A record table as emit's column blocks: one block of lists, or one block of values per row."""
    if shape == "columns":
        return [{n: [rec.get(n) for rec in records] for n in fieldnames}]
    return [{n: rec.get(n) for n in fieldnames} for rec in records]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "records,fieldnames",
    [
        (MIXED_TABLE, ["x", "y", "flag", "n", "s", "any", "gap"]),
        # one None in a float column sends that column cell by cell: it writes ""
        (ONE_NONE_TABLE, ["k", "f"]),
        (RANDOM_BITS_TABLE, ["x"]),
        ([], ["k", "T"]),
    ],
    ids=["mixed", "float-column-with-none", "random-bits", "empty"],
)
def test_emit_matches_per_cell_writer(capsys, records, fieldnames, fmt):
    # a table has every field in every row: a record's missing key is a null cell
    want = {
        "csv": per_cell_csv(records, fieldnames),
        "json": json.dumps([{n: rec.get(n) for n in fieldnames} for rec in records], indent=1) + "\n",
    }[fmt]
    for shape in ("columns", "rows"):
        emit(as_blocks(records, fieldnames, shape), fmt, None, fieldnames)
        assert capsys.readouterr().out == want, shape
    if not records:
        assert want == {"csv": "k,T\n", "json": "[]\n"}[fmt]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_spells_a_repeated_column_once_and_skips_empty_blocks(capsys, monkeypatch, fmt):
    spelled = []
    monkeypatch.setattr(cli, "_spell", lambda values, fmt, spell=cli._spell: spelled.append(values) or spell(values, fmt))
    ks = [0.5, 1.5]
    blocks = [{"k": ks, "T": 0.1}, {"k": [], "T": 0.2}, {"k": ks, "T": 0.3}, {"k": [2.5], "T": 0.4}]
    emit(blocks, fmt, None)
    records = [{"k": k, "T": T} for k, T in ((0.5, 0.1), (1.5, 0.1), (0.5, 0.3), (1.5, 0.3), (2.5, 0.4))]
    assert capsys.readouterr().out == (
        per_cell_csv(records, ["k", "T"]) if fmt == "csv" else json.dumps(records, indent=1) + "\n"
    )
    # the ks once, though an empty block (written as nothing) lies between their blocks; each T once
    assert spelled == [ks, [0.1], [0.3], [2.5], [0.4]]


def test_emit_refusals():
    with pytest.raises(ValueError, match="fieldnames required"):
        emit([], "csv")
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        emit([{"k": 1.0}], "xml")


def test_determinism_byte_identical(capsys):
    argv = ["index", *KDV, "--k-min", "0.2", "--k-max", "2.0", "--nk", "25"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_spectrum_rows_and_summary(capsys):
    # a, xi and N default to the desk scale: a = 0.01, xi = 1e-3, N = 32
    code, out, err = run_cli(capsys, ["spectrum", *KDV, "--k", "1"])
    assert code == 0
    rows = parse_csv(out)
    assert rows and set(rows[0]) == {"re", "im"}
    summary = json.loads(err)
    assert summary["max_real_in_window"] > 1e-8
    assert (summary["a"], summary["xi"], summary["N"]) == (0.01, 1e-3, 32)
    assert (floquet_hill.DESK_A, floquet_hill.DESK_XI, floquet_hill.DEFAULT_N) == (0.01, 1e-3, 32)


def test_stokes_row(capsys):
    argv = ["stokes", "--symbol", "whitham", "--beta", "1", "--gamma", "1", "--k", "0.7", "--a", "0.02"]
    code, out, _ = run_cli(capsys, [*argv, "--format", "json"])
    assert code == 0
    [row] = json.loads(out)
    wave = ow.expand(ow.make_symbol("whitham"), ow.ModelParams(1.0, 1.0), 0.7)
    assert list(row) == ["k", "beta", "gamma", "c0", "c2", "A2", "A3", "residual_norm"]
    assert repr(row["c2"]) == repr(row["A2"]) == repr(wave.A2)
    assert repr(row["residual_norm"]) == repr(ow.residual_norm(wave, 0.02))


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
    assert list(row) == ["variant", "alpha", "tc"]
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


def test_out_into_a_missing_directory_exits_1(tmp_path, capsys):
    target = tmp_path / "missing" / "row.csv"
    code, out, err = run_cli(capsys, ["index", *KDV, "--k", "1", "--out", str(target)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "No such file or directory" in err
    assert not target.parent.exists()


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


def cells_block(svg_text):
    return svg_text.split('<g id="cells">\n', 1)[1].split("\n</g>", 1)[0]


@pytest.mark.parametrize(
    "family,alpha,k_max,t_max",
    [("kdv_st", 1.0, 2.0, 0.8), ("whitham_st", 0.1, 2.0, 0.8), ("whitham_st", -0.1, 5.0, 0.4)],
    ids=["kdv_st", "whitham_st+", "whitham_st-"],
)
def test_diagram_outputs_match_per_cell_writers(tmp_path, capsys, family, alpha, k_max, t_max):
    # nk != nt, so a swapped axis changes the bytes
    nk, nt = 30, 20
    d = critical.diagram(family, alpha, k_max=k_max, t_max=t_max, nk=nk, nt=nt)
    cells = [
        {"k": float(k), "T": float(T), "k_sqrtT": float(k * math.sqrt(T)), "label": str(d.labels[j, i]),
         "f1": float(d.f1[j, i]), "f2": float(d.f2[j, i]), "delta": float(d.delta[j, i])}
        for j, T in enumerate(d.Ts)
        for i, k in enumerate(d.ks)
    ]
    grid = ["k,T,k_sqrtT,label,f1,f2,delta"] + [
        ",".join(c["label"] if n == "label" else format(c[n], ".17g") for n in c) for c in cells
    ]
    curves = ["curve,k,T,k_sqrtT"] + [
        f"{name},{format(float(k), '.17g')},{format(float(T), '.17g')},{format(float(k * math.sqrt(T)), '.17g')}"
        for name, pts in (("f1", d.f1_curve), ("f2", d.f2_curve))
        for k, T in pts
    ]
    cell_w = (WIDTH - MARGIN_L - MARGIN_R) / nk
    cell_h = (HEIGHT - MARGIN_T - MARGIN_B) / nt
    rects = []
    for j in range(nt):
        y = MARGIN_T + (nt - 1 - j) * cell_h
        for i in range(nk):
            x = MARGIN_L + i * cell_w
            fill = FILL[str(d.labels[j, i])]
            rects.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell_w:.2f}" '
                f'height="{cell_h:.2f}" fill="{fill}"/>'
            )

    args = ["diagram", "--symbol", family, "--alpha", str(alpha), "--k-max", str(k_max),
            "--t-max", str(t_max), "--nk", str(nk), "--nt", str(nt)]
    out = {name: tmp_path / name for name in ("grid.csv", "curves.csv", "grid.json", "cells.svg")}
    code, _, err = run_cli(capsys, [*args, "--out", str(out["grid.csv"]),
                                    "--curves-out", str(out["curves.csv"]), "--svg", str(out["cells.svg"])])
    assert code == 0, err
    code, _, err = run_cli(capsys, [*args, "--format", "json", "--out", str(out["grid.json"])])
    assert code == 0, err

    # compared line by line: a failing diff of one long string takes minutes to print
    assert out["grid.csv"].read_text().split("\n") == [*grid, ""]
    assert out["curves.csv"].read_text().split("\n") == [*curves, ""]
    assert out["grid.json"].read_text().split("\n") == (json.dumps(cells, indent=1) + "\n").split("\n")
    assert cells_block(out["cells.svg"].read_text()).split("\n") == rects


AWKWARD = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e300, 1 / 3]


def test_diagram_awkward_values_match_per_cell_writers(capsys, monkeypatch):
    # every T row block carries nan, +-inf, -0, subnormals and 17-digit floats in f1, f2 and delta
    nk, nt = 7, 3
    d = critical.diagram("kdv_st", 1.0, nk=nk, nt=nt)
    values = np.resize(AWKWARD, nk * nt).reshape(nt, nk)
    d = dataclasses.replace(d, f1=values, f2=-values[:, ::-1], delta=np.roll(values, 3))
    monkeypatch.setattr(critical, "diagram", lambda *args, **kwargs: d)
    cells = [
        {"k": float(k), "T": float(T), "k_sqrtT": float(k * math.sqrt(T)), "label": str(d.labels[j, i]),
         "f1": float(d.f1[j, i]), "f2": float(d.f2[j, i]), "delta": float(d.delta[j, i])}
        for j, T in enumerate(d.Ts)
        for i, k in enumerate(d.ks)
    ]
    argv = ["diagram", "--symbol", "kdv_st", "--alpha", "1", "--nk", str(nk), "--nt", str(nt)]
    spellings = {
        "csv": (per_cell_csv(cells, list(cells[0])), ",nan,", ",inf,", ",-inf,", ",-0,", ",4.9406564584124654e-324,"),
        "json": (json.dumps(cells, indent=1) + "\n", " NaN,", " Infinity,", " -Infinity,", " -0.0,", " 5e-324,"),
    }
    for fmt, (want, *awkward) in spellings.items():
        code, out, err = run_cli(capsys, [*argv, "--format", fmt])
        assert code == 0, err
        assert out.split("\n") == want.split("\n")
        assert all(text in out for text in awkward)


def test_diagram_grid_streams_in_bounded_memory(tmp_path):
    # written a T row at a time, a 200x200 grid peaks at about 0.25 MB (CSV) and 0.3 MB (JSON) of
    # Python allocations; one dict per cell built before writing peaks at 47 MB and 74 MB. 4 MB lies between.
    d = critical.diagram("whitham_st", 0.1, nk=200, nt=200)
    for fmt in ("csv", "json"):
        tracemalloc.start()
        try:
            emit(d.row_blocks(), fmt, tmp_path / f"grid.{fmt}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, f"{fmt}: {peak / 1e6:.1f} MB"


def test_diagram_negative_spot_check_exits_2(capsys, tmp_path):
    # a refused spot check or seed exits 2 before the grid, the curves or the SVG is written
    diagram = ["diagram", "--symbol", "kdv_st", "--alpha", "1", "--nk", "4", "--nt", "4"]
    files = [tmp_path / name for name in ("g.csv", "c.csv", "d.svg")]
    to_files = ["--out", str(files[0]), "--curves-out", str(files[1]), "--svg", str(files[2])]
    for argv, message in (
        ([*diagram, "--spot-check", "-2"], "spot check cell count must be >= 0"),
        ([*diagram, *to_files, "--spot-check", "-2"], "spot check cell count must be >= 0"),
        ([*diagram, *to_files, "--spot-check", "2", "--seed", "-1"], "usage error"),
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert message in err
        assert out == ""
        assert not any(path.exists() for path in files)


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
