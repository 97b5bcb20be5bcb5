"""Command-line interface: report shape, serialization, exit codes."""
import csv
import io
import json
import math
import re
import sys

import pytest
from hypothesis import given, strategies as st

from planesphere import cli
from planesphere.cli import emit_csv, emit_json, main
from planesphere.core import Geometry
from planesphere.solver import NonContractiveKernelError, QuadratureConfig


def read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def test_emit_csv_empty_round_trips_to_empty():
    assert read_csv(emit_csv([])) == []


def test_emit_csv_single_report_has_header_and_row():
    text = emit_csv([{"a": 1, "b": {"c": 2.5}}])
    lines = text.strip().splitlines()
    assert lines[0] == "a,b.c"
    assert lines[1] == "1,2.5"


def test_emit_csv_rejects_heterogeneous_rows():
    from planesphere.cli import UsageError

    with pytest.raises(UsageError):
        emit_csv([{"a": 1}, {"b": 2}])


flat_values = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    # keep the alphabet non-numeric so a string cell cannot read as a number
    st.text(st.sampled_from("xyzw_"), min_size=1, max_size=8),
)


@given(st.dictionaries(
    st.text(st.sampled_from("abcdefg"), min_size=1, max_size=4),
    flat_values, min_size=1, max_size=6,
), st.integers(min_value=1, max_value=3))
def test_csv_round_trip(report, n_rows):
    reports = [dict(report) for _ in range(n_rows)]
    back = read_csv(emit_csv(reports))
    assert len(back) == n_rows
    for orig, rec in zip(reports, back):
        for key, val in orig.items():
            if isinstance(val, str):
                assert rec[key] == val
            else:
                # 17 significant digits make the float round trip exact
                assert float(rec[key]) == pytest.approx(float(val), abs=0)


def test_emit_json_round_trips_floats_exactly():
    report = {"x": 0.1 + 0.2, "nested": {"y": -1.6930903395134222}}
    assert json.loads(emit_json(report)) == report


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_pfa_arithmetic(capsys):
    code, out, _ = run_cli(capsys, "pfa", "--R", "100", "--L", "1")
    assert code == 0
    report = json.loads(out)
    pfa = report["energy_hbar_c_over_L"]
    assert pfa == pytest.approx(-math.pi**3 * 100.0 / 720.0, rel=1e-15)
    assert report["energy_ntlo_hbar_c_over_L"] == pytest.approx(
        pfa * (1.0 - 1.6930903395134222 / 100.0), rel=1e-14
    )


def test_beta_reports_constants(capsys):
    code, out, _ = run_cli(capsys, "beta")
    assert code == 0
    report = json.loads(out)
    assert report["float"]["beta1"] == pytest.approx(-1.6930903395134222, abs=0)
    assert report["exact"]["beta1"] == {"rational": "1/3", "coeff_over_pi2": "-20"}
    assert report["table_percentages"] == [74.8, 15.0, 5.1, 5.1]


def test_energy_small_config(capsys):
    code, out, _ = run_cli(
        capsys, "energy", "--R", "10", "--L", "1", "--kernel", "wkb0",
        "--n-radial", "16", "--n-azimuthal", "64", "--n-xi", "8",
        "--threads", "1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["energy_hbar_c_over_L"] < 0.0
    assert 0.0 < report["ratio_to_pfa"] < 1.05
    assert report["kernel"] == "wkb0"


def test_energy_deterministic(capsys):
    argv = ("energy", "--R", "5", "--L", "1", "--kernel", "wkb0",
            "--n-radial", "16", "--n-azimuthal", "64", "--n-xi", "8",
            "--threads", "1")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_energy_csv_format_parses_back(capsys):
    code, out, _ = run_cli(
        capsys, "energy", "--R", "5", "--L", "1", "--kernel", "wkb0",
        "--n-radial", "16", "--n-azimuthal", "64", "--n-xi", "8",
        "--format", "csv",
    )
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["energy_hbar_c_over_L"]) < 0.0


def test_energy_joule_conversion(capsys):
    # with R, L read in units of 1 micron the energy comes out in joules
    _, out, _ = run_cli(
        capsys, "pfa", "--R", "10", "--L", "1", "--length-unit-m", "1e-6",
    )
    report = json.loads(out)
    hbar_c = 1.054571817e-34 * 2.99792458e8
    assert report["energy_joule"] == pytest.approx(
        report["energy_hbar_c_over_L"] * hbar_c / 1e-6, rel=1e-12
    )


def test_trace_terms_csv_shape(capsys):
    code, out, _ = run_cli(
        capsys, "trace-terms", "--u", "1.0,2.0", "--r-max", "3",
        "--format", "csv",
    )
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 6  # 2 u-values x r = 1..3
    for row in rows:
        assert {"u", "r", "leading_TE", "leading_TM", "ntlo_per_pol"} <= set(row)


def test_beta_fit_synthetic(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "beta-fit", "--kernel", "wkb0", "--ratios", "30,60",
        "--model", "linear",
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["samples"]) == 2
    assert report["beta_estimate"] < 0.0


def test_beta_fit_records_resolved_quadrature(capsys):
    # each sample carries the sizes it ran with (flags, else the automatic
    # choice for its R/L) and the report the worker count, so the report
    # reproduces from its own content
    code, out, _ = run_cli(
        capsys, "beta-fit", "--kernel", "wkb0", "--ratios", "30,60",
        "--model", "linear", "--n-xi", "12", "--n-radial", "20",
    )
    assert code == 0
    report = json.loads(out)
    assert report["threads"] == 1
    for sample in report["samples"]:
        auto = QuadratureConfig.auto(Geometry(R=sample["aspect_ratio"], L=1.0))
        assert sample["n_xi"] == 12
        assert sample["n_radial"] == 20
        assert sample["n_azimuthal"] == auto.n_azimuthal


PLAIN_LABEL = re.compile(r"[A-Za-z0-9_.*/+-]+")


def assert_flat_cells(text):
    rows = read_csv(text)
    assert len(rows) == 1
    for column, cell in rows[0].items():
        try:
            float(cell)
        except ValueError:
            assert PLAIN_LABEL.fullmatch(cell), (column, cell)


def test_beta_fit_csv_cells_are_numbers_or_labels(capsys):
    code, out, _ = run_cli(
        capsys, "beta-fit", "--kernel", "wkb0", "--ratios", "30,60",
        "--model", "linear", "--format", "csv",
    )
    assert code == 0
    assert_flat_cells(out)
    row = read_csv(out)[0]
    assert float(row["samples.1.aspect_ratio"]) == 60.0
    assert 0.0 < float(row["samples.0.ratio_to_pfa"]) < 1.05


def test_beta_csv_indexes_table_percentages(capsys):
    code, out, _ = run_cli(capsys, "beta", "--format", "csv")
    assert code == 0
    assert_flat_cells(out)
    row = read_csv(out)[0]
    assert [float(row[f"table_percentages.{i}"]) for i in range(4)] == [
        74.8, 15.0, 5.1, 5.1
    ]


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "beta", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["float"]["beta1"] == pytest.approx(
        -1.693, rel=1e-3
    )


def test_plot_writes_png(tmp_path, capsys):
    pytest.importorskip("matplotlib")
    target = tmp_path / "fit.csv"
    code, _, _ = run_cli(
        capsys, "beta-fit", "--kernel", "wkb0", "--ratios", "30,60",
        "--model", "linear", "--format", "csv",
        "--out", str(target), "--plot",
    )
    assert code == 0
    png = tmp_path / "fit.png"
    assert png.exists()
    assert png.read_bytes()[:4] == b"\x89PNG"


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["energy", "--kernel", "wkb0"])  # missing --R/--L
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["energy", "--R", "5", "--L", "1", "--kernel", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["beta", "--plot"],
    ["verify", "--kernel", "wkb0"],
    ["beta-fit", "--R", "5"],
    ["energy", "--R", "5", "--L", "1", "--m-max", "3"],
])
def test_flags_a_command_does_not_read_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["energy", "--R", "5", "--L", "1", "--n-radial", "0"],
    ["energy", "--R", "5", "--L", "1", "--n-azimuthal", "0"],
    ["energy", "--R", "5", "--L", "1", "--n-xi", "0"],
    ["energy", "--R", "5", "--L", "1", "--threads", "0"],
    ["energy", "--R", "5", "--L", "1", "--threads", "-3"],
    ["beta-fit", "--kernel", "wkb0", "--ratios", "30,60", "--model", "linear",
     "--n-xi", "0"],
    ["beta-fit", "--kernel", "wkb0", "--ratios", "30,60", "--model", "linear",
     "--threads", "0"],
    ["energy", "--R", "5", "--L", "1", "--kernel", "wkb0", "--plot"],
    ["pfa", "--R", "5", "--L", "1", "--plot"],
    ["energy", "--R", "5", "--L", "1", "--length-unit-m", "-1"],
    ["energy", "--R", "5", "--L", "1", "--length-unit-m", "nan"],
    ["pfa", "--R", "5", "--L", "1", "--length-unit-m", "0"],
    ["pfa", "--R", "5", "--L", "1", "--length-unit-m", "inf"],
    ["trace-terms", "--u", "1.0", "--r-max", "0"],
    ["trace-terms", "--u", "inf"],
    ["trace-terms", "--u", "1,nan"],
    ["energy", "--R", "5", "--L", "1", "--threads", "abc"],
    ["beta-fit", "--kernel", "wkb0", "--ratios", "5,5,5", "--model", "quadratic"],
    ["beta-fit", "--kernel", "wkb0", "--ratios", "30,30.0", "--model", "linear"],
    ["beta-fit", "--kernel", "wkb0", "--ratios", "5,6,-5"],
    ["beta-fit", "--kernel", "wkb0", "--ratios", "5,nan,7"],
])
def test_invalid_values_exit_2_with_empty_stdout(argv, capsys, monkeypatch):
    # zero sizes and thread counts are rejected, not replaced by the
    # automatic values; a length unit and every ratio and u must be finite
    # and positive and r_max at least 1; beta-fit needs as many distinct
    # ratios as its model has parameters; --plot without --out fails before
    # any report.  All of it is decided before any solve.
    def no_solve(*args, **kwargs):
        raise AssertionError("energy() called before the arguments were checked")

    monkeypatch.setattr(cli, "energy", no_solve)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_plot_without_matplotlib_exits_2_before_writing(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "matplotlib", None)  # import fails
    target = tmp_path / "pfa.json"
    with pytest.raises(SystemExit) as exc:
        main(["pfa", "--R", "5", "--L", "1", "--out", str(target), "--plot"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert not target.exists()


def test_domain_error_exits_1(capsys, monkeypatch):
    # a numerical failure inside a solve is reported as a JSON error object
    # on stderr with exit code 1
    def non_contractive(*args, **kwargs):
        raise NonContractiveKernelError("1 - M not positive definite")

    monkeypatch.setattr(cli, "energy", non_contractive)
    code, out, err = run_cli(
        capsys, "beta-fit", "--kernel", "wkb0", "--ratios=5,10",
        "--model", "linear",
    )
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "NonContractiveKernelError"
