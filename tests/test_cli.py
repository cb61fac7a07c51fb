"""CLI contract: spec parsing, subcommand outputs, determinism, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

import lqspectra as lq
from lqspectra import cli


def run_cli(*argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------------------
# measure resolution and parameter errors
# ---------------------------------------------------------------------------

def test_shipped_specs_resolve():
    spec = cli._resolve_measure("fig1_tetraeder")
    assert isinstance(spec, lq.DyadicIFS)
    assert spec.dim == 3
    assert spec.weights == (0.659, 0.28, 0.001, 0.06)
    assert isinstance(cli._resolve_measure("lebesgue_1d"), lq.Lebesgue)
    assert isinstance(cli._resolve_measure("dirac_half"), lq.Atomic)
    assert isinstance(cli._resolve_measure("cantor_third"), lq.GeneralIFS1D)


def test_unknown_measure_exits_1(tmp_path, capsys):
    code = run_cli("eigen", "--measure", "no_such_measure", "--out", str(tmp_path))
    assert code == 1
    assert "no such file" in capsys.readouterr().err


def test_invalid_weights_named_in_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "type": "dyadic_ifs", "dimension": 1,
        "maps": [{"ratio_log2": 1, "offset": [{"num": 0, "log2_den": 0}]},
                 {"ratio_log2": 1, "offset": [{"num": 1, "log2_den": 1}]}],
        "weights": [0.5, 0.6],
    }))
    code = run_cli("spectrum", "--measure", str(bad), "--out", str(tmp_path))
    assert code == 1
    err = capsys.readouterr().err
    assert "sum" in err and "1.1" in err


def test_single_map_ifs_rejected(tmp_path, capsys):
    bad = tmp_path / "one_map.json"
    bad.write_text(json.dumps({
        "type": "dyadic_ifs", "dimension": 1,
        "maps": [{"ratio_log2": 1, "offset": [{"num": 0, "log2_den": 0}]}],
        "weights": [1.0],
    }))
    code = run_cli("spectrum", "--measure", str(bad), "--out", str(tmp_path))
    assert code == 1
    assert "at least two maps" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.csv").exists()


def test_nan_mixture_coefficient_rejected(tmp_path, capsys):
    # NaN slips through "c < 0" and "|sum - 1| > tol"; it must not silently
    # drop its component and leave the other one's spectrum
    bad = tmp_path / "nan_mixture.json"
    bad.write_text(json.dumps({
        "type": "mixture",
        "components": [
            {"coefficient": "NaN", "spec": {"type": "lebesgue", "dimension": 1}},
            {"coefficient": 1.0, "spec": json.loads(
                (Path(lq.__file__).parent / "data" / "binomial_07_03.json").read_text())},
        ],
    }))
    code = run_cli("spectrum", "--measure", str(bad), "--levels", "3",
                   "--s-grid", "0:2:3", "--out", str(tmp_path))
    assert code == 1
    assert "coefficients must be finite" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.csv").exists()


def test_malformed_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json")
    code = run_cli("spectrum", "--measure", str(bad), "--out", str(tmp_path))
    assert code == 1


def test_bad_flag_exits_1(capsys):
    assert run_cli("spectrum") == 1  # --measure missing


def test_internal_assertion_exits_2(tmp_path, monkeypatch):
    def boom(args):
        raise RuntimeError("internal check tripped")
    monkeypatch.setitem(cli._build_parser.__globals__, "_cmd_eigen", boom)
    # rebuild bound functions by invoking through main with patched module attr
    monkeypatch.setattr(cli, "_cmd_eigen", boom)
    code = run_cli("eigen", "--measure", "dirac_half", "--out", str(tmp_path))
    assert code == 2


# ---------------------------------------------------------------------------
# subcommand outputs
# ---------------------------------------------------------------------------

def test_eigen_dirac_csv(tmp_path):
    assert run_cli("eigen", "--measure", "dirac_half", "--level", "0",
                   "--out", str(tmp_path)) == 0
    rows = (tmp_path / "eigen.csv").read_text().strip().splitlines()
    assert rows[0] == "n,lambda_n,sqrt_lambda"
    assert rows[1] == "1,0.25,0.5"


def test_spectrum_csv_contents(tmp_path):
    assert run_cli("spectrum", "--measure", "lebesgue_1d", "--levels", "2..3",
                   "--s-grid", "0:1:3", "--out", str(tmp_path)) == 0
    rows = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
    assert rows[0] == "level,s,beta_n"
    # lebesgue: beta = 1 - s at every level
    vals = [r.split(",") for r in rows[1:]]
    assert [v[0] for v in vals] == ["2", "2", "2", "3", "3", "3"]
    assert float(vals[1][2]) == pytest.approx(0.5, abs=1e-12)


def test_fixedpoint_csv(tmp_path):
    assert run_cli("fixedpoint", "--measure", "lebesgue_1d", "--levels", "1..4",
                   "--b", "1", "--out", str(tmp_path)) == 0
    rows = (tmp_path / "fixedpoint.csv").read_text().strip().splitlines()
    assert rows[0] == "level,b,s_nb,residual"
    for row in rows[1:]:
        level, b, root, resid = row.split(",")
        assert float(root) == pytest.approx(0.5, abs=1e-10)
        assert float(resid) < 1e-9


def test_partition_stats_and_dump(tmp_path):
    assert run_cli("partition", "--measure", "dirac_half", "--a", "1",
                   "--t", "0.1", "--dump", "--out", str(tmp_path)) == 0
    rows = (tmp_path / "partition_stats.csv").read_text().strip().splitlines()
    assert rows[0] == "t,cardinality,max_J_a,depth_max"
    assert rows[1].startswith("0.1,5,")
    dump = json.loads((tmp_path / "partition.json").read_text())
    assert len(dump) == 5
    assert {"level", "index", "mass", "J"} <= set(dump[0])


def test_entropy_summary(tmp_path):
    assert run_cli("entropy", "--measure", "lebesgue_1d", "--a", "1",
                   "--t-grid", "100,10,6", "--levels", "1..4",
                   "--out", str(tmp_path)) == 0
    rows = (tmp_path / "entropy_summary.csv").read_text().strip().splitlines()
    assert rows[0] == "a,h_a_hat,s_am_hat,r_squared,excess_over_s_am"
    a, h_hat, s_am, r2, excess = rows[1].split(",")
    assert float(s_am) == pytest.approx(0.5, abs=1e-9)
    assert float(h_hat) == pytest.approx(0.5, abs=0.1)


def test_project_csv(tmp_path):
    assert run_cli("project", "--measure", "lebesgue_1d", "--ell", "1",
                   "--n-list", "2,4,8", "--samples", "4000",
                   "--out", str(tmp_path)) == 0
    rows = (tmp_path / "projection_errors.csv").read_text().strip().splitlines()
    assert rows[0] == "n,max_J_a,bound,measured_error,stderr"
    assert len(rows) == 4


@pytest.mark.parametrize("flags, message", [
    (["--q", "inf"], "finite"),
    (["--p", "inf", "--q", "inf"], "finite"),
    (["--samples", "1"], "n_samples must be >= 2"),
    (["--samples", "0"], "n_samples must be >= 2"),
])
def test_project_rejects_bad_parameters(tmp_path, capsys, flags, message):
    # these used to exit 0 with rows of 0.0 or NaN, or end in a traceback
    code = run_cli("project", "--measure", "binomial_07_03", "--n-list", "2,4",
                   *flags, "--out", str(tmp_path))
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "projection_errors.csv").exists()


def test_eigen_sandwich(tmp_path):
    assert run_cli("eigen", "--measure", "binomial_07_03", "--level", "6",
                   "--cuts", "0.5", "--x-count", "25", "--out", str(tmp_path)) == 0
    rows = (tmp_path / "sandwich.csv").read_text().strip().splitlines()
    assert rows[0] == "x,N_full,N_split_sum,gap"
    gaps = [int(r.split(",")[3]) for r in rows[1:]]
    assert all(0 <= g <= 1 for g in gaps)


def test_order_csv(tmp_path):
    assert run_cli("order", "--measure", "lebesgue_1d", "--levels", "7..9",
                   "--window", "5,40", "--out", str(tmp_path)) == 0
    rows = (tmp_path / "order.csv").read_text().strip().splitlines()
    assert rows[0] == "level,slope,stderr,target_slope"
    last = rows[-1].split(",")
    assert float(last[1]) == pytest.approx(-2.0, abs=0.1)
    assert float(last[3]) == pytest.approx(-2.0, abs=1e-6)


def test_demo_fig1(tmp_path):
    assert run_cli("demo", "fig1", "--out", str(tmp_path)) == 0
    rows = (tmp_path / "fig1_markers.csv").read_text().strip().splitlines()
    assert rows[0] == "quantity,computed,reference,matches_figure"
    table = {r.split(",")[0]: r.split(",")[1:] for r in rows[1:]}
    assert float(table["beta_n(0)"][0]) == 2.0
    assert table["beta_n(0)"][2] == "true"
    s_rho = float(table["s_rho"][0])
    assert s_rho == pytest.approx(0.41935420744938, abs=1e-10)
    assert float(table["s_rho"][1]) == 0.425
    assert table["s_rho"][2] == "true"  # within the figure's tick resolution
    assert float(table["lebesgue_intersection m/(m+rho)"][0]) == 0.6
    curve = (tmp_path / "fig1_curve.csv").read_text().splitlines()
    assert curve[0] == "s,beta_n"
    assert len(curve) == 58


def test_unknown_demo_exits_1(tmp_path, capsys):
    assert run_cli("demo", "fig2", "--out", str(tmp_path)) == 1


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("project", "--measure", "binomial_07_03", "--ell", "1",
                       "--n-list", "2,4,8", "--samples", "3000", "--seed", "42",
                       "--out", str(out)) == 0
    assert (a / "projection_errors.csv").read_bytes() == \
        (b / "projection_errors.csv").read_bytes()
