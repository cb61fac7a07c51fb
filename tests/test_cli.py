"""CLI contract: spec parsing, subcommand outputs, determinism, exit codes."""

import contextlib
import copy
import functools
import io
import json
import math
import operator
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqspectra as lq
from lqspectra import cli, kreinfeller


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
            {"coefficient": math.nan, "spec": {"type": "lebesgue", "dimension": 1}},
            {"coefficient": 1.0, "spec": json.loads(
                (Path(lq.__file__).parent / "data" / "binomial_07_03.json").read_text())},
        ],
    }))
    code = run_cli("spectrum", "--measure", str(bad), "--levels", "3",
                   "--s-grid", "0:2:3", "--out", str(tmp_path))
    assert code == 1
    assert "coefficients must be finite" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (["fixedpoint", "--levels", "4..6", "--b", "nan"], "b must be finite"),
    (["fixedpoint", "--levels", "4..6", "--b", "inf"], "b must be finite"),
    (["spectrum", "--levels", "4..6", "--s-grid", "0:nan:3"], "finite values"),
    (["spectrum", "--levels", "4..6", "--s-grid", "0:inf:3"], "finite values"),
    (["partition", "--a", "nan", "--t", "1e-3"], "a must be finite"),
    (["partition", "--a", "inf", "--t", "1e-3"], "a must be finite"),
    (["partition", "--a", "1", "--t", "nan"], "t must be finite"),
    (["partition", "--a", "1", "--t", "inf"], "t must be finite"),
    (["partition", "--a", "1", "--t-grid", "1e-3,nan,3"], "finite factor"),
    (["partition", "--a", "1", "--t-grid", "nan,2,3"], "finite start"),
    (["entropy", "--a", "nan"], "a must be finite"),
    (["entropy", "--t-grid", "100,inf,7"], "finite factor"),
    (["entropy", "--t-grid", "1e300,1e10,7"], "overflows"),
    (["eigen", "--level", "6", "--cuts", "nan"], "cuts must be"),
    (["eigen", "--level", "6", "--cuts", "0.5,inf"], "cuts must be"),
    # beta_n was written as nan: s * max log2 mass overflowed to -inf
    (["spectrum", "--levels", "5", "--s-grid", "0:1e308:3"],
     "s = 1e+308 times the level's largest log2 mass"),
])
def test_non_finite_parameters_exit_1_without_csv(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert run_cli(*argv, "--measure", "binomial_07_03", "--out", str(out)) == 1
    assert message in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_entropy_a_times_m_beyond_the_float_range_names_a(tmp_path, capsys):
    # a * m overflowed to inf, and the error named b, which entropy does not take
    assert run_cli("entropy", "--measure", "fig1_tetraeder", "--a", "1e308", "--levels", "2..4",
                   "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err == ("error: --a 1e+308 times the dimension m = 3 "
                                       "overflows to inf; lower --a\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    # these exited 2 with "assertion failed", or 0 with a header-only CSV
    (["partition", "--a", "1", "--t", "1e-6", "--max-depth", "3"], "--max-depth (now 3)"),
    (["partition", "--a", "1", "--t-grid", "1e-2,10,3", "--max-depth", "3"], "--max-depth (now 3)"),
    (["entropy", "--max-depth", "3"], "--max-depth (now 3)"),
    (["partition", "--a", "1", "--t", "1e-3", "--max-depth", "-1"],
     "argument --max-depth: max_depth must be >= 0"),
    (["spectrum", "--levels", "5..3"], "'5..3' is empty"),
    (["fixedpoint", "--levels", ","], "',' is empty"),
    (["project", "--n-list", "9..2"], "'9..2' is empty"),
    # these exited 0 with header-only CSVs, or named the wrong bound
    (["fixedpoint", "--b", ","], "',' is empty"),
    (["entropy", "--a", ","], "',' is empty"),
    (["fixedpoint", "--levels", "0..2"], "list of integers >= 1"),
    # flags a subcommand does not read are not accepted
    (["spectrum", "--seed", "5"], "unrecognized arguments: --seed 5"),
    (["order", "--max-depth", "3"], "unrecognized arguments: --max-depth 3"),
    # these named no flag
    (["order", "--window", "5"], "--window is written lo,hi (got '5')"),
    (["eigen", "--cuts", "0.5", "--x-count", "0"], "argument --x-count: x_count must be >= 1"),
    # list and grid flags are parsed by their argparse type, which names the flag
    (["spectrum", "--s-grid", "0:2:-1"], "argument --s-grid: s grid '0:2:-1'"),
    (["spectrum", "--levels", "3..a"], "argument --levels: invalid literal for int()"),
    (["partition", "--a", "1", "--t-grid", "1e-3,10,2.5"], "argument --t-grid: invalid literal"),
    (["order", "--window", "5,a"], "argument --window: invalid literal for int()"),
    (["project", "--n-list", "0,4"], "argument --n-list: '0,4' is not a list of integers >= 1"),
    (["fixedpoint", "--b", "1,x"], "argument --b: could not convert string to float"),
    # one rule for --levels in every subcommand (spectrum wrote level 1 twice)
    (["spectrum", "--levels", "1,1"], "argument --levels: levels must be a nonempty strictly"),
    (["fixedpoint", "--levels", "1,1"], "argument --levels: levels must be a nonempty strictly"),
    (["order", "--levels", "0..2"], "argument --levels: '0..2' is not a list of integers >= 1"),
    # a window from 0 or below reached LAPACK, which printed to stderr
    (["order", "--levels", "6..8", "--window", "0,50"], "argument --window: lo must be >= 1"),
    (["order", "--levels", "6..8", "--window=-5,50"], "argument --window: lo must be >= 1"),
])
def test_depth_limits_and_empty_lists_exit_1_without_csv(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert run_cli(*argv, "--measure", "binomial_07_03", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert message in err and "assertion failed" not in err
    assert not out.exists() or not any(out.iterdir())


def test_malformed_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json")
    code = run_cli("spectrum", "--measure", str(bad), "--out", str(tmp_path))
    assert code == 1


@pytest.mark.parametrize("doc, message", [
    ({"type": "atomic", "atoms": [{"point": [{"num": 1, "den": 0}], "weight": 1.0}]},
     "ZeroDivisionError"),
    ({"type": "atomic", "atoms": [{"point": [math.inf], "weight": 1.0}]}, "OverflowError"),
    # zero-dimensional specs: a density would give beta_n = 0.0 rows, an atom
    # a numpy error
    ({"type": "dyadic_density", "depth": 3, "values": 1.0}, "at least one axis"),
    ({"type": "atomic", "atoms": [{"point": [], "weight": 1.0}]}, "at least one coordinate"),
    # integer fields take JSON integers and number fields JSON numbers: no
    # truncation, no coercion of booleans or strings
    ({"type": "lebesgue", "dimension": 2.9}, "dimension must be an integer"),
    ({"type": "lebesgue", "dimension": True}, "dimension must be an integer"),
    ({"type": "lebesgue", "dimension": "2"}, "dimension must be an integer"),
    ({"type": "atomic", "atoms": [{"point": [{"num": 1.9, "den": 2}], "weight": 1.0}]},
     "num must be an integer"),
    ({"type": "atomic", "atoms": [{"point": [0.5], "weight": "1"}]}, "weight must be a number"),
    ({"type": "mixture", "components": [
        {"coefficient": True, "spec": {"type": "lebesgue", "dimension": 1}}]},
     "coefficient must be a number"),
    ({"type": "dyadic_density", "depth": 1, "values": [["2.0", True], [1.0, 0.0]]},
     "values must be a number"),
    ({"type": "dyadic_density", "depth": 1, "values": [[2.0, 1.0], [1.0]]},
     "values must be a number, not [2.0, 1.0]"),
    ({"type": "dyadic_density", "depth": 1.0, "values": [1.0, 1.0]}, "depth must be an integer"),
    ({"type": "dyadic_ifs", "dimension": 1, "weights": [0.5, 0.5],
      "maps": [{"ratio_log2": 1.0, "offset": [0]}, {"ratio_log2": 1, "offset": [0.5]}]},
     "ratio_log2 must be an integer"),
    ({"type": "atomic", "atoms": [{"point": [{"num": 1, "den": 2.0}], "weight": 1.0}]},
     "point den must be an integer"),
    ({"type": "atomic", "atoms": [{"point": [{"num": 1, "log2_den": True}], "weight": 1.0}]},
     "point log2_den must be an integer"),
    ({"type": "atomic", "atoms": [{"point": [True], "weight": 1.0}]}, "point must be a number"),
    ({"type": "ifs_1d", "maps": [{"ratio": "1/3", "offset": 0}], "weights": [1.0]},
     "ratio must be a number"),
    ({"type": "ifs_1d", "maps": [{"ratio": 0.25, "offset": 0}, {"ratio": 0.25, "offset": 0.75}],
      "weights": [0.5, 0.5], "mass_tol": "1e-12"}, "mass_tol must be a number"),
    # sizes that a few bytes would otherwise demand
    ({"type": "atomic", "atoms": [{"point": [{"num": 1, "log2_den": 10 ** 12}], "weight": 1.0}]},
     "log2_den must lie in [0, 1074]"),
    ({"type": "dyadic_ifs", "dimension": 1, "weights": [0.5, 0.5],
      "maps": [{"ratio_log2": 10 ** 12, "offset": [0]}, {"ratio_log2": 1, "offset": [0.5]}]},
     "ratio exponent must be <= 62"),
    ({"type": "dyadic_density", "depth": 10 ** 12, "values": [1.0]}, "depth must be <= 62"),
    ({"type": "lebesgue", "dimension": 10 ** 12}, "dimension must be <= 8"),
    # a cut mass_tol / 4 of 0.0 never ends a chain that stays in the support
    ({"type": "ifs_1d", "maps": [{"ratio": 0.25, "offset": 0}, {"ratio": 0.25, "offset": 0.75}],
      "weights": [0.5, 0.5], "mass_tol": 5e-324}, "mass_tol must lie in [1e-300, 1e-3]"),
])
def test_bad_spec_documents_exit_1_without_csv(tmp_path, capsys, doc, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = run_cli("spectrum", "--measure", str(bad), "--levels", "1..2",
                   "--s-grid", "0:1:3", "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (out / "spectrum.csv").exists()


# one small valid document per family and a mixture; the fuzz below breaks
# one position of one of them
FUZZ_DOCS = [
    {"type": "lebesgue", "dimension": 1},
    {"type": "dyadic_ifs", "dimension": 1,
     "maps": [{"ratio_log2": 1, "offset": [0]},
              {"ratio_log2": 2, "offset": [{"num": 3, "log2_den": 2}]}],
     "weights": [0.75, 0.25]},
    {"type": "ifs_1d", "maps": [{"ratio": {"num": 1, "den": 3}, "offset": 0},
                                {"ratio": {"num": 1, "den": 3}, "offset": {"num": 2, "den": 3}}],
     "weights": [0.5, 0.5], "mass_tol": 1e-12},
    {"type": "atomic", "atoms": [{"point": [0.25, {"num": 1, "den": 3}], "weight": 0.5},
                                 {"point": [0.75, 0.5], "weight": 0.5}]},
    {"type": "dyadic_density", "depth": 1, "values": [[0.5, 1.5], [2.0, 0.0]]},
    {"type": "mixture", "components": [
        {"coefficient": 0.25, "spec": {"type": "lebesgue", "dimension": 1}},
        {"coefficient": 0.75, "spec": {"type": "atomic",
                                       "atoms": [{"point": [0.5], "weight": 1.0}]}}]},
]
# non-integral and string numbers, integers past every size bound (each
# exponent and dimension is bounded before anything is shifted or built) and
# the smallest float (a mass_tol whose quarter is 0.0)
BAD_VALUES = [0, -1, None, "x", [], {}, math.nan, math.inf, {"num": 1, "den": 0}, True,
              2.5, "2", 10 ** 12, 5e-324]


def _positions(node, path=()):
    """Key paths of every value below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _positions(value, path + (key,))


@st.composite
def broken_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_DOCS)))
    *head, last = draw(st.sampled_from(list(_positions(doc))))
    parent = functools.reduce(operator.getitem, head, doc)
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[last]
    else:
        parent[last] = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)
                                          | st.integers(1 << 62, 1 << 200)))
    return doc


@settings(max_examples=60)
@given(broken_documents())
def test_broken_spec_documents_exit_0_or_1_with_a_message(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["spectrum", "--measure", str(path), "--levels", "1..3",
                             "--out", tmp])
        assert code in (0, 1)
        if code == 1:
            assert err.getvalue().startswith("error:")
            assert not (Path(tmp) / "spectrum.csv").exists()


# each subcommand at a desk size, and the numeric flags it reads
FUZZ_COMMANDS = {
    "spectrum": (["--levels", "1..3", "--s-grid", "0:2:5"], ["--levels", "--s-grid"]),
    "fixedpoint": (["--levels", "1..4", "--b", "1"], ["--levels", "--b"]),
    "partition": (["--a", "1", "--t", "1e-2", "--max-depth", "20"],
                  ["--a", "--t", "--t-grid", "--max-depth"]),
    "entropy": (["--a", "1", "--t-grid", "10,2,4", "--levels", "1..4", "--max-depth", "20"],
                ["--a", "--t-grid", "--levels", "--max-depth"]),
    "project": (["--n-list", "2,4", "--samples", "1000", "--max-depth", "20"],
                ["--seed", "--ell", "--p", "--q", "--n-list", "--samples", "--max-depth"]),
    "eigen": (["--level", "4", "--cuts", "0.5", "--x-count", "10"],
              ["--level", "--cuts", "--x-count"]),
    "order": (["--levels", "5..6", "--window", "2,12"], ["--levels", "--window"]),
}
# no token is a count that allocates or a level above 8
FLAG_TOKENS = ["nan", "inf", "-inf", "-1", "0", "1", "2.5", "8", "", " ", "x", "1e999",
               "5..3", "3..5", "..", ",", "1,1", "2,1", "0,1", "0.25,0.75", "1e-3,nan,3",
               "10,2,3", "0:nan:3", "0:2:3", "2:0:3", "0:1:1", "-1:1:3"]


@st.composite
def fuzzed_flags(draw):
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    base, flags = FUZZ_COMMANDS[command]
    flag = draw(st.sampled_from(flags))
    if flag == "--t-grid" and "--t" in base:  # the two exclude each other
        at = base.index("--t")
        base = base[:at] + base[at + 2:]
    return [command, *base, f"{flag}={draw(st.sampled_from(FLAG_TOKENS))}"]


@settings(max_examples=100)
@given(fuzzed_flags())
def test_fuzzed_flags_exit_0_or_1_with_a_message(argv):
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--measure", "binomial_07_03", "--out", tmp])
        assert code in (0, 1), err.getvalue()
        if code == 1:
            assert err.getvalue().startswith("error:")
            assert not list(Path(tmp).glob("*.csv"))


def test_bad_flag_exits_1(capsys):
    assert run_cli("spectrum") == 1  # --measure missing


@pytest.mark.parametrize("argv, message", [
    # partition read --t and dropped --t-grid without a word
    (["partition", "--measure", "binomial_07_03", "--a", "1", "--t", "1e-3",
      "--t-grid", "1e-2,10,3"], "argument --t-grid: not allowed with argument --t"),
    (["partition", "--measure", "binomial_07_03", "--a", "1"],
     "one of the arguments --t --t-grid is required"),
    (["project", "--measure", "binomial_07_03", "--function", "nope"],
     "argument --function: invalid choice: 'nope'"),
    (["demo", "fig2"], "argument name: invalid choice: 'fig2'"),
])
def test_flag_rules_of_the_parser_exit_1_without_csv(tmp_path, capsys, argv, message):
    assert run_cli(*argv, "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--measure", "binomial_07_03", "--levels", "3,27"],
     "out of memory at levels up to 27 or in the 9-point s grid; lower --levels or --s-grid"),
    (["fixedpoint", "--measure", "fig1_tetraeder", "--levels", "2..9"],
     "out of memory at levels up to 9; lower --levels"),
    (["order", "--measure", "binomial_07_03", "--levels", "8..11"],
     "out of memory at levels up to 11; lower --levels"),
    # the largest t sets the least threshold 1/t of the entropy walk
    (["entropy", "--measure", "fig1_tetraeder", "--levels", "2..8"],
     "out of memory at levels up to 8 or in a walk to threshold 1/t for the largest "
     "t = 100000000.0 of --t-grid; lower --levels or --t-grid"),
    (["eigen", "--measure", "binomial_07_03", "--level", "30"],
     "out of memory at level 30; lower --level"),
    # the threshold sizes the walk (the message blamed --max-depth)
    (["partition", "--measure", "binomial_07_03", "--a", "1", "--t", "1e-9"],
     "out of memory in a walk that may reach cubes of J_a down to t = 1e-09; raise --t"),
    # an atomic measure needs no engine: the x grid of the sandwich is what fails
    (["eigen", "--measure", "dirac_half", "--level", "6", "--cuts", "0.25",
      "--x-count", "10000000000"],
     "out of memory at level 6 or in the 10000000000-point x grid; lower --level or --x-count"),
    # the Monte Carlo sample fails before any walk (the message blamed --max-depth)
    (["project", "--measure", "binomial_07_03", "--n-list", "2", "--samples", "1000000000"],
     "out of memory in the 1000000000-point sample, in a walk to the largest budget 2 of "
     "--n-list or in the 5^m Gauss nodes per cube of --ell 1; lower --samples, --n-list "
     "or --ell"),
    (["partition", "--measure", "binomial_07_03", "--a", "1", "--t-grid", "1e-9,10,3"],
     "out of memory in a walk that may reach cubes of J_a down to t = 1e-09; "
     "raise the start of --t-grid"),
    (["project", "--measure", "fig1_tetraeder", "--ell", "1000", "--n-list", "2,64",
      "--samples", "1000"],
     "out of memory in the 1000-point sample, in a walk to the largest budget 64 of "
     "--n-list or in the 1004^m Gauss nodes per cube of --ell 1000; lower --samples, "
     "--n-list or --ell"),
])
def test_out_of_memory_exits_1_with_the_level(tmp_path, capsys, monkeypatch, argv, message):
    # the engine raises as numpy does when a level's arrays do not fit
    def no_memory(*args):
        raise MemoryError("Unable to allocate 2.00 GiB for an array")
    monkeypatch.setattr(lq.measures, "_engine", no_memory)
    monkeypatch.setattr(lq.partition, "_engine", no_memory)
    monkeypatch.setattr(lq.polyapprox, "sample_measure", no_memory)
    monkeypatch.setattr(np, "geomspace", no_memory)
    assert run_cli(*argv, "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["spectrum", "--measure", "lebesgue_1d", "--levels", "1..2", "--s-grid", "0:2:10000000000"],
    ["entropy", "--measure", "lebesgue_1d", "--levels", "1..2",
     "--t-grid", "10,1.000001,10000000000"],
])
def test_out_of_memory_while_reading_the_flags_exits_1(tmp_path, capsys, monkeypatch, argv):
    # a grid flag's type builds the grid: a count too large for memory ended
    # in a traceback from inside argparse
    def no_memory(*args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")
    monkeypatch.setattr(np, "linspace", no_memory)
    monkeypatch.setattr(np, "arange", no_memory)
    assert run_cli(*argv, "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err == ("error: out of memory while reading the flags; "
                                       "lower the count of --s-grid or --t-grid\n")
    assert not any(tmp_path.iterdir())


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


@pytest.mark.parametrize("function", ["sinpi", "sqrtnorm"])
def test_project_runs_every_test_function(tmp_path, function):
    assert run_cli("project", "--measure", "binomial_07_03", "--function", function,
                   "--n-list", "2", "--samples", "1000", "--out", str(tmp_path)) == 0
    header, row = (tmp_path / "projection_errors.csv").read_text().splitlines()
    assert header == "n,max_J_a,bound,measured_error,stderr"
    assert 0.0 < float(row.split(",")[3]) < math.inf


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


def test_project_beyond_the_depth_limit_exits_1(tmp_path, capsys):
    # a budget of 64 on a point mass needs a partition 63 levels deep
    code = run_cli("project", "--measure", "dirac_half", "--out", str(tmp_path))
    assert code == 1
    err = capsys.readouterr().err
    assert "budget 64" in err and "--max-depth 60" in err
    assert not (tmp_path / "projection_errors.csv").exists()


def _rows_per_budget(spec, ell, q, max_depth, samples, seed):
    """The projection table from one ``error_Lq`` call, one draw, per budget."""
    params = lq.OrderParams(p=2.0, q=q, ell=ell, m=spec.dim)
    u = lq.FunctionHandle(cli._TEST_FUNCTIONS["expsum"])
    rows = []
    for n in [2, 4, 8, 16, 32, 64]:
        part = lq.budget_partition(spec, params.rho / params.m, n, max_depth=max_depth)
        approx = lq.piecewise_project(u, part, ell)
        err, se = lq.error_Lq(u, approx, spec, q, n_samples=samples, seed=seed)
        rows.append((lq.kappa(spec.dim, ell) * n, part.max_j, part.max_j ** (1.0 / q), err, se))
    return rows


@pytest.mark.parametrize("name, ell, q, max_depth", [
    ("binomial_07_03", 1, 2.0, 60),
    ("binomial_07_03", 2, 2.0, 60),
    ("fig1_tetraeder", 2, 2.0, 60),
    ("cantor_third", 2, 2.0, 60),  # GeneralIFS1D
    ("density2d", 2, 2.0, 60),
    ("mixture", 1, 3.0, 60),  # Lebesgue + binomial
    ("dirac_half", 1, 2.0, 70),  # exact atom sum
])
def test_project_single_draw_matches_one_draw_per_budget(request, tmp_path, name, ell, q,
                                                         max_depth):
    if name in ("density2d", "mixture"):
        spec = request.getfixturevalue(name)
        measure = str(tmp_path / f"{name}.json")
        lq.save_spec(spec, measure)
    else:
        spec, measure = cli._resolve_measure(name), name
    assert run_cli("project", "--measure", measure, "--ell", str(ell), "--q", repr(q),
                   "--max-depth", str(max_depth), "--samples", "5000", "--seed", "7",
                   "--out", str(tmp_path / "cli")) == 0
    cli._write_csv(tmp_path / "ref" / "projection_errors.csv",
                   ["n", "max_J_a", "bound", "measured_error", "stderr"],
                   _rows_per_budget(spec, ell, q, max_depth, 5000, 7))
    assert (tmp_path / "cli" / "projection_errors.csv").read_bytes() == \
        (tmp_path / "ref" / "projection_errors.csv").read_bytes()


@pytest.mark.parametrize("count", ["0", "-3", "2.5"])
def test_x_count_is_checked_before_the_solve(tmp_path, capsys, monkeypatch, count):
    def no_solve(*args, **kwargs):
        raise AssertionError("the eigenproblem was built before --x-count was checked")
    monkeypatch.setattr(cli, "discretize", no_solve)
    monkeypatch.setattr(cli, "solve_eigen", no_solve)
    out = tmp_path / "out"
    assert run_cli("eigen", "--measure", "binomial_07_03", "--level", "12", "--cuts", "0.25,0.75",
                   "--x-count", count, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "argument --x-count:" in err
    assert not out.exists() or not any(out.iterdir())


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


@pytest.mark.parametrize("argv, calls", [
    (["fixedpoint", "--measure", "binomial_07_03", "--levels", "2..4", "--b", "1,2"], 2),
    (["entropy", "--measure", "binomial_07_03", "--a", "0.5,1", "--t-grid", "10,10,4",
      "--levels", "2..4"], 2),
    (["order", "--measure", "binomial_07_03", "--levels", "6..7"], 1),
    (["demo", "fig1"], 1),
])
def test_roots_of_the_cli_reach_s_b_estimate(tmp_path, monkeypatch, argv, calls):
    # one call per b through the bindings of cli and kreinfeller, which a
    # tracer wrapping the public functions rebinds (fixedpoint, entropy and
    # order made none)
    seen = []
    for module in (cli, kreinfeller):
        def counted(*args, impl=module.s_b_estimate, name=module.__name__, **kwargs):
            seen.append(name)
            return impl(*args, **kwargs)
        monkeypatch.setattr(module, "s_b_estimate", counted)
    assert run_cli(*argv, "--out", str(tmp_path)) == 0
    assert len(seen) == calls


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
