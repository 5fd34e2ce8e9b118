import argparse
import contextlib
import dataclasses
import errno
import io
import json
import math
import numbers
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from deltaprime import (SqueezePath, resonance, resonance_set,
                        transmission_sweep)
from deltaprime.cli import _build_parser, _emit, _fmt, main

LAM1 = 15.418205716980063


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    table, _, _ = text.partition("\n\n")
    lines = table.strip().split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def trailing_json(text):
    _, _, block = text.partition("\n\n")
    return json.loads(block)


def test_resonances_table(capsys):
    code, out, _ = run_cli(capsys, "resonances", "--count", "3")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "sigma", "lambda", "chi", "g", "kappa", "R", "T", "k"]
    assert len(rows) == 3
    assert [r["n"] for r in rows] == ["1", "2", "3"]
    assert all(r["g"] == "0.0" for r in rows)
    assert float(rows[0]["sigma"]) == pytest.approx(3.9266023120479188,
                                                    abs=1e-12)


def test_resonances_quadratic_row(capsys):
    code, out, _ = run_cli(capsys, "resonances", "--path", "quadratic:1",
                           "--count", "1")
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0]["g"]) == pytest.approx(276.34588992287415, rel=1e-12)
    assert float(rows[0]["kappa"]) == pytest.approx(7.6971320629678741,
                                                    rel=1e-11)
    assert rows[0]["R"].startswith("(")  # complex once g != 0


def test_resonances_bad_count_is_usage_error(capsys):
    # the library's check, as every range check: exit 3
    code, _, err = run_cli(capsys, "resonances", "--count", "0")
    assert code == 3
    assert "count" in err


def test_resonances_rejects_non_resonant_path(capsys):
    for spec in ("barrier-first:0.5", "power:1:1.5"):
        code, _, err = run_cli(capsys, "resonances", "--path", spec)
        assert code == 3
        assert err == f"error: squeeze rule {spec} admits no resonance set\n"


def test_resonances_power_path_defers_to_library(capsys):
    # any rule the library resolves is accepted, not only the named ones
    code, out, _ = run_cli(capsys, "resonances", "--path", "power:1:3",
                           "--count", "3")
    assert code == 0
    _, rows = parse_csv(out)
    want = resonance_set(SqueezePath.power_law(1.0, 3.0), 3)
    assert [float(row["sigma"]) for row in rows] == [r.sigma for r in want]


def test_unknown_path_spec_is_usage_error(capsys):
    # argparse rejects it, as any option it cannot parse
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--path", "bogus:1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: deltaprime sweep ")
    assert captured.err.endswith("deltaprime sweep: error: argument --path: "
                                 "bad squeeze-path spec 'bogus:1'\n")


def test_transfer_free_propagation(capsys):
    code, out, _ = run_cli(capsys, "transfer", "--l", "0.3", "--rho", "0.4",
                           "--lambda", "0", "--E", "4")
    assert code == 0
    _, rows = parse_csv(out)
    row = rows[0]
    assert float(row["L11"]) == pytest.approx(math.cos(2.0), abs=1e-14)
    assert float(row["L12"]) == pytest.approx(math.sin(2.0) / 2, abs=1e-14)
    assert abs(float(row["det"]) - 1.0) < 1e-12
    assert float(row["conservation_residual"]) < 1e-10


def test_transfer_check_flag_reports_oracle(capsys):
    code, out, _ = run_cli(capsys, "transfer", "--l", "0.01", "--rho", "1e-4",
                           "--lambda", "15.42", "--E", "1", "--check")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[-1] == "oracle_residual"
    assert float(rows[0]["oracle_residual"]) < 1e-10


def test_transfer_check_exits_3_on_an_oracle_disagreement(capsys,
                                                          monkeypatch):
    from deltaprime import transfer

    oracle = transfer.piecewise_transfer

    def skewed(profile, E):
        m = oracle(profile, E)
        return dataclasses.replace(m, l21=m.l21 + 1.0)

    monkeypatch.setattr(transfer, "piecewise_transfer", skewed)
    code, out, err = run_cli(capsys, "transfer", "--l", "0.01", "--rho",
                             "1e-4", "--lambda", "15.42", "--check")
    assert (code, out) == (3, "")
    assert err.startswith("error: oracle disagreement ")
    assert float(err.split()[-1]) > 1e-10


def test_transfer_usage_errors(capsys):
    assert run_cli(capsys, "transfer", "--l", "0", "--lambda", "1")[0] == 3
    assert run_cli(capsys, "transfer", "--l", "1", "--lambda", "1",
                   "--E", "-1")[0] == 3


@pytest.mark.parametrize("argv", [
    ("transfer", "--l", "1e-3", "--lambda", "nan"),
    ("transfer", "--l", "1e-3", "--rho", "nan", "--lambda", "3"),
])
def test_transfer_nan_input_is_numeric_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "finite" in err


# Every float option of the numeric subcommands, and the constant of each
# path-spec form on every subcommand that takes --path, set to nan, inf and
# -inf.  '=' keeps argparse from reading '-inf' as an option name.
FLOAT_OPTIONS = {
    "transfer": {"--l": "1e-3", "--rho": "0", "--lambda": "15", "--E": "1"},
    "limit-trace": {"--lambda": "15", "--E": "1", "--l-start": "0.1",
                    "--l-end": "1e-4"},
    "sweep": {"--l": "1e-3", "--lambda-min": "1", "--lambda-max": "60",
              "--E": "1"},
    "bc": {"--alpha": "0.5", "--beta": "0", "--lambda": "1", "--k": "1"},
}
PATH_SPECS = ("linear:{}", "quadratic:{}", "power:{}:2", "power:1:{}",
              "barrier-first:{}")
PATH_COMMANDS = {"resonances": ["--count=3"], "limit-trace": ["--lambda=15"],
                 "sweep": ["--samples=200"], "bc-fit": ["--n=2"]}
NON_FINITE_TOKEN = re.compile(r"(?i)\b(nan|inf|infinity)\b")


def non_finite_argvs():
    for value in ("nan", "inf", "-inf"):
        for cmd, opts in FLOAT_OPTIONS.items():
            for name in opts:
                yield [cmd] + [f"{k}={value if k == name else v}"
                               for k, v in opts.items()]
        for cmd, extra in PATH_COMMANDS.items():
            for spec in PATH_SPECS:
                yield [cmd, "--path=" + spec.format(value)] + extra


@pytest.mark.parametrize("argv", list(non_finite_argvs()), ids=" ".join)
def test_non_finite_input_fails_cleanly(capsys, argv):
    # either a typed failure with nothing on stdout, or finite output; a
    # non-finite path constant is always a usage error
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code
    out = capsys.readouterr().out
    if argv[1].startswith("--path="):
        assert code == 2
    if code == 0:
        assert not NON_FINITE_TOKEN.search(out)
    else:
        assert code in (2, 3)
        assert out == ""


def test_repeated_calls_share_no_state(capsys):
    # the parser is built once; flags of one call must not leak into the next
    check = ("transfer", "--l", "0.01", "--lambda", "15.42")
    code, out, _ = run_cli(capsys, *check, "--check")
    assert code == 0 and parse_csv(out)[0][-1] == "oracle_residual"
    code, out, _ = run_cli(capsys, *check)
    assert code == 0 and "oracle_residual" not in parse_csv(out)[0]
    code, out, _ = run_cli(capsys, "resonances", "--count", "2",
                           "--format", "json")
    assert code == 0 and len(json.loads(out)["rows"]) == 2
    code, out, _ = run_cli(capsys, "resonances", "--count", "2")
    assert code == 0 and parse_csv(out)[0][0] == "n"
    assert run_cli(capsys, "bc-fit", "--n", "0")[0] == 3
    code, out, _ = run_cli(capsys, "bc-fit", "--n", "1")
    assert code == 0 and parse_csv(out)[1][0]["n"] == "1"


def test_limit_trace_resonant_verdict(capsys):
    code, out, _ = run_cli(capsys, "limit-trace", "--path", "adjacent",
                           "--lambda", repr(LAM1))
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["l", "rho", "L11", "L12", "L21", "L22", "det"]
    assert len(rows) == 13
    verdict = trailing_json(out)["verdict"]
    assert verdict["variant"] == "resonant"
    assert verdict["L21"]["kind"] == "converges"


def test_limit_trace_separated_verdict(capsys):
    code, out, _ = run_cli(capsys, "limit-trace", "--path",
                           "barrier-first:0.5", "--lambda", repr(LAM1))
    assert code == 0
    verdict = trailing_json(out)["verdict"]
    assert verdict["variant"] == "separated"
    assert verdict["L21"]["kind"] == "divergent"
    assert verdict["L21"]["exponent"] == pytest.approx(-2.0, abs=0.05)


def test_limit_trace_points_usage_error(capsys):
    code, _, err = run_cli(capsys, "limit-trace", "--lambda", "10",
                           "--points", "4")
    assert code == 3
    assert "points" in err


def test_limit_trace_floor_is_numeric_error(capsys):
    code, _, err = run_cli(capsys, "limit-trace", "--lambda", "10",
                           "--l-end", "1e-8")
    assert code == 3
    assert "floor" in err


def test_sweep_peaks_block(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--path", "adjacent",
                           "--l", "1e-3", "--lambda-min", "10",
                           "--lambda-max", "20", "--samples", "500")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["lambda", "T2", "R2"]
    assert len(rows) == 500
    peaks = trailing_json(out)["peaks"]
    assert any(abs(p["lambda"] - LAM1) < 0.1 for p in peaks)


def test_sweep_csv_cells_are_the_library_values_bit_for_bit(capsys):
    args = _build_parser().parse_args(["sweep"])
    res = transmission_sweep(args.path, args.l,
                             args.lambda_min, args.lambda_max, args.samples,
                             args.E)
    code, out, _ = run_cli(capsys, "sweep")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["lambda", "T2", "R2"]
    assert len(rows) == args.samples
    for name, want in (("lambda", res.lambdas), ("T2", res.T2),
                       ("R2", res.R2)):
        got = np.array([float(row[name]) for row in rows])
        assert got.tobytes() == want.tobytes()


def test_sweep_samples_usage_error(capsys):
    assert run_cli(capsys, "sweep", "--samples", "1")[0] == 3


# Each numeric option on both sides of its range: the library's check and
# message, exit 3.
@pytest.mark.parametrize("argv, message", [
    ("limit-trace --lambda 1 --points 7",
     "need at least 8 trace points, got 7"),
    ("limit-trace --lambda 1 --points 10001",
     "points = 10001 exceeds the cap of 10000 trace points"),
    ("sweep --l 0", "l = 0.0 below the precision floor 1e-06"),
    ("sweep --l 1e-9", "l = 1e-09 below the precision floor 1e-06"),
    ("resonances --count 0", "count must be >= 1, got 0"),
    ("resonances --count 113",
     "chi overflows at sigma = 355.7853680190441 (n = 113, c = 0.0)"),
    ("transfer --l 1e-3 --lambda 1 --E 0",
     "scattering energy must be positive and finite, got 0.0"),
    ("transfer --l 1e-3 --lambda 1 --E inf",
     "scattering energy must be positive and finite, got inf"),
    ("bc --alpha 0.5 --lambda 1 --k 0",
     "wavenumber must be positive, got 0.0"),
    ("bc --alpha 0.5 --lambda 1 --k nan",
     "wavenumber must be positive, got nan"),
    ("bc-fit --n 0", "resonance index n must be >= 1, got 0"),
    ("bc-fit --n=-1", "resonance index n must be >= 1, got -1"),
])
def test_option_bounds_exit_3_with_the_library_message(capsys, argv, message):
    assert run_cli(capsys, *argv.split()) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("target, code", [
    (".", errno.EISDIR), ("missing/rows.csv", errno.ENOENT)])
def test_unwritable_out_exits_2_and_names_the_file(tmp_path, capsys, target,
                                                  code):
    path = tmp_path / target
    got = run_cli(capsys, "bc", "--alpha", "0.5", "--lambda", "1",
                  "--out", str(path))
    assert got == (2, "", f"error: cannot write {path}: "
                          f"{os.strerror(code)}\n")
    assert list(tmp_path.iterdir()) == []


def test_bc_report(capsys):
    code, out, _ = run_cli(capsys, "bc", "--alpha", "0.5", "--beta", "0",
                           "--lambda", "1", "--k", "1")
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0]["A"]) == pytest.approx(3.0, rel=1e-15)
    assert float(rows[0]["R"]) == pytest.approx(-0.8, rel=1e-12)
    assert float(rows[0]["T"]) == pytest.approx(0.6, rel=1e-12)
    assert trailing_json(out)["bound_states"] == []


def test_bc_bound_state_listed(capsys):
    code, out, _ = run_cli(capsys, "bc", "--alpha", "0.5", "--beta", "-2",
                           "--lambda", "1", "--k", "1")
    assert code == 0
    bound = trailing_json(out)["bound_states"]
    assert len(bound) == 1 and bound[0] > 0


def test_bc_pole_is_numeric_error(capsys):
    code, _, err = run_cli(capsys, "bc", "--alpha", "1", "--beta", "0",
                           "--lambda", "1", "--k", "1")
    assert code == 3
    assert "1 - alpha*lam" in err


def test_bc_fit_first_resonance(capsys):
    code, out, _ = run_cli(capsys, "bc-fit", "--path", "adjacent", "--n", "1")
    assert code == 0
    _, rows = parse_csv(out)
    row = rows[0]
    assert 0.0 < float(row["alpha"]) < 1.0
    assert float(row["beta"]) == 0.0
    assert float(row["residual"]) < 1e-12


def test_bc_fit_quadratic_round_trip(capsys):
    code, out, _ = run_cli(capsys, "bc-fit", "--path", "quadratic:1",
                           "--n", "10")
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0]["residual"]) < 1e-12


def test_bc_fit_keeps_double_precision_at_large_chi(capsys):
    # chi_25 ~ -2e34: the fit used to print a residual of 0.066
    code, out, _ = run_cli(capsys, "bc-fit", "--n", "25")
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0]["residual"]) <= 1e-12
    code, out, err = run_cli(capsys, "bc-fit", "--path", "quadratic:1",
                             "--n", "100")
    assert code == 0, err
    _, rows = parse_csv(out)
    assert float(rows[0]["residual"]) <= 1e-12


def test_bc_fit_solves_each_bracket_once_per_constant(capsys, monkeypatch):
    # bc-fit --n 25 reads its rule's root table: a cold table is solved for
    # n = 1 .. 25 in order, and a second call solves nothing
    calls = []
    solve = resonance._root
    monkeypatch.setattr(resonance, "_root",
                        lambda *a: calls.append(a) or solve(*a))
    for spec, c in [("adjacent", 0.0), ("linear:0.7", 0.7)]:
        resonance._table.cache_clear()
        for want in ([(c, n) for n in range(1, 26)], []):
            del calls[:]
            code, out, _ = run_cli(capsys, "bc-fit", "--path", spec,
                                   "--n", "25")
            assert code == 0
            assert calls == want, spec
            r = resonance_set(SqueezePath.parse(spec), 25)[-1]
            _, rows = parse_csv(out)
            assert [rows[0][k] for k in ("n", "lambda", "chi", "g")] == \
                [str(r.n), repr(r.lam), repr(r.chi), repr(r.g)]


@pytest.mark.parametrize("argv, n", [
    (["bc-fit", "--n", "200"], 200),
    (["bc-fit", "--path", "linear:0.7", "--n", "113"], 113),
    # linear:1e12's table ends at n = 102, short of the n = 112 cap
    (["bc-fit", "--path", "linear:1e12", "--n", "105"], 105),
])
def test_bc_fit_past_the_root_table_is_numeric_error(capsys, argv, n):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert re.search(rf"chi overflows at sigma = [0-9.]+ \(n = {n},", err)


@pytest.mark.parametrize("argv", [
    ["resonances", "--count", "113"],
    ["resonances", "--path", "linear:0.7", "--count", "115"],
    ["bc-fit", "--path", "linear:0.7", "--n", "112"],
])
def test_chi_overflow_is_numeric_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert re.search(r"chi overflows at sigma = [0-9.]+ \(n = 11[23]", err)


@pytest.mark.parametrize("argv, n", [
    (["resonances", "--path", "quadratic:1e308", "--count", "3"], 1),
    (["bc-fit", "--path", "quadratic:1e300", "--n", "50"], 50),
])
def test_g_overflow_is_numeric_error(capsys, argv, n):
    # used to print g = -inf (exit 3 on a NaN conservation residual or an
    # infinite beta, which named only the symptom)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert re.search(rf"g overflows at sigma = [0-9.]+ \(n = {n}, "
                     rf"c = 1e\+30[08]\)", err)


def test_resonance_next_to_its_bracket_end(capsys):
    code, out, err = run_cli(capsys, "resonances", "--path", "linear:1e12",
                             "--count", "1")
    assert code == 0, err
    _, rows = parse_csv(out)
    assert float(rows[0]["chi"]) == pytest.approx(-3.6281434723e13, rel=1e-9)


def test_json_format(capsys):
    code, out, _ = run_cli(capsys, "resonances", "--count", "2",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [r["n"] for r in doc["rows"]] == [1, 2]
    assert doc["rows"][0]["lambda"] == pytest.approx(LAM1, rel=1e-12)

    code, out, _ = run_cli(capsys, "limit-trace", "--lambda", repr(LAM1),
                           "--format", "json")
    doc = json.loads(out)
    assert len(doc["rows"]) == 13
    assert doc["verdict"]["variant"] == "resonant"


README_COMMANDS = [
    line.split()[1:] for line in
    (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
    if line.startswith("deltaprime ")]


def _csv_value(cell):
    """A CSV cell read back: an int, a complex repr as a string, else a
    float."""
    if cell.endswith(("j", ")")):
        return cell
    try:
        return int(cell)
    except ValueError:
        return float(cell)


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_json_carries_the_csv_cells(capsys, argv):
    code, csv_text, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    code, text, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(text)
    _, rows = parse_csv(csv_text)
    assert doc.pop("rows") == [{k: _csv_value(v) for k, v in row.items()}
                               for row in rows]
    assert doc == (trailing_json(csv_text) if "\n\n" in csv_text else {})
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_readme_commands_cover_every_subcommand():
    assert ({argv[0] for argv in README_COMMANDS}
            == {"resonances", "transfer", "limit-trace", "sweep", "bc",
                "bc-fit"})


def test_output_is_byte_deterministic(capsys):
    args = ("resonances", "--path", "quadratic:2", "--count", "4")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "resonances", "--count", "2",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.startswith("n,sigma,lambda,")
    assert text.endswith("\n")


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "deltaprime", "resonances", "--count", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,sigma,lambda,")


@pytest.mark.parametrize("argv", [
    ["sweep", "--path", "adjacent", "--lambda-max", "1e7"],
    ["sweep", "--path", "adjacent", "--lambda-max", "1e7", "--samples", "100"],
    ["limit-trace", "--lambda", "1e7"],
    ["transfer", "--l", "1e-200", "--lambda", "1"],
])
def test_overflow_is_clean_numeric_error(argv):
    # cosh(p*l) overflows on most of this coupling grid and at every width
    # of the trace; l**2 underflows to 0 at l = 1e-200
    proc = subprocess.run([sys.executable, "-m", "deltaprime", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["limit-trace", "--lambda", "1", "--points", "100000000000"],
    ["sweep", "--samples", "100000000000"],
])
def test_oversized_grid_is_clean_numeric_error(argv):
    # numpy used to fail allocating these grids, with a traceback (exit 1)
    proc = subprocess.run([sys.executable, "-m", "deltaprime", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "= 100000000000 exceeds the cap" in proc.stderr


@pytest.mark.parametrize("argv, named", [
    (["bc", "--alpha", "0.5", "--beta", "1e308", "--lambda", "1e200", "--k", "1"],
     "alpha = 0.5, beta = 1e+308, lam = 1e+200"),
    (["bc", "--alpha", "1e308", "--beta", "1", "--lambda", "10", "--k", "1"],
     "alpha = 1e+308, beta = 1.0, lam = 10.0"),
    (["bc", "--alpha", "inf", "--lambda", "3"],
     "alpha = inf, beta = 0.0, lam = 3.0"),
])
def test_bc_overflow_is_named(capsys, argv, named):
    # beta*lam**2 or 1 - alpha*lam overflows; the determinant check used to
    # report the NaN that followed
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert f"product-rule matrix overflows at {named}" in err


def test_bc_large_coupling_has_representable_entries(capsys):
    # beta*lam**2 = 1e400 overflows, but the entry beta*lam**2/(d1*d2) is -4
    code, out, err = run_cli(capsys, "bc", "--alpha", "0.5", "--beta", "1",
                             "--lambda", "1e200", "--k", "1")
    assert code == 0, err
    _, rows = parse_csv(out)
    assert (rows[0]["A"], rows[0]["B"]) == ("-1.0", "-4.0")


def test_limit_trace_near_resonance_passes_determinant_check(capsys):
    # lambda_2 of the adjacent rule on a tau = 3 rule at E = 0.5: trace's
    # determinant residual at l = 1.8e-4 used to read 1.08e-10 > 1e-10
    code, out, err = run_cli(
        capsys, "limit-trace", "--path", "power:2.0839490771026323:3",
        "--lambda", "49.96486203180023", "--E", "0.5")
    assert code == 0, err
    assert trailing_json(out)["verdict"]["variant"] == "resonant"


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_help_lists_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "default: 1.0" in out  # E default is printed
    assert "default: csv" in out


def _jsonable(v):
    """JSON value of one cell, as ``json`` takes it; :func:`_emit` reads
    the same value back from the cell's CSV text."""
    if isinstance(v, numbers.Integral):
        return int(v)
    if isinstance(v, complex):
        return float(v.real) if v.imag == 0.0 else repr(complex(v))
    return float(v)


def _emit_rows_reference(fmt, rows, extras):
    """The dict-per-row emitter that the column emitter replaced."""
    if fmt == "json":
        doc = {"rows": [{k: _jsonable(v) for k, v in row.items()}
                        for row in rows]}
        if extras:
            doc.update(extras)
        return json.dumps(doc, indent=2) + "\n"
    lines = [",".join(rows[0].keys())]
    lines += [",".join(_fmt(v) for v in row.values()) for row in rows]
    text = "\n".join(lines) + "\n"
    if extras:
        text += "\n" + json.dumps(extras, indent=2) + "\n"
    return text


_FLOATS = st.one_of(
    st.sampled_from((-0.0, 5e-324, 1e-5, 9.999999999999999e-05, 1e16, 0.1)),
    st.floats())
_INTS = st.one_of(st.integers(),
                  st.integers(-2**63, 2**63 - 1).map(np.int64))
_COMPLEX = st.one_of(st.complex_numbers(),
                     _FLOATS.map(lambda x: complex(x, 0.0)))
# column kind -> (cell values, how the column holds them)
_COLUMN_KINDS = {
    "float array": (_FLOATS, np.array),
    "float list": (_FLOATS, list),
    "int list": (_INTS, list),
    "complex array": (_COMPLEX, lambda v: np.array(v, dtype=complex)),
    "complex list": (_COMPLEX, list),
}


@st.composite
def _tables(draw):
    n = draw(st.integers(1, 8))
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_KINDS)),
                          min_size=1, max_size=5))
    cols = {}
    for i, kind in enumerate(kinds):
        cells, holder = _COLUMN_KINDS[kind]
        cols[f"c{i}"] = holder(draw(st.lists(cells, min_size=n, max_size=n)))
    return cols


@given(cols=_tables(), fmt=st.sampled_from(("csv", "json")),
       extras=st.sampled_from((None, {"peaks": [{"lambda": 1.5, "T2": 1.0}]})))
def test_column_emitter_matches_row_reference(cols, fmt, extras):
    n = len(next(iter(cols.values())))
    rows = [{name: col[i] for name, col in cols.items()} for i in range(n)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _emit(argparse.Namespace(format=fmt, out=None), cols, extras)
    assert buf.getvalue() == _emit_rows_reference(fmt, rows, extras)


@pytest.mark.parametrize("extras", [None, {"peaks": []},
                                    {"verdict": {"L21": {"value": None}},
                                     "bound_states": [0.5, math.inf]}])
def test_json_text_matches_json_dumps_on_every_cell_kind(extras):
    # non-finite floats, complex cells with and without parentheses and
    # numpy integers: the kinds the random tables above rarely draw
    nan, inf = math.nan, math.inf
    cols = {
        "float": np.array([nan, inf, -inf, -0.0, 5e-324, 1e16]),
        "list": [nan, -inf, inf, 0.1, 2.0, -1e-7],
        "int": [np.int64(-3), 0, True, 2**70, np.int32(7), -1],
        "complex": [1j, complex(-0.0, 2), complex(nan, 1), complex(inf, 0),
                    complex(nan, 0), complex(1, -inf)],
        "carray": np.array([nan, 1j, 2.5, complex(-inf, 0), 3 - 4j, 0j]),
    }
    rows = [{name: col[i] for name, col in cols.items()} for i in range(6)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _emit(argparse.Namespace(format="json", out=None), cols, extras)
    assert buf.getvalue() == _emit_rows_reference("json", rows, extras)


# The argv fuzz draws every option from these menus: edge floats, counts
# around the caps (n = 112 is the largest resonance index) and path specs
# whose constants overflow a gap, a chi or a g.
_FUZZ_FLOATS = ("0", "-0.0", "1", "-1", "2", "-2", "0.5", "3.5", "nan",
                "inf", "-inf", "1e308", "-1e308", "1e-308", "5e-324", "1e-7",
                "1e-6", "1e6", "1e20", "-1e20", "112", "113")
_FUZZ_INTS = ("-1", "0", "1", "2", "8", "13", "112", "113", "5000")
_FUZZ_PATHS = ("adjacent", "linear", "linear:0.7", "quadratic:1",
               "power:1:1.5", "power:2:3", "barrier-first:0.5",
               "linear:1e308", "quadratic:1e300", "power:1:1e300",
               "power:1e-300:2", "barrier-first:1e-300", "bogus")
_FUZZ_OPTIONS = {
    "resonances": {"path": _FUZZ_PATHS, "count": _FUZZ_INTS},
    "transfer": {"l": _FUZZ_FLOATS, "rho": _FUZZ_FLOATS,
                 "lambda": _FUZZ_FLOATS, "E": _FUZZ_FLOATS, "check": ()},
    "limit-trace": {"path": _FUZZ_PATHS, "lambda": _FUZZ_FLOATS,
                    "E": _FUZZ_FLOATS, "l-start": _FUZZ_FLOATS,
                    "l-end": _FUZZ_FLOATS, "points": _FUZZ_INTS},
    "sweep": {"path": _FUZZ_PATHS, "l": _FUZZ_FLOATS,
              "lambda-min": _FUZZ_FLOATS, "lambda-max": _FUZZ_FLOATS,
              "samples": _FUZZ_INTS, "E": _FUZZ_FLOATS},
    "bc": {"alpha": _FUZZ_FLOATS, "beta": _FUZZ_FLOATS,
           "lambda": _FUZZ_FLOATS, "k": _FUZZ_FLOATS},
    "bc-fit": {"path": _FUZZ_PATHS, "n": _FUZZ_INTS},
}
_NON_FINITE_WORD = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_OPTIONS)))
    argv = [command, "--format", draw(st.sampled_from(("csv", "json")))]
    for name, menu in _FUZZ_OPTIONS[command].items():
        if not menu:  # a flag
            if draw(st.booleans()):
                argv.append(f"--{name}")
            continue
        value = draw(st.sampled_from((None, *menu)))  # None: left out
        if value is not None:
            # "--opt=value", so argparse never reads "-inf" as an option
            argv.append(f"--{name}={value}")
    return argv


@settings(max_examples=600, deadline=None, derandomize=True)
@given(argv=_argvs())
@example(argv="sweep --path power:1:1100 --l 2 --lambda-max 10 "
              "--samples 5".split())
@example(argv="limit-trace --path power:1:1e300 --lambda 1 --l-start 1e6 "
              "--l-end 1".split())
@example(argv="limit-trace --l-start 1e308 --l-end 1e-6 --points 8 "
              "--lambda 1".split())
@example(argv="sweep --lambda-min=-1e308 --lambda-max 1e308 "
              "--samples 3".split())
def test_argv_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 2, 3), err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    if code == 0:
        assert not _NON_FINITE_WORD.search(out.getvalue())
    else:
        assert err.getvalue()
