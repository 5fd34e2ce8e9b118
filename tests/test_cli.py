import json
import math
import re
import subprocess
import sys

import pytest

from deltaprime import SqueezePath, resonance_set
from deltaprime.cli import main

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
    code, _, err = run_cli(capsys, "resonances", "--count", "0")
    assert code == 2
    assert "count" in err


def test_resonances_rejects_non_resonant_path(capsys):
    for spec in ("barrier-first:0.5", "power:1:1.5"):
        code, _, err = run_cli(capsys, "resonances", "--path", spec)
        assert code == 2
        assert "resonance" in err


def test_resonances_power_path_defers_to_library(capsys):
    # any rule the library resolves is accepted, not only the named ones
    code, out, _ = run_cli(capsys, "resonances", "--path", "power:1:3",
                           "--count", "3")
    assert code == 0
    _, rows = parse_csv(out)
    want = resonance_set(SqueezePath.power_law(1.0, 3.0), 3)
    assert [float(row["sigma"]) for row in rows] == [r.sigma for r in want]


def test_unknown_path_spec_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "sweep", "--path", "bogus:1")
    assert code == 2


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


def test_transfer_usage_errors(capsys):
    assert run_cli(capsys, "transfer", "--l", "0", "--lambda", "1")[0] == 2
    assert run_cli(capsys, "transfer", "--l", "1", "--lambda", "1",
                   "--E", "-1")[0] == 2


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
    assert run_cli(capsys, "bc-fit", "--n", "0")[0] == 2
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
    assert code == 2
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


def test_sweep_samples_usage_error(capsys):
    assert run_cli(capsys, "sweep", "--samples", "1")[0] == 2


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
