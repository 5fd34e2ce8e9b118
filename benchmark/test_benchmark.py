"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 -m pytest benchmark -q
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import ops  # noqa: E402
import workloads as wl  # noqa: E402
from run import import_program  # noqa: E402
from tracer import OP, Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
             "op_tail_ms": "ms", "ok_share": "fraction", "peak_rss_mb": "MB",
             "accuracy_digits": "digits"}
# Per-layer metrics of the five layers, and the context metrics.
LAYER_NAMES = [
    "transfer.transfer_matrix.calls", "transfer.transfer_matrix.self_us",
    "transfer.scattering.calls", "transfer.scattering.self_us",
    "transfer.share", "limits.transmission_sweep.self_ms", "limits.trace.calls",
    "limits.trace.self_ms", "limits.trace.fail_share", "limits.classify.self_ms",
    "limits.predict.self_ms", "limits.share", "resonance.roots",
    "resonance.solve.self_ms", "resonance.solve.us_per_root", "resonance.share",
    "boundary.params_from_resonance.self_us", "boundary.bc_from_product.self_us",
    "boundary.bound_state.self_us", "boundary.fit.fail_share", "boundary.share",
    "cli.main.self_ms", "cli.bytes_out", "cli.exit_nonzero_share", "cli.share",
    "probe.factor_p50", "probe.factor_iqr", "raw.ops_per_s", "trace.overhead",
]


@pytest.fixture(scope="module")
def dp():
    return import_program()


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert wl.generate(workload, 7) == wl.generate(workload, 7)
    assert wl.generate(workload, 7) != wl.generate(workload, 8)
    assert len(wl.generate(workload, 7)) == wl.SIZES[workload]


def _in(x, lo, hi):
    return lo <= x <= hi


def _check_path(dp, spec):
    path = dp.SqueezePath.parse(spec)
    if path.kind == "barrier-first":
        assert _in(path.rho, *wl.RHO_RANGE)
    elif path.kind == "power":
        assert _in(path.c, *wl.C_RANGE)
    assert spec.partition(":")[0] in ("adjacent", "barrier-first", "linear",
                                      "quadratic", "power")


@pytest.mark.parametrize("seed", [1, 2])
def test_sweep_scan_domain(dp, seed):
    op_list = wl.generate("sweep-scan", seed)
    assert Counter(op["kind"] for op in op_list) == {
        k: len(op_list) // 7 for k in wl.PATH_KINDS}
    for op in op_list:
        _check_path(dp, op["path"])
        assert _in(op["l"], *wl.L_RANGE)
        assert 0.0 <= op["lam_min"] and _in(op["lam_max"] - op["lam_min"],
                                            *wl.WINDOW_RANGE)
        assert op["lam_max"] <= wl.LAM_MAX * 1.25
        assert op["E"] in wl.ENERGIES and op["samples"] == wl.SWEEP_SAMPLES
        assert all(0 <= i < op["samples"] for i in op["check"])


@pytest.mark.parametrize("seed", [1, 2])
def test_limit_classify_domain(dp, seed):
    for op in wl.generate("limit-classify", seed):
        _check_path(dp, op["path"])
        assert op["E"] in wl.ENERGIES
        assert sorted(cp["n"] for cp in op["couplings"]) == [0] * 6 + list(range(1, 7))
        for cp in op["couplings"]:
            assert _in(cp["lam"], 0.5, wl.LAM_MAX)
            if cp["n"]:
                s = math.sqrt(cp["lam"])
                c = dp.SqueezePath.parse(op["path"]).c if op["kind"] == "linear" else 0.0
                assert cp["n"] * math.pi < s < cp["n"] * math.pi + math.pi / 2
                assert abs(wl.resonance_equation(c)(s)) < 1e-10


@pytest.mark.parametrize("seed", [1, 2])
def test_resonance_fit_domain(dp, seed):
    op_list = wl.generate("resonance-fit", seed)
    counts = sorted(op["count"] for op in op_list)
    assert counts[0] >= 1 and counts[-1] <= wl.COUNT_MAX
    # stratified: every decile of 1..100 is equally represented
    assert Counter((c - 1) // 10 for c in counts) == {
        d: len(op_list) // 10 for d in range(10)}
    for op in op_list:
        dp.resonance_set(dp.SqueezePath.parse(op["path"]), 1)


@pytest.mark.parametrize("seed", [1, 2])
def test_cli_mix_domain(seed):
    op_list = wl.generate("cli-mix", seed)
    calls = Counter(wl.EDGE if op["defect"] == wl.DEFECT_CLI else op["argv"][0]
                    for op in op_list)
    # every subcommand and the edge inputs get the same share
    assert calls == {call: len(op_list) // 7 for call in wl.CLI_CALLS}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_second_seed_runs_clean(dp, workload):
    """A short op list of another seed: every outcome ok or documented."""
    prepare, run, check = ops.WORKLOAD_OPS[workload]
    outcomes = []
    for op in wl.generate(workload, 2)[:28]:
        args = prepare(dp, op)
        outcomes.extend(check(dp, op, args, run(dp, args)))
    unexpected = [o for o in outcomes if not o.expected]
    assert not unexpected
    assert any(o.cls == ops.OK for o in outcomes)


def test_det_rounding_bound_covers_library_residual(dp):
    """The gate's det-residual tag rests on this bound: it must never be
    below the residual the library computes, resonances included."""
    rng = random.Random(3)
    for _ in range(200):
        kind = rng.choice(wl.PATH_KINDS)
        c, E = rng.uniform(*wl.C_RANGE), rng.choice(wl.ENERGIES)
        path = dp.SqueezePath.parse(wl.path_spec(kind, c, rng.uniform(*wl.RHO_RANGE)))
        lam = rng.choice(wl.resonant_couplings(kind, c, 6) + [rng.uniform(0.5, wl.LAM_MAX)])
        for l, rho in ops.trace_widths(path):
            tm = dp.transfer_matrix(dp.RectProfile(l=l, rho=rho, lam=lam), E)
            assert tm.det_residual() <= ops.det_rounding_bound(l, rho, lam, E)


def test_value_miss_is_not_a_verdict_defect(dp):
    """On an agreeing resonant verdict, L11/L21 missing (chi, g) is a new
    failure even where classify is known to misjudge verdicts."""
    entry = SimpleNamespace
    verdict = SimpleNamespace(separated=False, variant="resonant", entries={
        "L11": entry(value=2.0), "L12": entry(value=None),
        "L21": entry(value=1.5), "L22": entry(value=None)})
    good = SimpleNamespace(l11=2.0, l21=1.5)
    bad = SimpleNamespace(l11=2.0, l21=1.6)
    ok = ops._check_coupling(dp, (verdict, good), wl.DEFECT_VERDICT)
    assert ok.cls == ops.OK and ok.expected
    miss = ops._check_coupling(dp, (verdict, bad), wl.DEFECT_VERDICT)
    assert miss.cls == ops.WRONG and not miss.expected
    disagree = ops._check_coupling(dp, (verdict, None), wl.DEFECT_VERDICT)
    assert disagree.cls == ops.WRONG and disagree.expected
    assert not ops._check_coupling(dp, (verdict, None), None).expected


def test_root_failure_is_never_a_fit_defect(dp):
    """Past FIT_DEFECT_N only the fit may fail as documented: a root off its
    equation is a new failure."""
    n = wl.FIT_DEFECT_N + 5
    r = dp.resonance_set(dp.SqueezePath.adjacent(), n)[-1]
    op = {"c": 0.0}
    singular = (r, dp.DeltaPrimeError("singular"))
    assert ops._check_root(dp, op, n, singular).expected
    off = SimpleNamespace(n=n, sigma=r.sigma + 1e-6, lam=(r.sigma + 1e-6) ** 2,
                          chi=r.chi, g=r.g, kappa=r.kappa)
    outcome = ops._check_root(dp, op, n, (off, dp.DeltaPrimeError("singular")))
    assert outcome.cls == ops.WRONG and not outcome.expected


def test_tracer_nests_layers_and_restores(dp):
    original = dp.limits.transfer_matrix
    tracer = Tracer()
    with tracer:
        assert dp.limits.transfer_matrix is not original
        assert dp.transfer.transfer_matrix is dp.limits.transfer_matrix
        path = dp.SqueezePath.adjacent()
        tracer.run_op(0, dp.transmission_sweep, path, 1e-3, 1.0, 60.0, 50)
    assert dp.limits.transfer_matrix is original
    names = [tracer.names[i] for i in tracer.name]
    assert names.count("transfer.transfer_matrix") == 50
    assert names.count("transfer.scattering") == 50
    sweep = names.index("limits.transmission_sweep")
    assert tracer.parent[sweep] == names.index(OP)
    assert all(tracer.parent[i] == sweep for i, n in enumerate(names)
               if n.startswith("transfer."))
    own = tracer.self_times()
    op = names.index(OP)
    assert sum(own) == pytest.approx(tracer.end[op] - tracer.start[op], rel=1e-9)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmark/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_e2e_run_prints_every_metric_with_unit():
    proc = _bench("--workload", "cli-mix", "--seed", "2", "--seconds", "0",
                  "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == E2E_UNITS
    assert [m["name"] for m in BENCH["end_to_end"]] == list(E2E_UNITS)
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_prints_every_layer_metric_with_unit():
    proc = _bench("--workload", "resonance-fit", "--seed", "2", "--seconds",
                  "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert set(LAYER_NAMES) <= set(metrics)
    assert {k: v["unit"] for k, v in metrics.items()} == units
    assert metrics["trace.coverage"]["value"] >= 0.8
    assert metrics["resonance.roots"]["value"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "sweep-scan", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
