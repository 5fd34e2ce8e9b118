"""Benchmark harness for deltaprime.

Run from the repository root:

    python3 benchmark/run.py --workload sweep-scan --seed 1 --seconds 20 --trace 0

The op list comes from ``--seed`` (see workloads.py).  The harness times
whole passes over it until ``--seconds`` have gone by, in blocks of about
25 ms with a host-speed probe between blocks; each op time is scaled by
``NOMINAL_PROBE_S / probe`` (probe.py) and each op's time is the median over
passes.  The first pass's results then go through the per-op correctness
gate (ops.py).  The last line of standard output is one JSON object: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced pass (tracer.py), whose spans are written under
``.bench_out/``.  Metric definitions and seed defects are in NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import ops  # noqa: E402
import workloads  # noqa: E402
from probe import NOMINAL_PROBE_S, probe  # noqa: E402
from tracer import OP, Tracer  # noqa: E402

BLOCK_S = 0.025         # ops timed between two probes
SETUP_RUNS = 11         # fresh interpreters per set-up measurement
TAIL_BEYOND = 10        # samples beyond the reported tail percentile
OUT_DIR = ".bench_out"


def import_program():
    """Import deltaprime from this checkout's src/, and nothing else."""
    pkg = ROOT / "src" / "deltaprime"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no deltaprime sources at {pkg}")
    sys.path.insert(0, str(pkg.parent))
    import deltaprime
    import deltaprime.cli  # noqa: F401  (cli-mix calls deltaprime.cli.main)
    if Path(deltaprime.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"benchmark: imported {deltaprime.__file__}, not {pkg}")
    return deltaprime


def setup_child(workload: str, seed: int) -> None:
    """One set-up sample: import plus the first op, in a fresh interpreter."""
    op = workloads.generate(workload, seed)[0]
    prepare, run, _ = ops.WORKLOAD_OPS[workload]
    before = probe()
    t0 = time.perf_counter()
    dp = import_program()
    run(dp, prepare(dp, op))
    raw = time.perf_counter() - t0
    factor = NOMINAL_PROBE_S / (0.5 * (before + probe()))
    print(json.dumps({"raw_s": raw, "factor": factor}))


def measure_setup(workload: str, seed: int) -> float:
    """Median calibrated set-up time over SETUP_RUNS fresh interpreters.

    One more interpreter runs first and is discarded: it compiles the
    bytecode caches, which an installed package ships already compiled.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: set-up run failed\n{proc.stderr}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        if i:
            samples.append(rec["raw_s"] * rec["factor"])
    return statistics.median(samples)


class Timing:
    """Per-op times over whole passes of the op list."""

    def __init__(self, n: int):
        self.cal = [[] for _ in range(n)]
        self.raw = [[] for _ in range(n)]
        self.factors: list[float] = []
        self.op_factor = [1.0] * n
        self.passes = 0
        self.first: list = [None] * n

    def run(self, call, deadline: float) -> "Timing":
        """Call ``call(j)`` for every op j, in whole passes, until the
        deadline has passed (at least one pass)."""
        n = len(self.cal)
        before = probe()
        while self.passes == 0 or time.perf_counter() < deadline:
            keep = self.passes == 0
            i = 0
            while i < n:
                times = []
                t_block = time.perf_counter()
                while i + len(times) < n and (
                        not times or time.perf_counter() - t_block < BLOCK_S):
                    j = i + len(times)
                    t0 = time.perf_counter()
                    out = call(j)
                    times.append(time.perf_counter() - t0)
                    if keep:
                        self.first[j] = out
                after = probe()
                factor = NOMINAL_PROBE_S / (0.5 * (before + after))
                self.factors.append(factor)
                for k, t in enumerate(times):
                    self.raw[i + k].append(t)
                    self.cal[i + k].append(t * factor)
                    self.op_factor[i + k] = factor
                before = after
                i += len(times)
            self.passes += 1
        return self

    def stats(self, raw: bool = False) -> dict:
        per_op = sorted(statistics.median(v) for v in (self.raw if raw else self.cal))
        n = len(per_op)
        k = max(1, n - TAIL_BEYOND)
        return {"ops_per_s": n / sum(per_op), "p50_s": statistics.median(per_op),
                "tail_s": per_op[k - 1], "tail_pct": 100.0 * k / n, "n": n}


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def gate(dp, workload, op_list, inputs, results) -> list:
    check = ops.WORKLOAD_OPS[workload][2]
    outcomes = []
    for op, args, res in zip(op_list, inputs, results):
        outcomes.extend(check(dp, op, args, res))
    return outcomes


def report_outcomes(outcomes, timing: Timing, st: dict) -> None:
    classes = Counter(o.cls for o in outcomes)
    print(f"# passes {timing.passes}, ops per pass {st['n']}, "
          f"tail = p{st['tail_pct']:.2f} of {st['n']} per-op medians "
          f"({TAIL_BEYOND} beyond)")
    print(f"# raw ops/s {timing.stats(raw=True)['ops_per_s']:.6g}, probe factor "
          f"median {statistics.median(timing.factors):.4g}, "
          f"quartile spread {spread(timing.factors):.4g}")
    print("# outcomes " + ", ".join(f"{c} {classes[c]}" for c in ops.CLASSES))
    defects = Counter((o.defect, o.cls) for o in outcomes
                      if o.cls != ops.OK and o.defect)
    for (defect, cls), count in sorted(defects.items()):
        print(f"# documented defect {defect}: {count} {cls}")
    for o in outcomes:
        if not o.expected:
            print(f"# unexpected outcome: {o}")


def e2e_metrics(outcomes, st: dict, setup_s: float, rss_mb: float) -> dict:
    ok = [o for o in outcomes if o.cls == ops.OK]
    # Like the tail: the worst result with TAIL_BEYOND results worse than it,
    # so that no single borderline result sets the value (NOTES.md).
    checked = sorted(o.digits for o in ok if o.digits is not None
                     and o.defect not in ops.PRECISION_DEFECTS)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (st["ops_per_s"], "1/s"),
        "op_p50_ms": (st["p50_s"] * 1e3, "ms"),
        "op_tail_ms": (st["tail_s"] * 1e3, "ms"),
        "ok_share": (len(ok) / len(outcomes), "fraction"),
        "peak_rss_mb": (rss_mb, "MB"),
        "accuracy_digits": (checked[min(TAIL_BEYOND, len(checked) - 1)], "digits"),
    }


def layer_metrics(tracer: Tracer, traced: Timing, untraced: Timing,
                  outcomes, results, workload: str) -> dict:
    own = tracer.self_times()
    names = tracer.names
    calls, fails = Counter(), Counter()
    self_s, layer_s = defaultdict(float), defaultdict(float)
    op_total = solve_s = 0.0
    solve_id = names.index("resonance.resonance_set") \
        if "resonance.resonance_set" in names else None
    in_solve = bytearray(len(own))
    for i, s in enumerate(own):
        f = traced.op_factor[tracer.op[i]]
        p = tracer.parent[i]
        name = names[tracer.name[i]]
        in_solve[i] = tracer.name[i] == solve_id or (p >= 0 and in_solve[p])
        if name == OP:
            op_total += (tracer.end[i] - tracer.start[i]) * f
            continue
        layer = name.partition(".")[0]
        calls[name] += 1
        fails[name] += tracer.failed[i]
        self_s[name] += s * f
        layer_s[layer] += s * f
        if in_solve[i] and layer == "resonance":
            solve_s += s * f

    def per_call(name, scale):
        return self_s[name] / calls[name] * scale if calls[name] else 0.0

    def share(num, den):
        return num / den if den else 0.0

    fits = [o.fit for o in outcomes if o.fit is not None]
    cli = workload == "cli-mix"
    st_u, st_t = untraced.stats(), traced.stats()
    return {
        "transfer.transfer_matrix.calls": (calls["transfer.transfer_matrix"], "count"),
        "transfer.transfer_matrix.self_us": (per_call("transfer.transfer_matrix", 1e6), "us"),
        "transfer.scattering.calls": (calls["transfer.scattering"], "count"),
        "transfer.scattering.self_us": (per_call("transfer.scattering", 1e6), "us"),
        "transfer.share": (share(layer_s["transfer"], op_total), "fraction"),
        "limits.transmission_sweep.self_ms": (per_call("limits.transmission_sweep", 1e3), "ms"),
        "limits.trace.calls": (calls["limits.trace"], "count"),
        "limits.trace.self_ms": (per_call("limits.trace", 1e3), "ms"),
        "limits.trace.fail_share": (share(fails["limits.trace"], calls["limits.trace"]), "fraction"),
        "limits.classify.self_ms": (per_call("limits.classify", 1e3), "ms"),
        "limits.predict.self_ms": (per_call("limits.predict", 1e3), "ms"),
        "limits.share": (share(layer_s["limits"], op_total), "fraction"),
        "resonance.roots": (tracer.roots, "count"),
        "resonance.solve.self_ms": (share(solve_s, calls["resonance.resonance_set"]) * 1e3, "ms"),
        "resonance.solve.us_per_root": (share(solve_s, tracer.roots) * 1e6, "us"),
        "resonance.share": (share(layer_s["resonance"], op_total), "fraction"),
        "boundary.params_from_resonance.self_us": (per_call("boundary.params_from_resonance", 1e6), "us"),
        "boundary.bc_from_product.self_us": (per_call("boundary.bc_from_product", 1e6), "us"),
        "boundary.bound_state.self_us": (per_call("boundary.bound_state", 1e6), "us"),
        "boundary.fit.fail_share": (share(fits.count(False), len(fits)), "fraction"),
        "boundary.share": (share(layer_s["boundary"], op_total), "fraction"),
        "cli.main.self_ms": (per_call("cli.main", 1e3), "ms"),
        "cli.bytes_out": (sum(len(r[1].encode()) for r in results) if cli else 0, "bytes"),
        "cli.exit_nonzero_share": (share(sum(r[0] != 0 for r in results), len(results))
                                   if cli else 0.0, "fraction"),
        "cli.share": (share(layer_s["cli"], op_total), "fraction"),
        "probe.factor_p50": (statistics.median(untraced.factors), "ratio"),
        "probe.factor_iqr": (spread(untraced.factors), "fraction"),
        "raw.ops_per_s": (untraced.stats(raw=True)["ops_per_s"], "1/s"),
        "trace.overhead": (st_u["ops_per_s"] / st_t["ops_per_s"], "ratio"),
        "trace.coverage": (share(sum(layer_s.values()), op_total), "fraction"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0

    op_list = workloads.generate(args.workload, args.seed)
    setup_s = measure_setup(args.workload, args.seed) if not args.trace else None
    dp = import_program()
    prepare, run, _ = ops.WORKLOAD_OPS[args.workload]
    inputs = [prepare(dp, op) for op in op_list]
    run(dp, inputs[0])  # warm-up

    def call(j):
        return run(dp, inputs[j])

    seconds = args.seconds / 2 if args.trace else args.seconds
    timing = Timing(len(inputs)).run(call, time.perf_counter() + seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    st = timing.stats()

    if args.trace:
        tracer = Tracer()
        with tracer:
            traced = Timing(len(inputs)).run(
                lambda j: tracer.run_op(j, run, dp, inputs[j]), 0.0)
        out_dir = ROOT / OUT_DIR
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.csv")

    outcomes = gate(dp, args.workload, op_list, inputs, timing.first)
    report_outcomes(outcomes, timing, st)
    if args.trace:
        metrics = layer_metrics(tracer, traced, timing, outcomes,
                                timing.first, args.workload)
    else:
        metrics = e2e_metrics(outcomes, st, setup_s, rss_mb)
    failed = sum(not o.expected for o in outcomes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
