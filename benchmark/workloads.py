"""Seeded input generators for the four benchmark workloads.

Standard library only: inputs are generated before ``deltaprime`` (and
numpy) is imported, so generation never counts towards set-up time.  Every
op is a plain dict of JSON-able values; the same seed gives the same list.

Draws are stratified: each continuous parameter takes one value from each of
``n`` equal slices of its range (shuffled), and discrete choices cycle
through their options.  Every seed therefore has the same mix and nearly the
same total cost, while the individual values differ from seed to seed.

Each op (or each coupling of a ``limit-classify`` op) may carry a ``defect``
tag: the input lies in the class where a documented seed defect shows (see
NOTES.md).  The ``det-residual`` tag needs floating-point work and is set by
the gate instead (ops.py).  Tags only decide whether a non-ok outcome was
expected; they never remove an input.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("sweep-scan", "limit-classify", "resonance-fit", "cli-mix")

# Documented input domain (README, CLI defaults and ROADMAP).
L_RANGE = (1e-4, 3e-2)          # barrier width, sampled log-uniformly
LAM_MAX = 400.0                 # largest coupling
WINDOW_RANGE = (20.0, 400.0)    # width of a swept coupling window
ENERGIES = (0.5, 1.0, 2.0)
C_RANGE = (0.1, 3.0)            # path constant of power-law rules
RHO_RANGE = (0.05, 1.0)         # barrier-first gap
SWEEP_SAMPLES = 2000            # CLI default of ``sweep --samples``
TRACE_GRID = (1e-1, 1e-4, 13)   # l_start, l_end, points, as in demos/squeeze_paths.py
COUNT_MAX = 100                 # resonance-fit: resonance_set(path, 1..100)

# Ops per pass of the op list.  One pass takes 1 to 2 s of calibrated time
# on a 2-core Xeon VM.
SIZES = {"sweep-scan": 84, "limit-classify": 252, "resonance-fit": 1200,
         "cli-mix": 1008}

# The seven squeeze rules of demos/squeeze_paths.py; C and RHO are drawn.
PATH_KINDS = ("adjacent", "barrier-first", "linear", "quadratic",
              "power-0.5", "power-1.5", "power-3")
RESONANT_KINDS = ("adjacent", "linear", "quadratic", "power-3")

# The params_from_resonance -> bc_from_product round trip loses digits as
# |chi| grows: it misses 1e-9 from n = 18 on a few linear rules, from
# n = 19 to 21 on every rule, and raises from about n = 25.
FIT_DEFECT_N = 18
# Regions where classify() disagrees with predict() (NOTES.md), each about
# 1.2 to 1.6 times wider than the widest disagreement a dense scan found.
VERDICT_BELOW = 0.15    # power-1.5: generic couplings up to 15% below
                        # an adjacent resonance read resonant
VERDICT_ABOVE = 0.15    # power-0.5 and barrier-first: up to 15% above (k*pi)**2
                        # an entry changes sign in the tail
QUAD_WINDOW = 0.015     # quadratic: generic couplings within 1.5% of a
                        # resonance read resonant
QUAD_SMALL_C = 0.15     # quadratic, n = 1, c below this: L22 reads divergent

DEFECT_TRACE = "det-residual"
DEFECT_VERDICT = "classify-verdict"
DEFECT_FIT = "fit-precision"
DEFECT_CLI = "cli-edge"


def _strata(rng: random.Random, n: int, lo: float = 0.0, hi: float = 1.0,
            log: bool = False) -> list[float]:
    """One uniform draw from each of n equal slices of [lo, hi], shuffled."""
    if log:
        lo, hi = math.log(lo), math.log(hi)
    vals = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(vals)
    return [math.exp(v) for v in vals] if log else vals


def _cycle(rng: random.Random, n: int, options) -> list:
    """n choices cycling through ``options`` in shuffled order."""
    vals = [options[i % len(options)] for i in range(n)]
    rng.shuffle(vals)
    return vals


def path_spec(kind: str, c: float, rho: float) -> str:
    """SqueezePath.parse string of a path kind."""
    if kind == "adjacent":
        return "adjacent"
    if kind == "barrier-first":
        return f"barrier-first:{rho!r}"
    if kind == "linear":
        return f"linear:{c!r}"
    if kind == "quadratic":
        return f"quadratic:{c!r}"
    return f"power:{c!r}:{kind.partition('-')[2]}"


def _bisect_root(f, n: int) -> float:
    """Root of f in (n*pi, n*pi + pi/2), where f goes from + to -."""
    lo, hi = n * math.pi + 1e-9, n * math.pi + math.pi / 2 - 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return lo if abs(f(lo)) < abs(f(hi)) else hi


def resonance_equation(c: float):
    """tanh(s)/(1 + c*s*tanh(s)) - tan(s); c = 0 is the adjacent rule."""
    def f(s: float) -> float:
        th = math.tanh(s)
        return th / (1.0 + c * s * th) - math.tan(s)
    return f


def resonant_couplings(kind: str, c: float, count: int) -> list[float]:
    """lam_n = sigma_n**2, n = 1..count, of the rule's resonance equation.

    Rules without resonances use the adjacent set, the couplings at which a
    faster-closing gap would transmit.
    """
    f = resonance_equation(c if kind == "linear" else 0.0)
    return [_bisect_root(f, n) ** 2 for n in range(1, count + 1)]


ADJACENT_LAMS = resonant_couplings("adjacent", 0.0, 7)
SINE_ZEROS = [(k * math.pi) ** 2 for k in range(1, 8)]


def _verdict_defect(kind: str, c: float, lam: float, n: int) -> bool:
    """Whether a coupling lies where classify() is known to disagree with
    predict().  ``n`` is the resonance index, 0 for a generic coupling."""
    if kind == "quadratic" and n == 1:
        return c < QUAD_SMALL_C
    if n:
        return False
    if kind == "power-1.5":
        return any((1 - VERDICT_BELOW) * r <= lam <= r for r in ADJACENT_LAMS)
    if kind in ("power-0.5", "barrier-first"):
        return any(z <= lam <= (1 + VERDICT_ABOVE) * z for z in SINE_ZEROS)
    if kind == "quadratic":
        return any(abs(lam - r) <= QUAD_WINDOW * r for r in ADJACENT_LAMS)
    return False


def _sweep_scan(rng: random.Random, n: int) -> list[dict]:
    kinds = _cycle(rng, n, PATH_KINDS)
    ls = _strata(rng, n, *L_RANGE, log=True)
    lo = _strata(rng, n, 0.0, LAM_MAX / 4)
    width = _strata(rng, n, *WINDOW_RANGE)
    es = _cycle(rng, n, ENERGIES)
    cs = _strata(rng, n, *C_RANGE)
    rhos = _strata(rng, n, *RHO_RANGE)
    return [{"path": path_spec(kinds[i], cs[i], rhos[i]), "kind": kinds[i],
             "l": ls[i], "lam_min": lo[i], "lam_max": lo[i] + width[i],
             "samples": SWEEP_SAMPLES, "E": es[i],
             "check": sorted(rng.sample(range(SWEEP_SAMPLES), 8))}
            for i in range(n)]


def _limit_classify(rng: random.Random, n: int) -> list[dict]:
    kinds = _cycle(rng, n, PATH_KINDS)
    es = _cycle(rng, n, ENERGIES)
    cs = _strata(rng, n, *C_RANGE)
    rhos = _strata(rng, n, *RHO_RANGE)
    generic = _strata(rng, 6 * n, 0.5, LAM_MAX)
    ops = []
    for i in range(n):
        kind = kinds[i]
        couplings = [{"lam": lam, "n": k} for k, lam in
                     enumerate(resonant_couplings(kind, cs[i], 6), start=1)]
        couplings += [{"lam": lam, "n": 0} for lam in generic[6 * i:6 * i + 6]]
        for cp in couplings:
            cp["defect"] = (DEFECT_VERDICT if _verdict_defect(
                kind, cs[i], cp["lam"], cp["n"]) else None)
        rng.shuffle(couplings)
        ops.append({"path": path_spec(kind, cs[i], rhos[i]), "kind": kind,
                    "E": es[i], "couplings": couplings})
    return ops


def _resonance_fit(rng: random.Random, n: int) -> list[dict]:
    kinds = _cycle(rng, n, RESONANT_KINDS)
    counts = [min(COUNT_MAX, 1 + int(u)) for u in _strata(rng, n, 0.0, COUNT_MAX)]
    cs = _strata(rng, n, *C_RANGE)
    taus = _strata(rng, n, 2.5, 4.0)
    ops = []
    for i in range(n):
        kind = kinds[i]
        if kind == "power-3":
            path = f"power:{cs[i]!r}:{taus[i]!r}"
        else:
            path = path_spec(kind, cs[i], 0.0)
        ops.append({"path": path, "kind": kind,
                    "c": cs[i] if kind == "linear" else 0.0, "count": counts[i]})
    return ops


# cli-mix gives each subcommand, and the edge inputs as a seventh kind of
# call, the same share of ops.
SUBCOMMANDS = ("resonances", "transfer", "limit-trace", "sweep", "bc", "bc-fit")
EDGE = "edge"
CLI_CALLS = SUBCOMMANDS + (EDGE,)
# Inputs the CLI accepts today but mishandles (ROADMAP item 3).
CLI_EDGES = ("count-overflow", "lambda-nan", "rho-nan", "lambda-overflow",
             "alpha-inf", "sweep-overflow")


def _cli_argv(rng: random.Random, sub: str, j: int) -> list[str]:
    """argv of the j-th call of subcommand ``sub``.

    Discrete choices cycle with j, as in the other workloads, so that every
    seed has the same mix of path kinds, resonance indices and gaps.
    """
    kind = PATH_KINDS[j % len(PATH_KINDS)]
    c = rng.uniform(*C_RANGE)
    path = path_spec(kind, c, rng.uniform(*RHO_RANGE))
    res_kind = ("adjacent", "linear", "quadratic")[j % 3]
    res_path = path_spec(res_kind, c, 0.0)
    l = math.exp(rng.uniform(math.log(L_RANGE[0]), math.log(L_RANGE[1])))
    E = ENERGIES[j % len(ENERGIES)]
    if sub == "resonances":
        return ["resonances", "--path", res_path,
                "--count", str(rng.randint(1, 60))]
    if sub == "transfer":
        rho = 0.0 if j % 2 else rng.uniform(0.0, 0.5)
        argv = ["transfer", "--l", repr(l), "--rho", repr(rho), "--lambda",
                repr(rng.uniform(0.5, LAM_MAX)), "--E", repr(E)]
        return argv + (["--check"] if j % 4 < 2 else [])
    if sub == "limit-trace":
        if j % 2:
            lam = resonant_couplings(kind, c, 1 + j // 2 % 6)[-1]
        else:
            lam = rng.uniform(0.5, LAM_MAX)
        return ["limit-trace", "--path", path, "--lambda", repr(lam),
                "--E", repr(E)]
    if sub == "sweep":
        lo = rng.uniform(0.0, LAM_MAX / 4)
        return ["sweep", "--path", path, "--l", repr(l),
                "--lambda-min", repr(lo),
                "--lambda-max", repr(lo + rng.uniform(*WINDOW_RANGE)),
                "--samples", str(rng.randint(50, 400)), "--E", repr(E)]
    if sub == "bc":
        # '=' keeps argparse from reading a value such as -5e-05 as an option
        return ["bc", f"--alpha={rng.uniform(-2.0, 2.0)!r}",
                f"--beta={rng.uniform(-1.0, 1.0)!r}",
                "--lambda", repr(rng.uniform(0.5, 50.0)),
                "--k", repr(rng.uniform(0.5, 2.0))]
    return ["bc-fit", "--path", res_path, "--n", str(1 + j % 30)]


def _cli_edge_argv(rng: random.Random, edge: str) -> list[str]:
    l = repr(math.exp(rng.uniform(math.log(L_RANGE[0]), math.log(L_RANGE[1]))))
    if edge == "count-overflow":
        return ["resonances", "--path", rng.choice(("adjacent", "quadratic:1")),
                "--count", str(rng.randint(113, 150))]
    if edge == "lambda-nan":
        return ["transfer", "--l", l, "--lambda", "nan"]
    if edge == "rho-nan":
        return ["transfer", "--l", l, "--rho", "nan",
                "--lambda", repr(rng.uniform(0.5, LAM_MAX))]
    if edge == "lambda-overflow":
        return ["transfer", "--l", "1e-3", "--lambda",
                repr(rng.uniform(5.1e5, 1e6))]
    if edge == "alpha-inf":
        return ["bc", "--alpha", "inf", "--lambda", repr(rng.uniform(0.5, 50.0))]
    return ["sweep", "--path", "adjacent", "--lambda-max", "1e7",
            "--samples", str(rng.randint(50, 200))]


def _cli_mix(rng: random.Random, n: int) -> list[dict]:
    ops, seen = [], dict.fromkeys(CLI_CALLS, 0)
    for call in _cycle(rng, n, CLI_CALLS):
        j = seen[call]
        seen[call] += 1
        if call == EDGE:
            ops.append({"argv": _cli_edge_argv(rng, CLI_EDGES[j % len(CLI_EDGES)]),
                        "defect": DEFECT_CLI})
            continue
        argv = _cli_argv(rng, call, j)
        fit = call == "bc-fit" and int(argv[-1]) >= FIT_DEFECT_N
        ops.append({"argv": argv, "defect": DEFECT_FIT if fit else None})
    return ops


_GENERATORS = {"sweep-scan": _sweep_scan, "limit-classify": _limit_classify,
               "resonance-fit": _resonance_fit, "cli-mix": _cli_mix}


def generate(workload: str, seed: int) -> list[dict]:
    """The op list of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    return _GENERATORS[workload](rng, SIZES[workload])
