"""Running one op of each workload, and the per-op correctness gate.

``prepare`` turns a generated op into library arguments, ``run`` is the timed
part, and ``check`` classifies the result after timing has stopped.  ``run``
never raises: an exception leaving the library is returned as the result,
so the gate can classify it.  Every op is driven only through entry points
the library keeps: transmission_sweep, trace, classify, predict,
resonance_set, params_from_resonance, bc_from_product, bound_state and
cli.main.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import re
from dataclasses import dataclass

from workloads import (DEFECT_CLI, DEFECT_FIT, DEFECT_TRACE, DEFECT_VERDICT,
                       FIT_DEFECT_N, TRACE_GRID, resonance_equation)

OK = "ok"
TYPED = "typed_error"
WRONG = "wrong"
NON_FINITE = "non_finite"
CRASH = "crash"
CLASSES = (OK, TYPED, WRONG, NON_FINITE, CRASH)

# Non-ok classes each documented seed defect is known to produce.  A typed
# error is accepted where it is the clean failure a fix would turn the
# defect into.
DEFECT_CLASSES = {
    DEFECT_TRACE: {TYPED, WRONG},
    DEFECT_VERDICT: {WRONG},
    DEFECT_FIT: {WRONG, TYPED},
    DEFECT_CLI: {CRASH, NON_FINITE, TYPED},
}

# Defects that are a loss of precision: their borderline survivors are left
# out of accuracy_digits, which would otherwise depend on which side of a
# guard one input falls.  Their failures still count against ok_share.
PRECISION_DEFECTS = {DEFECT_TRACE, DEFECT_FIT}

SWEEP_TOL = 1e-8        # |T|^2, |R|^2 against the interface-matching oracle
FLUX_TOL = 1e-10        # |R|^2 + |T|^2 = 1
LIMIT_TOL = 1e-3        # extrapolated L11, L21 against (chi, g), as in C06
FIT_TOL = 1e-9          # chi/g round trip and kappa
ROOT_TOL = 1e-10        # resonance-equation residual, as in the CLI
CLI_TOL = 1e-12         # CLI output against the library call it wraps
DIGITS_CAP = 16.0

# The det-residual tag is set where det_rounding_bound exceeds this share of
# a check's tolerance.  A check can only fail on rounding where the bound
# exceeds the whole tolerance; the lower share also covers couplings so near
# a resonance that the lost digits change the verdict without tripping the
# check (the closest seen: a bound of 1.7e-11 against 1e-10).
DET_MARGIN = 0.1
TRACE_DET_TOL = 1e-10   # trace()'s determinant check
CLI_DET_TOL = 1e-12     # the CLI transfer subcommand's determinant check
_EPS = 2.0 ** -52

_NONFINITE = re.compile(r"(?i)(?<![a-z])(nan|inf|infinity)(?![a-z])")


@dataclass(frozen=True)
class Outcome:
    """Gate verdict on one checked result.

    ``digits`` is the number of correct significant digits of an ok result
    (None when it has no numeric check); ``fit`` is None unless the outcome
    went through a product-rule fit, then whether the fit held.
    """

    cls: str
    digits: float | None = None
    defect: str | None = None
    fit: bool | None = None

    @property
    def expected(self) -> bool:
        """Ok, or a non-ok class its documented defect produces."""
        if self.cls == OK:
            return True
        return self.defect is not None and self.cls in DEFECT_CLASSES[self.defect]


def digits(err: float) -> float:
    """Correct significant digits of a result with relative error ``err``."""
    if err <= 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(err))


def _rel(a: complex, b: complex) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _exc_class(dp, exc: BaseException) -> str:
    return TYPED if isinstance(exc, (dp.DeltaPrimeError, ValueError)) else CRASH


def _finite(*values) -> bool:
    return all(math.isfinite(abs(v)) for v in values)


def det_rounding_bound(l: float, rho: float, lam: float, E: float) -> float:
    """Bound on the rounding error of det - 1 of the closed-form transfer
    matrix, relative to the scale ``TransferMatrix.det_residual`` uses.

    Each entry is a sum of four terms that grow like 1/l; its rounding error
    is about eps times their summed size.  When the entries themselves stay
    small (near a resonance, or where an entry passes through zero) this
    error dwarfs the determinant's scale, and a determinant check fails
    although the formula is exact.  Independent of the library: the terms
    are those of the closed form, evaluated here with cmath.
    """
    k, s = math.sqrt(E), lam / (l * l)
    p, q = cmath.sqrt(complex(s - E)), cmath.sqrt(complex(s + E))
    sp, cp = cmath.sinh(p * l), cmath.cosh(p * l)
    sq, cq = cmath.sin(q * l), cmath.cos(q * l)
    skr, ckr = math.sin(k * rho), math.cos(k * rho)
    terms = (
        (cp * cq * ckr, p / q * sp * sq * ckr, p / k * sp * cq * skr, -k / q * cp * sq * skr),
        (sp * cq / p * ckr, cp * sq / q * ckr, cp * cq / k * skr, -k * sp * sq / (p * q) * skr),
        (p * sp * cq * ckr, -q * cp * sq * ckr, -k * cp * cq * skr, -p * q / k * sp * sq * skr),
        (cp * cq * ckr, -q / p * sp * sq * ckr, -k / p * sp * cq * skr, -q / k * cp * sq * skr),
    )
    a, b, c, d = (abs(sum(t)) for t in terms)
    ta, tb, tc, td = (sum(abs(x) for x in t) for t in terms)
    scale = max(1.0, a * d, b * c)
    return _EPS * (ta * d + a * td + tb * c + b * tc) / scale


def det_defect(widths, lam: float, E: float, tol: float) -> bool:
    """Whether a determinant check of tolerance ``tol`` can fail on rounding
    at one of the (l, rho) ``widths``: the det-residual defect."""
    return any(det_rounding_bound(l, rho, lam, E) > DET_MARGIN * tol
               for l, rho in widths)


def trace_widths(path) -> list[tuple[float, float]]:
    """The (l, rho) points of trace() on TRACE_GRID along ``path``."""
    l0, l1, n = TRACE_GRID
    ls = [l0 * (l1 / l0) ** (i / (n - 1)) for i in range(n)]
    return [(l, path.rho_of(l)) for l in ls]


# --- sweep-scan ------------------------------------------------------------

def _prep_sweep(dp, op):
    return (dp.SqueezePath.parse(op["path"]), op["l"], op["lam_min"],
            op["lam_max"], op["samples"], op["E"])


def _run_sweep(dp, args):
    try:
        return dp.transmission_sweep(*args)
    except Exception as exc:  # classified by the gate
        return exc


def _check_sweep(dp, op, args, res):
    if isinstance(res, BaseException):
        return [Outcome(_exc_class(dp, res))]
    path, l, _, _, _, E = args
    if not _finite(*res.T2, *res.R2):
        return [Outcome(NON_FINITE)]
    if max(abs(t + r - 1.0) for t, r in zip(res.T2, res.R2)) > FLUX_TOL:
        return [Outcome(WRONG)]
    k, rho = math.sqrt(E), path.rho_of(l)
    step = (op["lam_max"] - op["lam_min"]) / (op["samples"] - 1)
    err = 0.0
    for i in op["check"]:
        lam = float(res.lambdas[i])
        if abs(lam - (op["lam_min"] + i * step)) > 1e-12 * max(1.0, abs(lam)):
            return [Outcome(WRONG)]
        ref = dp.scattering(dp.piecewise_transfer(
            dp.RectProfile(l=l, rho=rho, lam=lam), E), k)
        # probabilities are compared against the unit incoming flux
        err = max(err, abs(res.T2[i] - ref.T2), abs(res.R2[i] - ref.R2))
    return [Outcome(OK if err <= SWEEP_TOL else WRONG, digits(err))]


# --- limit-classify --------------------------------------------------------

def _prep_limit(dp, op):
    return (dp.SqueezePath.parse(op["path"]), op["E"],
            [cp["lam"] for cp in op["couplings"]])


def _run_limit(dp, args):
    path, E, lams = args
    out = []
    for lam in lams:
        try:
            verdict = dp.classify(dp.trace(path, lam, E, *TRACE_GRID))
            out.append((verdict, dp.predict(path, lam)))
        except Exception as exc:  # classified by the gate
            out.append(exc)
    return out


def _check_coupling(dp, res, defect) -> Outcome:
    if isinstance(res, BaseException):
        return Outcome(_exc_class(dp, res), defect=defect)
    verdict, predicted = res
    values = [v.value for v in verdict.entries.values() if v.value is not None]
    if not _finite(*values):
        return Outcome(NON_FINITE, defect=defect)
    if predicted is None:
        return Outcome(OK if verdict.separated else WRONG, defect=defect)
    if verdict.variant != "resonant":
        return Outcome(WRONG, defect=defect)
    e = verdict.entries
    err = max(_rel(e["L11"].value, predicted.l11),
              abs(e["L21"].value - predicted.l21) / max(1.0, abs(predicted.l21)))
    if err > LIMIT_TOL:
        # The verdict agrees, so the classify-verdict defect does not cover
        # a value that misses (chi, g).
        return Outcome(WRONG, defect=None if defect == DEFECT_VERDICT else defect)
    return Outcome(OK, digits(err), defect)


def _check_limit(dp, op, args, res):
    path, E, _ = args
    widths = trace_widths(path)
    return [_check_coupling(dp, r, DEFECT_TRACE if det_defect(
                widths, cp["lam"], E, TRACE_DET_TOL) else cp["defect"])
            for cp, r in zip(op["couplings"], res)]


# --- resonance-fit ---------------------------------------------------------

def _prep_fit(dp, op):
    return dp.SqueezePath.parse(op["path"]), op["count"]


def _run_fit(dp, args):
    try:
        roots = dp.resonance_set(*args)
    except Exception as exc:  # classified by the gate
        return exc
    out = []
    for r in roots:
        try:
            cm = dp.bc_from_product(
                dp.params_from_resonance(r.lam, r.chi, r.g), r.lam)
            out.append((r, cm, dp.bound_state(cm)))
        except Exception as exc:  # classified by the gate
            out.append((r, exc))
    return out


def _check_root(dp, op, n, item) -> Outcome:
    r = item[0]
    # The root itself carries no defect tag: only the fit does.
    if not _finite(r.sigma, r.lam, r.chi, r.g, r.kappa):
        return Outcome(NON_FINITE)
    f = resonance_equation(op["c"])
    if (r.n != n or not n * math.pi < r.sigma < n * math.pi + math.pi / 2
            or abs(f(r.sigma)) > ROOT_TOL or _rel(r.lam, r.sigma ** 2) > 1e-15):
        return Outcome(WRONG)
    defect = DEFECT_FIT if n >= FIT_DEFECT_N else None
    if isinstance(item[1], BaseException):
        return Outcome(_exc_class(dp, item[1]), defect=defect, fit=False)
    _, cm, kappas = item
    if not _finite(cm.l11, cm.l21, *kappas):
        return Outcome(NON_FINITE, defect=defect, fit=False)
    fit_err = max(_rel(cm.l11, r.chi), abs(cm.l21 - r.g) / max(1.0, abs(r.g)))
    if fit_err > FIT_TOL:
        return Outcome(WRONG, defect=defect, fit=False)
    if r.kappa > 0.0:
        kappa_err = _rel(kappas[0], r.kappa) if len(kappas) == 1 else math.inf
    else:
        kappa_err = 0.0 if not kappas else math.inf
    if kappa_err > FIT_TOL:
        return Outcome(WRONG, defect=defect, fit=True)
    return Outcome(OK, digits(max(fit_err, kappa_err)), defect, fit=True)


def _check_fit(dp, op, args, res):
    if isinstance(res, BaseException):
        return [Outcome(_exc_class(dp, res))]
    if len(res) != op["count"]:
        return [Outcome(WRONG)]
    return [_check_root(dp, op, n, item) for n, item in enumerate(res, start=1)]


# --- cli-mix ---------------------------------------------------------------

def _prep_cli(dp, op):
    return list(op["argv"])


def _run_cli(dp, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dp.cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code
    except Exception as exc:  # an escaping exception is a crash
        code = exc
    return code, out.getvalue(), err.getvalue()


def _table(text: str) -> tuple[list[dict], dict]:
    """Rows of the CSV part and the JSON block appended after it."""
    table, _, extra = text.partition("\n\n")
    lines = table.strip().split("\n")
    head = lines[0].split(",")
    rows = [dict(zip(head, line.split(","))) for line in lines[1:]]
    return rows, (json.loads(extra) if extra.strip() else {})


def _flags(argv: list[str]) -> dict:
    """Option values of an argv written as '--name value' or '--name=value'."""
    out = {}
    for i, arg in enumerate(argv):
        name, eq, value = arg.partition("=")
        if eq:
            out[name] = value
        elif (arg.startswith("--") and i + 1 < len(argv)
              and not argv[i + 1].startswith("--")):
            out[arg] = argv[i + 1]
    return out


def _cli_expected(dp, argv) -> list[tuple[str, list]]:
    """(column, library values) pairs the CLI output must reproduce."""
    a = _flags(argv)
    sub = argv[0]
    if sub == "resonances":
        rs = dp.resonance_set(dp.SqueezePath.parse(a["--path"]), int(a["--count"]))
        return [(col, [getattr(r, attr) for r in rs]) for col, attr in
                (("n", "n"), ("sigma", "sigma"), ("lambda", "lam"),
                 ("chi", "chi"), ("g", "g"), ("kappa", "kappa"))]
    if sub == "transfer":
        tm = dp.transfer_matrix(dp.RectProfile(
            l=float(a["--l"]), rho=float(a.get("--rho", 0.0)),
            lam=float(a["--lambda"])), float(a.get("--E", 1.0)))
        return [(k, [getattr(tm, k.lower())]) for k in ("L11", "L12", "L21", "L22")]
    if sub == "limit-trace":
        tr = dp.trace(dp.SqueezePath.parse(a["--path"]), float(a["--lambda"]),
                      float(a.get("--E", 1.0)), *TRACE_GRID)
        return ([(k, list(tr.entries[:, j]))
                 for j, k in enumerate(("L11", "L12", "L21", "L22"))]
                + [("variant", [dp.classify(tr).variant])])
    if sub == "sweep":
        res = dp.transmission_sweep(
            dp.SqueezePath.parse(a["--path"]), float(a.get("--l", 1e-3)),
            float(a.get("--lambda-min", 1.0)), float(a["--lambda-max"]),
            int(a["--samples"]), float(a.get("--E", 1.0)))
        return [("T2", list(res.T2)), ("R2", list(res.R2))]
    if sub == "bc":
        cm = dp.bc_from_product(dp.ProductParams(
            alpha=float(a["--alpha"]), beta=float(a.get("--beta", 0.0))),
            float(a["--lambda"]))
        return [("A", [cm.l11]), ("B", [cm.l21])]
    r = dp.resonance_set(dp.SqueezePath.parse(a["--path"]), int(a["--n"]))[-1]
    p = dp.params_from_resonance(r.lam, r.chi, r.g)
    return [("alpha", [p.alpha]), ("beta", [p.beta])]


def _cli_defect(dp, op, argv) -> str | None:
    """The op's tag, or det-residual where a determinant check can fail."""
    if op["defect"] is not None or argv[0] not in ("transfer", "limit-trace"):
        return op["defect"]
    a = _flags(argv)
    if argv[0] == "transfer":
        widths, tol = [(float(a["--l"]), float(a["--rho"]))], CLI_DET_TOL
    else:
        widths = trace_widths(dp.SqueezePath.parse(a["--path"]))
        tol = TRACE_DET_TOL
    if det_defect(widths, float(a["--lambda"]), float(a["--E"]), tol):
        return DEFECT_TRACE
    return None


def _check_cli(dp, op, argv, res):
    code, out, _ = res
    defect = _cli_defect(dp, op, argv)
    if isinstance(code, BaseException):
        return [Outcome(CRASH, defect=defect)]
    if code in (2, 3):
        return [Outcome(TYPED, defect=defect,
                        fit=False if argv[0] == "bc-fit" else None)]
    if code != 0:
        return [Outcome(CRASH, defect=defect)]
    if _NONFINITE.search(out):
        return [Outcome(NON_FINITE, defect=defect)]
    rows, extra = _table(out)
    err = 0.0
    for col, want in _cli_expected(dp, argv):
        if col == "variant":
            got = [extra["verdict"]["variant"]]
            err = max(err, 0.0 if got == want else math.inf)
            continue
        got = [complex(row[col]) for row in rows]
        if len(got) != len(want):
            return [Outcome(WRONG, defect=defect)]
        err = max([err] + [_rel(g, complex(w)) for g, w in zip(got, want)])
    fit = err <= CLI_TOL if argv[0] == "bc-fit" else None
    if err > CLI_TOL:
        return [Outcome(WRONG, defect=defect, fit=fit)]
    return [Outcome(OK, digits(err), defect, fit)]


WORKLOAD_OPS = {
    "sweep-scan": (_prep_sweep, _run_sweep, _check_sweep),
    "limit-classify": (_prep_limit, _run_limit, _check_limit),
    "resonance-fit": (_prep_fit, _run_fit, _check_fit),
    "cli-mix": (_prep_cli, _run_cli, _check_cli),
}
