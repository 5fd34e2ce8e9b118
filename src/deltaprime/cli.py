"""Command-line front end.

Subcommands: resonances, transfer, limit-trace, sweep, bc, bc-fit.  Output
is deterministic CSV (header row, shortest round-trip floats) or JSON with
the same key names; commands whose result has a non-tabular part (limit
verdicts, peak lists, bound states) append it as a JSON block.  Each
subcommand returns its columns and that block, and :func:`main` writes
them; argparse parses the options and the library checks them.  Exit codes:
0 success, 2 for an option argparse rejects (a path spec too) or an
unwritable ``--out``, 3 with the library's message for any other failure.

Only the subcommands that build arrays load numpy, when they run.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import sys

from .boundary import (ProductParams, bc_from_product, bound_state,
                       params_from_resonance, scattering)
from .errors import DeltaPrimeError, InvariantViolation
from .paths import SqueezePath
from .resonance import _nth_root, _records, resonance_set, resonant_scattering

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

_PATH_HELP = ("adjacent | barrier-first:RHO | linear[:C] | quadratic[:C] | "
              "power:C:TAU")
_RESONANT_PATH_HELP = ("adjacent | linear[:C] | quadratic[:C] | "
                       "power:C:TAU (TAU = 1 or >= 2)")


def _path(spec: str) -> SqueezePath:
    """argparse type of ``--path``: a bad spec exits 2 with its message."""
    try:
        return SqueezePath.parse(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _fmt(v) -> str:
    """CSV cell: shortest round-trip decimal; complex kept only if needed.
    numpy's integers register as ``numbers.Integral``."""
    if isinstance(v, numbers.Integral):
        return str(int(v))
    if isinstance(v, complex) and v.imag != 0.0:  # a NaN imaginary part too
        return repr(complex(v))
    return repr(float(v.real))


def _cells(col) -> list[str]:
    """CSV cells of one column; a float64 array in one list repr (a float's
    repr never contains ", ", so each cell is exactly ``repr(float(v))``).
    No array exists before numpy is loaded."""
    np = sys.modules.get("numpy")
    if (np is not None and isinstance(col, np.ndarray)
            and col.dtype == np.float64):
        return repr(col.tolist())[1:-1].split(", ")
    return [_fmt(v) for v in col]


def _value(cell: str):
    """The value ``json`` writes as a CSV cell: an int, a float (NaN and
    +-inf too) or a complex repr ("...j" or "(...j)") kept as a string."""
    if cell[-1] in "j)":
        return cell
    return int(cell) if cell.lstrip("-").isdigit() else float(cell)


def _emit(args, cols: dict, extras: dict | None = None) -> None:
    """Write a table given as columns: name -> array or list, all one length.
    JSON is ``{"rows": [...], **extras}`` over the CSV cells."""
    cells = [_cells(col) for col in cols.values()]
    if args.format == "json":
        rows = [dict(zip(cols, map(_value, row))) for row in zip(*cells)]
        text = json.dumps({"rows": rows, **(extras or {})}, indent=2) + "\n"
    else:
        lines = [",".join(cols), *map(",".join, zip(*cells))]
        text = "\n".join(lines) + "\n"
        if extras:
            text += "\n" + json.dumps(extras, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_resonances(args) -> tuple[dict, dict]:
    import numpy as np

    k = 1.0
    rs = resonance_set(args.path, args.count)
    sigma, lam, chi, g, kappa = np.array(
        [(r.sigma, r.lam, r.chi, r.g, r.kappa) for r in rs]).T
    amp = resonant_scattering(chi, g, k)
    return {"n": [r.n for r in rs], "sigma": sigma, "lambda": lam, "chi": chi,
            "g": g, "kappa": kappa, "R": amp.R, "T": amp.T,
            "k": [k] * len(rs)}, {}


def cmd_transfer(args) -> tuple[dict, dict]:
    from .profile import RectProfile
    from .transfer import piecewise_transfer, transfer_matrix

    profile = RectProfile(l=args.l, rho=args.rho, lam=args.lam)
    tm = transfer_matrix(profile, args.E)
    amp = scattering(tm, math.sqrt(args.E))
    cols = {"l": [args.l], "rho": [args.rho], "lambda": [args.lam],
            "E": [args.E], "L11": [tm.l11], "L12": [tm.l12], "L21": [tm.l21],
            "L22": [tm.l22], "det": [tm.det], "R": [amp.R], "T": [amp.T],
            "T2": [amp.T2],
            "conservation_residual": [amp.conservation_residual]}
    if args.check:
        ref = piecewise_transfer(profile, args.E)
        a, b = [(m.l11, m.l12, m.l21, m.l22) for m in (tm, ref)]
        scale = max(1.0, *map(abs, a + b))
        resid = max(abs(x - y) for x, y in zip(a, b)) / scale
        if not resid <= 1e-10:
            raise InvariantViolation(f"oracle disagreement {resid}")
        cols["oracle_residual"] = [resid]
    return cols, {}


def cmd_limit_trace(args) -> tuple[dict, dict]:
    from .limits import classify, trace

    tr = trace(args.path, args.lam, args.E, args.l_start, args.l_end,
               args.points)
    verdict = classify(tr)
    block = {k: {"kind": v.kind, "exponent": v.exponent, "value": v.value,
                 "error": v.error} for k, v in verdict.entries.items()}
    block["variant"] = verdict.variant
    e = tr.entries.T
    return ({"l": tr.l_values, "rho": tr.rho_values, "L11": e[0],
             "L12": e[1], "L21": e[2], "L22": e[3],
             "det": e[0] * e[3] - e[1] * e[2]}, {"verdict": block})


def cmd_sweep(args) -> tuple[dict, dict]:
    from .limits import transmission_sweep

    res = transmission_sweep(args.path, args.l, args.lambda_min,
                             args.lambda_max, args.samples, args.E)
    peaks = [{"lambda": p.lam, "T2": p.T2} for p in res.peaks]
    return ({"lambda": res.lambdas, "T2": res.T2, "R2": res.R2},
            {"peaks": peaks})


def cmd_bc(args) -> tuple[dict, dict]:
    cm = bc_from_product(ProductParams(alpha=args.alpha, beta=args.beta),
                         args.lam)
    amp = scattering(cm, args.k)
    return {"alpha": [args.alpha], "beta": [args.beta], "lambda": [args.lam],
            "k": [args.k], "A": [cm.l11], "B": [cm.l21], "R": [amp.R],
            "T": [amp.T]}, {"bound_states": bound_state(cm)}


def cmd_bc_fit(args) -> tuple[dict, dict]:
    r = _records(args.path, args.n, (_nth_root(args.path, args.n),))[0]
    params = params_from_resonance(r.lam, r.chi, r.g)
    cm = bc_from_product(params, r.lam)
    residual = max(abs(cm.l11 - r.chi) / max(1.0, abs(r.chi)),
                   abs(cm.l21 - r.g) / max(1.0, abs(r.g)))
    return {"n": [r.n], "lambda": [r.lam], "chi": [r.chi], "g": [r.g],
            "alpha": [params.alpha], "beta": [params.beta],
            "residual": [residual]}, {}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    fmt_cls = argparse.ArgumentDefaultsHelpFormatter
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format")
    common.add_argument("--out", default=None, metavar="PATH",
                        help="write output to PATH instead of stdout")

    parser = argparse.ArgumentParser(
        prog="deltaprime", formatter_class=fmt_cls,
        description="Resonant tunnelling across the derivative-of-delta "
                    "point interaction: resonance tables, transfer matrices, "
                    "squeeze-path limits, transmission sweeps and "
                    "boundary-condition fits.")
    sub = parser.add_subparsers(dest="command", required=True)
    path = dict(default="adjacent", type=_path)
    lam = dict(dest="lam", type=float, required=True, help="coupling constant")

    p = sub.add_parser("resonances", parents=[common], formatter_class=fmt_cls,
                       help="resonance table for a squeeze path")
    p.add_argument("--path", **path, help=_RESONANT_PATH_HELP)
    p.add_argument("--count", type=int, default=5, help="number of resonances")
    p.set_defaults(func=cmd_resonances)

    p = sub.add_parser("transfer", parents=[common], formatter_class=fmt_cls,
                       help="transfer matrix and scattering at one point")
    p.add_argument("--l", type=float, required=True, help="barrier/well width")
    p.add_argument("--rho", type=float, default=0.0, help="gap width")
    p.add_argument("--lambda", **lam)
    p.add_argument("--E", type=float, default=1.0, help="energy")
    p.add_argument("--check", action="store_true",
                   help="also run the interface-matching oracle and report "
                        "the comparison residual")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("limit-trace", parents=[common], formatter_class=fmt_cls,
                       help="trace matrix entries along a squeeze path")
    p.add_argument("--path", **path, help=_PATH_HELP)
    p.add_argument("--lambda", **lam)
    p.add_argument("--E", type=float, default=1.0, help="probe energy")
    p.add_argument("--l-start", type=float, default=1e-1, help="largest width")
    p.add_argument("--l-end", type=float, default=1e-4, help="smallest width")
    p.add_argument("--points", type=int, default=13,
                   help="trace points (minimum 8)")
    p.set_defaults(func=cmd_limit_trace)

    p = sub.add_parser("sweep", parents=[common], formatter_class=fmt_cls,
                       help="transmission curve over a coupling grid")
    p.add_argument("--path", **path, help=_PATH_HELP)
    p.add_argument("--l", type=float, default=1e-3, help="barrier/well width")
    p.add_argument("--lambda-min", dest="lambda_min", type=float, default=1.0,
                   help="lower end of the coupling grid")
    p.add_argument("--lambda-max", dest="lambda_max", type=float, default=60.0,
                   help="upper end of the coupling grid")
    p.add_argument("--samples", type=int, default=2000, help="grid samples")
    p.add_argument("--E", type=float, default=1.0, help="energy")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bc", parents=[common], formatter_class=fmt_cls,
                       help="boundary conditions of the weighted product rule")
    p.add_argument("--alpha", type=float, required=True, help="side weight")
    p.add_argument("--beta", type=float, default=0.0, help="jump weight")
    p.add_argument("--lambda", **lam)
    p.add_argument("--k", type=float, default=1.0, help="wavenumber")
    p.set_defaults(func=cmd_bc)

    p = sub.add_parser("bc-fit", parents=[common], formatter_class=fmt_cls,
                       help="fit product weights to a resonance")
    p.add_argument("--path", **path, help=_RESONANT_PATH_HELP)
    p.add_argument("--n", type=int, required=True, help="resonance index")
    p.set_defaults(func=cmd_bc_fit)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _emit(args, *args.func(args))
    except (DeltaPrimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:  # the output could not be written
        print(f"error: cannot write {args.out or 'stdout'}: {exc.strerror}",
              file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
