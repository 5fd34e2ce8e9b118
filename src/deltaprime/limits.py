"""Numerical zero-range limits of the barrier-well pair along squeeze paths.

The transfer-matrix entries are traced along a geometrically shrinking
sequence of widths, each entry's limit is classified as divergent or
convergent from a log-log slope fit plus Richardson extrapolation, and the
outcome is compared against the analytic prediction: separated half-lines
everywhere except on resonance-carrying paths at resonant couplings.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import field, fields

import numpy as np

from ._record import record
from .boundary import (ConnectionMatrix, amplitudes, det_residual,
                       resonant_matrix)
from .errors import InvariantViolation, PrecisionFloorError, require
from .paths import SqueezePath
from .resonance import _nth_root, _record, has_resonances
from .transfer import PRECISION_FLOOR, transfer_entries

__all__ = [
    "LimitTrace",
    "EntryVerdict",
    "LimitVerdict",
    "Peak",
    "SweepResult",
    "trace",
    "classify",
    "predict",
    "transmission_sweep",
]

ENTRY_NAMES = ("L11", "L12", "L21", "L22")

DIVERGENT = "divergent"
CONVERGES = "converges"

# The slowest divergence among the power-law squeeze rules is the
# l**(tau-2) growth of the lower-left entry, exponent -0.5 at tau = 1.5,
# while genuinely convergent entries fit flat or decaying slopes; the
# threshold splits that gap.
DIVERGENCE_SLOPE = -0.25
_TINY_TAIL = 1e-6
_RICHARDSON_DEPTH = 8
_MATCH_TOL = 1e-9

# Couplings per transfer-kernel call in a sweep: bounds the kernel's
# temporaries (a few dozen arrays of this length) on long grids, while the
# CLI default of 2000 samples stays one call.
SWEEP_BLOCK = 4096

# Size caps, checked before anything is allocated.  A trace needs a few
# dozen widths; 10**4 keeps the width-grid cache below
# _GRID_CACHE_SIZE * MAX_TRACE_POINTS * 8 bytes = 1.3 MB.  A sweep holds
# its couplings, |T|^2 and |R|^2 in full: 96 MB at MAX_SWEEP_SAMPLES.
MAX_TRACE_POINTS = 10_000
MAX_SWEEP_SAMPLES = 4_000_000
_GRID_CACHE_SIZE = 16


def _eq(self, other):
    """``==`` by compared field, arrays by value: the generated one compares
    the fields as tuple members, which raises on arrays."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name))
             for f in fields(self) if f.compare)
    return all(a is b or (np.array_equal(a, b) if isinstance(a, np.ndarray)
                          else a == b) for a, b in pairs)


@record
class LimitTrace:
    """Transfer-matrix entries along a shrinking-width sequence.

    ``entries`` has shape (points, 4) ordered (L11, L12, L21, L22), a
    transposed view of one row per entry; the closed forms are real.
    ``l_values`` is shared by every trace on the same grid and is read-only;
    ``_design`` is that grid's cached slope design, which :func:`classify`
    reads.
    """

    path: SqueezePath
    lam: float
    E: float
    l_values: np.ndarray
    rho_values: np.ndarray
    entries: np.ndarray
    _design: tuple = field(repr=False, compare=False)
    __eq__ = _eq

    @property
    def points(self) -> int:
        return len(self.l_values)


@record
class EntryVerdict:
    """Limit classification of one matrix entry.

    Divergent verdicts carry the fitted growth exponent (log|entry| per
    log l, negative when the entry grows as l shrinks); convergent ones the
    extrapolated value and an error estimate.
    """

    kind: str
    exponent: float | None = None
    value: float | None = None
    error: float | None = None

    @property
    def is_divergent(self) -> bool:
        return self.kind == DIVERGENT


@record
class LimitVerdict:
    """Per-entry verdicts for one trace."""

    entries: dict[str, EntryVerdict]

    @property
    def separated(self) -> bool:
        return self.entries["L21"].is_divergent

    @property
    def variant(self) -> str:
        if self.separated:
            return "separated"
        if any(v.is_divergent for v in self.entries.values()):
            return "mixed"
        return "resonant"


def _powers(ratio: float) -> tuple:
    """(ratio**j, ratio**j - 1) for j = 1 .. ``_RICHARDSON_DEPTH``."""
    return tuple((ratio ** j, ratio ** j - 1.0)
                 for j in range(1, _RICHARDSON_DEPTH + 1))


@functools.lru_cache(maxsize=_GRID_CACHE_SIZE, typed=True)
def _width_grid(l_start: float, l_end: float, points: int) -> tuple:
    """``np.geomspace(l_start, l_end, points)``, built once per grid and
    shared read-only, and its slope design (x, x @ x, _powers(ratio)) for
    :func:`classify`, where x is the centred log of the grid's tail."""
    ls = np.geomspace(l_start, l_end, points)
    ls.flags.writeable = False
    x = np.log(ls[len(ls) // 2:])
    x -= x.mean()
    try:
        powers = _powers(float(ls[0] / ls[1]))
    except OverflowError:
        raise ValueError(
            f"l_start = {l_start}, l_end = {l_end}, points = {points}: the "
            f"grid ratio**{_RICHARDSON_DEPTH} overflows") from None
    return ls, (x, x @ x, powers)


def trace(path: SqueezePath, lam: float, E: float,
          l_start: float, l_end: float, points: int) -> LimitTrace:
    """Evaluate the transfer matrix on a geometric width grid along ``path``.

    Requires 8 <= points <= ``MAX_TRACE_POINTS``, a finite l_start > l_end
    >= the double-precision floor (grid ratio**8 finite) and a finite
    lam >= 0; every point is checked against the unit-determinant invariant.
    """
    if not points >= 8:
        raise ValueError(f"need at least 8 trace points, got {points}")
    if not points <= MAX_TRACE_POINTS:
        raise ValueError(f"points = {points} exceeds the cap of "
                         f"{MAX_TRACE_POINTS} trace points")
    if not l_end >= PRECISION_FLOOR:
        raise PrecisionFloorError(
            f"l_end = {l_end} below the precision floor {PRECISION_FLOOR}")
    if not l_end < l_start < math.inf:
        raise ValueError(f"need a finite l_start > l_end, got l_start = "
                         f"{l_start}, l_end = {l_end}")
    if not 0 <= lam < math.inf:
        raise ValueError(f"coupling must be finite and >= 0, got {lam}")

    ls, design = _width_grid(l_start, l_end, points)
    rho = path.rho_of(ls)  # a scalar on the constant-gap rules
    entries = transfer_entries(ls, rho, lam, E)
    with np.errstate(over="ignore", invalid="ignore"):  # NaN fails the check
        residual = det_residual(*entries)
    require(residual <= 1e-10, InvariantViolation,
            "determinant residual {} at l = {}", residual, ls)
    return LimitTrace(path=path, lam=lam, E=E, l_values=ls,
                      rho_values=np.zeros(points) + rho,
                      entries=np.array(entries).T, _design=design)


def _richardson(values: Sequence[float], powers) -> tuple[float, float]:
    """Limit estimate for a geometric-grid sequence, given :func:`_powers`
    of its common ratio, with a power-series error model; the error
    estimate is the smallest change produced by an extrapolation level.

    Level j of the extrapolation triangle is only read at its last element,
    which depends on the last j + 1 values, so only the last
    ``_RICHARDSON_DEPTH + 1`` values are combined, one row at a time.
    """
    row: list[float] = []
    for value in values[-min(len(values) - 1, _RICHARDSON_DEPTH) - 1:]:
        prev, cur = row, float(value)
        row = [cur]
        for (f, f1), a in zip(powers, prev):
            cur = (f * cur - a) / f1
            row.append(cur)
    best, best_err = row[0], abs(row[0] - prev[0])
    for lower, level in zip(row, row[1:]):
        if abs(level - lower) < best_err:
            best, best_err = level, abs(level - lower)
    return best, best_err


def classify(tr: LimitTrace) -> LimitVerdict:
    """Classify each entry's limit from the trace.

    An entry is divergent when the least-squares log-log slope of its
    magnitude against l over the last half of the trace is at or below
    ``DIVERGENCE_SLOPE`` (magnitudes growing as l shrinks give negative
    slopes).  Entries that stay below 1e-6 in the tail, or change sign
    there, carry no usable slope and are classified by their extrapolated
    value instead.  The four entries are tested together, one row each.
    """
    half = tr.points // 2
    x, xx, powers = tr._design
    tail = tr.entries[half:].T  # one row per entry
    size = np.abs(tail)
    # one reduction per test; fmin skips NaN, so a NaN marks no sign change
    flat = ((size.max(axis=1) < _TINY_TAIL) | (np.fmin.reduce(
        tail[:, :-1] * tail[:, 1:], axis=1) <= 0.0)).tolist()
    # least-squares slopes in closed form, one dot product per sloped row:
    # np.polyfit costs several times more on these few points, and a
    # strided column or a matrix-vector product rounds differently; the
    # mean is y.mean's own sum and division, without its Python wrapper
    with np.errstate(divide="ignore", invalid="ignore"):  # flat rows may hold 0
        y = np.log(size)
        y -= np.add.reduce(y, axis=1, keepdims=True) / y.shape[1]
    last_values = tr.entries[-_RICHARDSON_DEPTH - 1:].T.tolist()
    verdicts: dict[str, EntryVerdict] = {}
    for j, name in enumerate(ENTRY_NAMES):
        if not flat[j]:
            slope = float(x @ y[j] / xx)
            if slope <= DIVERGENCE_SLOPE:
                verdicts[name] = EntryVerdict(kind=DIVERGENT, exponent=slope)
                continue
        est, err = _richardson(last_values[j], powers)
        verdicts[name] = EntryVerdict(kind=CONVERGES, value=est, error=err)
    return LimitVerdict(entries=verdicts)


def predict(path: SqueezePath, lam: float) -> ConnectionMatrix | None:
    """Analytic zero-range limit of ``path`` at coupling ``lam``.

    Returns the limiting connection matrix when the path carries resonances
    and ``lam`` sits on one (within 1e-9), else None, meaning the
    half-lines decouple and the point is opaque.  Only the two brackets
    around sqrt(lam) are read, from the shared root table on c = 0 rules.
    """
    if not 0 < lam < math.inf:
        raise ValueError(f"coupling must be positive and finite, got {lam}")
    if not has_resonances(path):
        return None
    guess = int(math.sqrt(lam) // math.pi)
    for n in (guess, guess + 1):
        if n < 1:
            continue
        sigma, chi = _nth_root(path, n)
        if abs(lam - sigma * sigma) <= _MATCH_TOL:
            r = _record(path, sigma, chi)
            return resonant_matrix(r.chi, r.g)
    return None


@record
class Peak:
    """Refined location of a strict local transmission maximum."""

    lam: float
    T2: float


@record
class SweepResult:
    """Transmission curve over a coupling grid at fixed geometry."""

    path: SqueezePath
    l: float
    E: float
    lambdas: np.ndarray
    T2: np.ndarray
    R2: np.ndarray
    peaks: list[Peak]
    __eq__ = _eq


def transmission_sweep(path: SqueezePath, l: float, lam_min: float,
                       lam_max: float, samples: int, E: float = 1.0) -> SweepResult:
    """|T|^2 and |R|^2 over an evenly spaced coupling grid at width ``l``.

    Requires 2 <= samples <= ``MAX_SWEEP_SAMPLES``.  The grid is evaluated
    in blocks of ``SWEEP_BLOCK`` couplings.  Peaks are
    strict local maxima of |T|^2 over the grid, refined by a parabola
    through the three surrounding samples (the refinement never leaves the
    neighbouring half-intervals).
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    if not samples <= MAX_SWEEP_SAMPLES:
        raise ValueError(f"samples = {samples} exceeds the cap of "
                         f"{MAX_SWEEP_SAMPLES} sweep samples")
    if not l >= PRECISION_FLOOR:
        raise PrecisionFloorError(
            f"l = {l} below the precision floor {PRECISION_FLOOR}")
    for name, value in (("l", l), ("lam_min", lam_min), ("lam_max", lam_max)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not lam_max > lam_min:
        raise ValueError(f"need lam_max > lam_min, got {lam_max} <= {lam_min}")

    lams = np.linspace(lam_min, lam_max, samples)
    rho = path.rho_of(l)
    t2 = np.empty(samples)
    r2 = np.empty(samples)
    for start in range(0, samples, SWEEP_BLOCK):
        block = slice(start, start + SWEEP_BLOCK)
        entries = transfer_entries(l, rho, lams[block], E)
        amp = amplitudes(*entries, math.sqrt(E), 2.0 * l + rho)
        t2[block], r2[block] = amp.T2, amp.R2

    h = lams[1] - lams[0]
    i = np.flatnonzero((t2[1:-1] > t2[:-2]) & (t2[1:-1] > t2[2:])) + 1
    denom = t2[i - 1] - 2.0 * t2[i] + t2[i + 1]
    off = np.divide(0.5 * h * (t2[i - 1] - t2[i + 1]), denom,
                    out=np.zeros(len(i)), where=denom != 0.0)
    peaks = [Peak(lam=float(lam), T2=float(t)) for lam, t in
             zip(lams[i] + off, t2[i])]
    return SweepResult(path=path, l=l, E=E, lambdas=lams, T2=t2, R2=r2,
                       peaks=peaks)
