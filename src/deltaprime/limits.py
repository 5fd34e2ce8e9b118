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
import operator
from dataclasses import fields

import numpy as np

from ._record import record
from .boundary import (_quiet, ConnectionMatrix, amplitudes, det_residual,
                       resonant_matrix)
from .errors import InvariantViolation, PrecisionFloorError, require
from .paths import SqueezePath
from .resonance import _nth_root, _record, has_resonances
from .transfer import (PRECISION_FLOOR, _check_energy, _entries, _gap,
                       transfer_entries)

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
# dozen widths; 10**4 keeps the width-grid and trace-plan caches below
# 8.4 MB: each of _GRID_CACHE_SIZE grids holds MAX_TRACE_POINTS widths, a
# slope vector over half of them and at most 10 x 9 Richardson weights
# (1.9 MB), and each of as many plans at most five arrays of MAX_TRACE_POINTS
# (its grid, l**2, rho, cos(k*rho), sin(k*rho): 6.4 MB), in 8-byte floats.  A
# sweep holds its couplings, |T|^2 and |R|^2 in full: 96 MB at
# MAX_SWEEP_SAMPLES.
MAX_TRACE_POINTS = 10_000
MAX_SWEEP_SAMPLES = 4_000_000
_GRID_CACHE_SIZE = 16


def _eq(self, other):
    """``==`` by field, arrays by value: the generated one compares the
    fields as tuple members, which raises on arrays."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name))
             for f in fields(self))
    return all(a is b or (np.array_equal(a, b) if isinstance(a, np.ndarray)
                          else a == b) for a, b in pairs)


@record
class LimitTrace:
    """Transfer-matrix entries along a shrinking-width sequence.

    ``entries`` has shape (points, 4) ordered (L11, L12, L21, L22), a
    transposed view of one row per entry; the closed forms are real.
    ``l_values`` is shared by every trace on the same grid and
    ``rho_values`` by every trace with the same path, energy and grid; both
    are read-only.
    """

    path: SqueezePath
    lam: float
    E: float
    l_values: np.ndarray
    rho_values: np.ndarray
    entries: np.ndarray
    __eq__ = _eq


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


@functools.lru_cache(maxsize=_GRID_CACHE_SIZE)
def _width_grid(l_start: float, l_end: float, points: int) -> tuple:
    """``np.geomspace(l_start, l_end, points)``, built once per grid and
    shared read-only, and the two linear maps :func:`classify` applies to
    each entry, also read-only: the slope vector x / (x @ x), x the centred
    log of the grid's tail, and the weight matrix W whose rows give the
    last two values and Richardson levels 1 .. m - 1 at the last point as
    combinations of the last m = min(points - 1, ``_RICHARDSON_DEPTH``) + 1
    values.  W is the extrapolation triangle run on the unit vectors, with
    ratio**j and ratio**j - 1 for level j of the grid ratio."""
    ls = np.geomspace(l_start, l_end, points)
    x = np.log(ls[len(ls) // 2:])
    x -= x.mean()
    ratio = float(ls[0] / ls[1])
    grid = f"l_start = {l_start}, l_end = {l_end}, points = {points}: the grid"
    try:
        powers = [(ratio ** j, ratio ** j - 1.0)
                  for j in range(1, _RICHARDSON_DEPTH + 1)]
    except OverflowError:
        raise ValueError(
            f"{grid} ratio**{_RICHARDSON_DEPTH} overflows") from None
    xx = x @ x
    if not (ratio > 1.0 and xx > 0.0):
        raise ValueError(f"{grid} widths are too close to tell apart")
    m = min(points - 1, _RICHARDSON_DEPTH) + 1
    level = np.eye(m)  # level 0 at each of the last m points
    rows = [level[-2], level[-1]]
    for f, f1 in powers[:m - 1]:
        level = (f * level[1:] - level[:-1]) / f1
        rows.append(level[-1])
    maps = ls, x / xx, np.array(rows)
    for a in maps:
        a.flags.writeable = False
    return maps


@functools.lru_cache(maxsize=_GRID_CACHE_SIZE)
def _trace_plan(path: SqueezePath, E: float, l_start: float, l_end: float,
                points: int) -> tuple:
    """What :func:`trace` reads that does not depend on the coupling, built
    once per (path, E, grid) and shared read-only: the widths ``ls`` of
    :func:`_width_grid`, ls**2, the gaps ``rho_values`` along ``path`` and
    the gap factors of :func:`transfer._gap` (arrays on the power rules,
    scalars where the gap is constant)."""
    ls = _width_grid(l_start, l_end, points)[0]
    rho = path.rho_of(ls)  # a scalar on the constant-gap rules
    _check_energy(E)
    with _quiet():
        plan = ls, np.square(ls), np.zeros(points) + rho, _gap(E, rho)
    for a in (*plan[:3], *plan[3]):
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return plan


def _real(name: str, value) -> float:
    """``value`` as a float, where it is one real number (a numpy scalar or
    a 0-d array too); else a :class:`ValueError` that names it."""
    if type(value) is float:
        return value
    try:
        if (np.ndim(value) == 0 and not np.iscomplexobj(value)
                and not isinstance(value, (str, bytes))):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be one real number, got {value!r}")


def trace(path: SqueezePath, lam: float, E: float,
          l_start: float, l_end: float, points: int) -> LimitTrace:
    """Evaluate the transfer matrix on a geometric width grid along ``path``.

    Requires 8 <= points <= ``MAX_TRACE_POINTS``, a finite l_start > l_end
    >= the double-precision floor (grid ratio**8 finite, and the ratio and
    the logs of the last half not rounding to one value) and a finite
    lam >= 0, each a single real number; every point is checked against the
    unit-determinant invariant.  The lam-independent part is the cached
    plan of :func:`_trace_plan`.
    """
    try:
        points = operator.index(points)
    except TypeError:
        raise ValueError(
            f"points must be an integer, got {points!r}") from None
    lam, E = _real("lam", lam), _real("E", E)
    l_start, l_end = _real("l_start", l_start), _real("l_end", l_end)
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

    ls, l2, rho_values, gap = _trace_plan(path, E, l_start, l_end, points)
    with _quiet():  # NaN fails the check
        entries = _entries(l2, ls, lam, E, gap)
        residual = det_residual(*entries)
    require(residual <= 1e-10, InvariantViolation,
            "determinant residual {} at l = {}", residual, ls)
    return LimitTrace(path=path, lam=lam, E=E, l_values=ls,
                      rho_values=rho_values, entries=np.array(entries).T)


def classify(tr: LimitTrace) -> LimitVerdict:
    """Classify each entry's limit from the trace.

    An entry is divergent when the least-squares log-log slope of its
    magnitude against l over the last half of the trace is at or below
    ``DIVERGENCE_SLOPE`` (magnitudes growing as l shrinks give negative
    slopes).  Entries that stay below 1e-6 in the tail, or change sign
    there, carry no usable slope and are classified by their extrapolated
    value instead: the Richardson level, for a power-series error model,
    that changes least from the level below it, with that change as the
    error (a NaN change, where a level overflows, never wins).  Both steps
    are the grid's cached linear maps (:func:`_width_grid`), applied to
    all four entries in one product each.
    """
    ls = tr.l_values  # from np.geomspace, which sets both ends exactly
    _, slope, weights = _width_grid(float(ls[0]), float(ls[-1]), len(ls))
    tail = tr.entries[len(ls) // 2:].T  # one row per entry
    size = np.abs(tail)
    # flat rows may hold 0, and the products and upper levels of a huge
    # entry overflow, keeping their signs
    with np.errstate(all="ignore"):
        # one reduction per test; fmin skips NaN, so a NaN marks no sign
        # change
        flat = (size.max(axis=1) < _TINY_TAIL) | (np.fmin.reduce(
            tail[:, :-1] * tail[:, 1:], axis=1) <= 0.0)
        y = np.log(size)
        y -= np.add.reduce(y, axis=1, keepdims=True) / y.shape[1]
        slopes = (y @ slope).tolist()
        levels = weights @ tr.entries[-weights.shape[1]:]
        change = np.abs(levels[1:] - levels[:-1])
        error = np.fmin.reduce(change)  # fmin skips NaN, so NaN never wins
    best = (change == error).argmax(axis=0).tolist()  # the first smallest
    flat, levels, error = flat.tolist(), levels.T.tolist(), error.tolist()
    verdicts = {}
    for j, name in enumerate(ENTRY_NAMES):
        if not flat[j] and slopes[j] <= DIVERGENCE_SLOPE:
            verdicts[name] = EntryVerdict(kind=DIVERGENT, exponent=slopes[j])
        else:
            verdicts[name] = EntryVerdict(kind=CONVERGES, value=levels[j][
                best[j] + 1], error=error[j])
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
            r = _record(path, n, sigma, chi)
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
