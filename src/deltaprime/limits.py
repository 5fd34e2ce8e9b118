"""Numerical zero-range limits of the barrier-well pair along squeeze paths.

The array layer: the transfer-matrix entries are traced along a
geometrically shrinking sequence of widths, each entry's limit is classified
as divergent or convergent from a log-log slope fit plus Richardson
extrapolation, and transmission is swept over coupling grids.  The analytic
limit that a verdict is checked against, :func:`predict`, is the scalar one
of :mod:`.resonance`, re-exported here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import fields

import numpy as np

from ._record import record
from .boundary import _probabilities, _quiet, det_residual
from .errors import (InvariantViolation, PrecisionFloorError, _integer,
                     _real, require)
from .paths import SqueezePath
from .resonance import predict  # re-exported: the scalar prediction
from .transfer import PRECISION_FLOOR, _entries, _geometry

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
_RICHARDSON_DEPTH = 8

# Couplings per transfer-kernel call in a sweep: bounds the kernel's
# temporaries (a few dozen arrays of this length) on long grids, while the
# CLI default of 2000 samples stays one call.
SWEEP_BLOCK = 4096

# Size caps, checked before anything is allocated.  A trace needs a few
# dozen widths; 10**4 keeps the width-grid and trace-plan caches within
# 8.33 MB: each of _GRID_CACHE_SIZE grids holds MAX_TRACE_POINTS widths, a
# slope vector over half of them and at most 10 x 9 Richardson weights
# (1.93 MB), and each of as many plans at most five arrays of
# MAX_TRACE_POINTS of its own (l**2, l/2, rho, cos(k*rho), sin(k*rho); its
# grid is the grid cache's: 6.4 MB), in 8-byte floats.  A sweep holds its
# couplings, |T|^2 and |R|^2 in full: 96 MB at MAX_SWEEP_SAMPLES.
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

    ``entries`` is real, a transposed view of shape (points, 4) ordered
    (L11, L12, L21, L22).  ``l_values`` is shared by every trace on the same
    grid and ``rho_values`` by every trace with the same path, energy and
    grid; both are read-only.
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
    ratio**j and ratio**j - 1 for level j of the grid ratio.  Last, the
    tail's length as a read-only 0-d float, by which classify centres."""
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
    maps = ls, x / xx, np.array(rows), np.array(float(len(x)))
    for a in maps:
        a.flags.writeable = False
    return maps


@functools.lru_cache(maxsize=_GRID_CACHE_SIZE)
def _trace_plan(path: SqueezePath, E: float, l_start: float, l_end: float,
                points: int) -> tuple:
    """What :func:`trace` reads that does not depend on the coupling, built
    once per (path, E, grid) and shared read-only: the widths ``ls`` of
    :func:`_width_grid`, the gaps ``rho_values`` along ``path`` and their
    :func:`transfer._geometry`, formed in :func:`trace`'s warning scope."""
    ls = _width_grid(l_start, l_end, points)[0]
    rho = path.rho_of(ls)  # a scalar on the constant-gap rules
    plan = ls, np.zeros(points) + rho, _geometry(ls, rho, E)
    for a in (plan[1], *plan[2][:7]):  # the flag and constants follow
        a.flags.writeable = False
    return plan


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
    points = _integer("points", points)
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

    with _quiet():  # NaN fails the check
        ls, rho_values, geometry = _trace_plan(path, E, l_start, l_end, points)
        entries = _entries(geometry, lam)
        residual = det_residual(*entries)
    require(residual <= 1e-10, InvariantViolation,
            "determinant residual {} at l = {}", residual, ls)
    return LimitTrace(path, lam, E, ls, rho_values, np.array(entries).T)


def classify(tr: LimitTrace) -> LimitVerdict:
    """Classify each entry's limit from the trace.

    An entry is divergent when the least-squares log-log slope of its
    magnitude against l over the last half of the trace is at or below
    ``DIVERGENCE_SLOPE`` (negative: it grows as l shrinks).  Entries that
    change sign or touch zero in the tail carry no usable slope and are
    classified by their extrapolated value instead: the Richardson level,
    for a power-series error model, that changes least from the level below
    it, with that change as the error (a NaN change, where a level
    overflows, never wins).  Both steps are the grid's cached linear maps
    (:func:`_width_grid`), one product each for all four entries.  A
    :class:`ValueError` names a trace on another grid, with entries that
    are not a real (points, 4) array, or with a chosen exponent or value
    that is not finite.
    """
    ls, e, n = tr.l_values, tr.entries, len(tr.l_values)
    # l_values come from np.geomspace, which sets both ends exactly
    grid, slope, weights, count = _width_grid(float(ls[0]), float(ls[-1]), n)
    if ls is not grid and not np.array_equal(ls, grid):
        raise ValueError(f"{_named(tr)} is not on the geometric grid it spans")
    if getattr(e, "shape", None) != (n, 4) or e.dtype.kind != "f":
        raise ValueError(f"{_named(tr)}: need real entries of shape ({n}, 4)")
    tail = e[n // 2:].T  # one row per entry
    size = np.abs(tail)
    # flat rows may hold 0, and the products and upper levels of a huge
    # entry overflow, keeping their signs
    with _quiet():
        # fmin skips NaN, so a NaN marks no sign change
        turn = np.fmin.reduce(tail[:, :-1] * tail[:, 1:], axis=1).tolist()
        y = np.log(size)
        y -= np.add.reduce(y, axis=1, keepdims=True) / count
        slopes = (y @ slope).tolist()
        levels = weights @ e[-weights.shape[1]:]
        change = np.abs(levels[1:] - levels[:-1])
        error = np.fmin.reduce(change)  # fmin skips NaN, so NaN never wins
    best = (change == error).argmax(axis=0).tolist()  # the first smallest
    levels, error = levels.T.tolist(), error.tolist()
    verdicts = {}
    for j, name in enumerate(ENTRY_NAMES):
        divergent = not turn[j] <= 0.0 and slopes[j] <= DIVERGENCE_SLOPE
        x = slopes[j] if divergent else levels[j][best[j] + 1]
        if not abs(x) < math.inf:  # NaN fails too
            raise ValueError(f"{_named(tr)}: {name} reads {x}, not finite")
        # positional: a keyword costs a record's __init__ 60 to 140 ns
        verdicts[name] = (EntryVerdict(DIVERGENT, x) if divergent else
                          EntryVerdict(CONVERGES, None, x, error[j]))
    return LimitVerdict(entries=verdicts)


def _named(tr: LimitTrace) -> str:
    return f"the trace of {tr.path.describe()} at lam = {tr.lam}, E = {tr.E}"


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

    Requires an integer 2 <= samples <= ``MAX_SWEEP_SAMPLES`` and the
    other arguments one real number each, as :func:`trace` does.  The grid
    is evaluated in blocks of ``SWEEP_BLOCK`` couplings.  Peaks are
    strict local maxima of |T|^2 over the grid, refined by a parabola
    through the three surrounding samples (the refinement never leaves the
    neighbouring half-intervals, but for half an ulp of rounding).
    """
    samples = _integer("samples", samples)
    l, E = _real("l", l), _real("E", E)
    lam_min, lam_max = _real("lam_min", lam_min), _real("lam_max", lam_max)
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
    if lam_max - lam_min == math.inf:
        raise ValueError("lam_max - lam_min overflows to inf")
    lams = np.linspace(lam_min, lam_max, samples)
    rho = path.rho_of(l)
    t2, r2 = np.empty(samples), np.empty(samples)
    with _quiet():  # l**2 may overflow
        geometry = _geometry(l, rho, E, True)
        k = math.sqrt(E)
        for start in range(0, samples, SWEEP_BLOCK):
            block = slice(start, start + SWEEP_BLOCK)
            t2[block], r2[block], _ = _probabilities(
                *_entries(geometry, lams[block]), k)

    # each parabola in Python floats: too few peaks to pay for numpy calls
    lo, hi = lams[:2].tolist()
    i = np.flatnonzero((t2[1:-1] > t2[:-2]) & (t2[1:-1] > t2[2:]))
    peaks = []
    for lam, (a, b, c) in zip(lams[i + 1].tolist(),
                              t2[np.add.outer(i, (0, 1, 2))].tolist()):
        denom = (a - 2.0 * b) + c
        off = 0.5 * (hi - lo) * (a - c) / denom if denom != 0.0 else 0.0
        peaks.append(Peak(lam=lam + off, T2=b))
    return SweepResult(path=path, l=l, E=E, lambdas=lams, T2=t2, R2=r2,
                       peaks=peaks)
