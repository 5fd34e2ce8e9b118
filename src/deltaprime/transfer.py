"""Transfer matrices and scattering amplitudes of the barrier-well pair.

Two independent constructions of the same 2x2 matrix carrying (psi, psi')
across the potential's support: closed-form entries, and an ordered product
of per-region propagation matrices obtained by matching the solution at the
four interfaces.  The second exists purely to validate the first; it works
in complex arithmetic, while the closed form is written in real functions
of p**2 and q**2 that hold on either side of the barrier top.

The closed form takes scalars or numpy arrays, elementwise, with numpy's
floating-point warnings off: an overflow gives inf or NaN values, which the
per-element invariant checks report.  Each region tests the sign of its
s = p**2 or -q**2 once per call: if every element grows, or every element
oscillates, only that form is computed and the product leaves out the terms
that vanish in it; mixed signs or an exact s = 0 merge both forms.  The
well skips its test where the barrier grows everywhere, since it then
oscillates everywhere.  Each element gets the same arithmetic either way.
The scattering extraction, :func:`amplitudes` and :func:`scattering`, is
re-exported from the numpy-free :mod:`.boundary`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import field

import numpy as np

from ._record import record
from .boundary import (_quiet, ScatteringAmplitudes, UnitDetMatrix,
                       amplitudes, det_residual, scattering)
from .errors import require
from .profile import RectProfile

__all__ = [
    "PRECISION_FLOOR",
    "TransferMatrix",
    "ScatteringAmplitudes",
    "UnitDetMatrix",
    "det_residual",
    "transfer_entries",
    "transfer_matrix",
    "piecewise_transfer",
    "scattering",
    "amplitudes",
]

# Below this width the 1/l cancellations in the lower-left entry eat more
# than ~10 significant digits at couplings up to ~50.
PRECISION_FLOOR = 1e-6


def _check_energy(E) -> None:
    require((E > 0) & (E < math.inf), ValueError,
            "scattering energy must be positive and finite, got {}", E)


@record
class TransferMatrix(UnitDetMatrix):
    """2x2 unit-determinant matrix carrying (psi, psi') from 0 to ``x0``."""

    l11: complex
    l12: complex
    l21: complex
    l22: complex
    x0: float = field()  # required: no default from UnitDetMatrix.x0


def _form(s):
    """The form a region of ``psi'' = s * psi`` takes: True or False when
    every element grows (s > 0) or every element oscillates (s < 0), else
    the elementwise ``s > 0``; mixed signs, NaN or an exact s = 0 merge both
    forms, as np.where(s > 0, ...) would."""
    if isinstance(s, np.ndarray):  # two ufunc reductions, cheaper than s > 0
        return (True if np.minimum.reduce(s, axis=None, initial=np.inf) > 0
                else False if np.maximum.reduce(s, axis=None, initial=-np.inf)
                < 0 else s > 0)
    return bool(s > 0) if s != 0 else np.False_


def _region(s, l, grows):
    """Propagation matrix of psi'' = s * psi over width ``l``, elementwise,
    split as [[c, t], [d, c]] + g * (1, a)^T (1, 1/a); returns (c, t, d, g,
    a) in the form ``grows`` = :func:`_form` (s) selects.

    For s = a**2 > 0 the region grows: c = exp(-a*l), t = d = 0 and
    g = sinh(a*l), so the sum is [[cosh, sinh/a], [a*sinh, cosh]] while
    the exponentially large part stays a separate rank-one term.  For
    s = -b**2 < 0 the split part vanishes (g = 0) and [[c, t], [d, c]] is
    [[cos, sin/b], [-b*sin, cos]]; at s = 0 it is [[1, l], [0, 1]].  All
    five are real.
    """
    a = np.sqrt(np.abs(s))
    x = a * l
    if grows is not False:
        up = np.exp(-x), 0.0, 0.0, np.sinh(x), a
    if grows is not True:
        sn = np.sin(x)
        osc = np.cos(x), sn / a, -a * sn, 0.0, 1.0
    if grows is True or grows is False:
        return up if grows else osc
    c, t, d, g, p = (np.where(grows, u, o) for u, o in zip(up, osc))
    return c, np.where(a == 0, l, t), d, g, p


def transfer_entries(l, rho, lam, E):
    """Closed-form entries (l11, l12, l21, l22) of the transfer matrix of the
    barrier-well pair, elementwise over scalars or broadcast numpy arrays of
    width ``l``, gap ``rho``, coupling ``lam`` and energy ``E``.

    The matrix is the product well @ gap @ barrier of the three region
    matrices, with p**2 = lam/l**2 - E in the barrier, q**2 = lam/l**2 + E
    in the well and k = sqrt(E) in the gap, each real for real p**2 and
    q**2.  Above the barrier top the barrier's cosh and sinh grow like
    exp(p*l) and nearly cancel in the entries near a resonance; keeping
    their common growth as the rank-one term of :func:`_region` makes that
    cancellation happen in the combinations (n_i1 + p*n_i2) of the
    well-gap product instead, where its rounding moves det only by about
    eps (the entries lose the same digits either way).
    Valid for any real coupling; E must be positive and finite.  Callers
    validate the geometry (l > 0, rho >= 0, all finite).
    """
    _check_energy(E)
    with _quiet():
        return _entries(np.square(l), l, lam, E, _gap(E, rho))


def _gap(E, rho):
    """The gap's factors (k, cos(k*rho), sin(k*rho)), k = sqrt(E)."""
    k = np.sqrt(E)
    return k, np.cos(k * rho), np.sin(k * rho)


def _entries(l2, l, lam, E, gap):
    """The body of :func:`transfer_entries` on ``l2`` = l**2 and the gap
    factors of :func:`_gap`, unchecked and under the caller's errstate."""
    scale = lam / l2  # numpy division: l**2 may underflow
    s = scale - E
    grows = _form(s)
    c, t, d, g, p = _region(s, l, grows)
    # a barrier that grows everywhere has scale > E > 0, so the well's
    # -(scale + E) < 0 oscillates everywhere: g = 0
    s = -(scale + E)
    wgrows = False if grows is True else _form(s)
    wc, wt, wd, wg, wa = _region(s, l, wgrows)
    cq, sq, dq = ((wc, wt, wd) if wgrows is False
                  else (wc + wg, wt + wg / wa, wd + wg * wa))
    k, ckr, skr = gap

    # well @ gap
    n11 = cq * ckr - k * sq * skr
    n12 = cq * skr / k + sq * ckr
    n21 = dq * ckr - k * cq * skr
    n22 = dq * skr / k + cq * ckr
    # (well @ gap) @ barrier, without the terms of the form not taken
    l11, l12, l21, l22 = c * n11, c * n12, c * n21, c * n22
    if grows is not True:  # t and d may be nonzero
        l11, l12, l21, l22 = (l11 + d * n12, t * n11 + l12,
                              l21 + d * n22, t * n21 + l22)
    if grows is not False:  # g may be nonzero
        g1, g2 = g * (n11 + p * n12), g * (n21 + p * n22)
        l11, l12, l21, l22 = l11 + g1, l12 + g1 / p, l21 + g2, l22 + g2 / p
    return l11, l12, l21, l22


def transfer_matrix(profile: RectProfile, E: float) -> TransferMatrix:
    """Transfer matrix of ``profile`` at energy ``E``: the closed form of
    :func:`transfer_entries` at one point."""
    l11, l12, l21, l22 = (complex(v) for v in transfer_entries(
        profile.l, profile.rho, profile.lam, E))
    return TransferMatrix(l11, l12, l21, l22, x0=2.0 * profile.l + profile.rho)


def _slab(local_ksq: complex, width: float) -> np.ndarray:
    """Propagation matrix for psi'' = -local_ksq * psi over ``width``."""
    if width == 0.0:
        return np.eye(2, dtype=complex)
    if local_ksq == 0:
        return np.array([[1.0, width], [0.0, 1.0]], dtype=complex)
    kap = cmath.sqrt(complex(local_ksq))
    s, c = cmath.sin(kap * width), cmath.cos(kap * width)
    return np.array([[c, s / kap], [-kap * s, c]])


def piecewise_transfer(profile: RectProfile, E: float) -> TransferMatrix:
    """Transfer matrix assembled by interface matching, region by region.

    (psi, psi') is continuous at the four interfaces, so eliminating the
    interior coefficients amounts to multiplying the per-region propagation
    matrices in order.  Independent of :func:`transfer_matrix` and used as
    its oracle.
    """
    _check_energy(E)
    scale = profile.lam / (profile.l * profile.l)
    m = (
        _slab(E + scale, profile.l)      # well
        @ _slab(E, profile.rho)          # gap
        @ _slab(E - scale, profile.l)    # barrier
    )
    return TransferMatrix(m[0, 0], m[0, 1], m[1, 0], m[1, 1],
                          x0=2.0 * profile.l + profile.rho)
