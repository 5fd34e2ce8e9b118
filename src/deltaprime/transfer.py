"""Transfer matrices and scattering amplitudes of the barrier-well pair.

Two independent constructions of the same 2x2 matrix carrying (psi, psi')
across the potential's support: closed-form entries, and an ordered product
of per-region propagation matrices matched at the four interfaces, which
exists purely to validate the first, in complex arithmetic.  The closed form
is in real functions of p**2 and q**2 that hold on either side of the barrier
top, an oscillating region's cos and sin coming from one numpy tan(x/2).

The closed form takes scalars or numpy arrays, elementwise, with numpy's
floating-point warnings off: an overflow gives inf or NaN values, which the
per-element invariant checks report.  Each region computes only the form,
growing or oscillating, that the sign of its s = p**2 or -q**2 selects (one
test per call), and the product leaves out the terms that vanish in it:
each element gets the same arithmetic, bit for bit.  :func:`amplitudes` and
:func:`scattering` are re-exported from the numpy-free :mod:`.boundary`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import field

import numpy as np

from ._record import record
from .boundary import (_quiet, _unit, ScatteringAmplitudes, UnitDetMatrix,
                       amplitudes, det_residual, scattering)
from .errors import InvariantViolation, require
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

# The smallest width a trace or sweep takes.  Here the 1/l cancellations
# leave L21 one to three digits at the adjacent lambda_1 .. lambda_6 (relative
# errors 2.2e-3 to 0.16 against 80 digits; 1.8e-7 to 1.4e-5 at l = 1e-4).
PRECISION_FLOOR = 1e-6
_ONE, _TWO = _unit(np), np.array(2.0)  # 0-d: see _geometry
_ONE.flags.writeable = _TWO.flags.writeable = False


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


def _region(a2, l, half, grows, one, two):
    """Propagation matrix of psi'' = s * psi over width ``l``, elementwise,
    split as [[c, t], [d, c]] + g * (1, a)^T (1, 1/a): the real (c, t, d, g,
    a) from ``a2`` = |s| in the form ``grows`` = :func:`_form` (s) selects.
    For s = a**2 > 0 the region grows: c = exp(-a*l), t = d = 0 and
    g = sinh(a*l), the exponentially large part of [[cosh, sinh/a], [a*sinh,
    cosh]] kept as a rank-one term.  For s = -b**2 < 0, g = 0 and [[c, t],
    [d, c]] is [[cos, sin/b], [-b*sin, cos]] of x = b*l, with cos = w - 1
    and sin = h*w from h = tan(b*half), w = 2/(1 + h**2), ``half`` = l/2:
    each within 1.5 eps of exact, and NaN where x/2 overflows.  At s = 0,
    [[1, l], [0, 1]].  ``one`` and ``two`` are 1 and 2 (:func:`_geometry`).
    """
    a = np.sqrt(a2)
    if grows is not False:
        x = a * l
        up = np.exp(-x), 0.0, 0.0, np.sinh(x), a
    if grows is not True:
        h = np.tan(a * half)
        w = two / (one + h * h)
        sn = h * w
        osc = w - one, sn / a, -a * sn, 0.0, 1.0
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
    q**2.  Below the barrier top the barrier's cosh and sinh grow like
    exp(p*l) and nearly cancel in the entries near a resonance; kept as the
    rank-one term of :func:`_region`, their common growth cancels in the
    combinations (n_i1 + p*n_i2) of the well-gap product instead, where its
    rounding moves det only by about eps (the entries lose the same digits
    either way).  Valid for any real coupling and finite E > 0; callers
    validate the geometry (l > 0, rho >= 0, all finite).
    """
    with _quiet():
        return _entries(_geometry(l, rho, E, type(lam) is np.ndarray), lam)


def _geometry(l, rho, E, batch=False):
    """:func:`_entries`' operands but the coupling, ``E`` checked: (l**2, l,
    l/2, E, k, cos(k*rho), sin(k*rho), gapless (a scalar zero gap), 1, 2);
    beside an array or a ``batch`` of couplings, every operand an ndarray."""
    _check_energy(E)
    k = np.sqrt(E)
    ops = np.square(l), l, 0.5 * l, E, k, np.cos(k * rho), np.sin(k * rho)
    gapless = type(ops[6]) is not np.ndarray and float(ops[6]) == 0.0
    if not batch and np.ndarray not in (type(ops[0]), type(ops[6])):
        return *ops, gapless, 1.0, 2.0  # scalars alone: faster unboxed
    return (*map(np.asarray, ops), gapless, _ONE, _TWO)


def _entries(geometry, lam):
    """The body of :func:`transfer_entries` on a :func:`_geometry` tuple,
    unchecked and under the caller's errstate."""
    l2, l, half, E, k, ckr, skr, gapless, one, two = geometry
    scale = lam / l2  # numpy division: l**2 may underflow
    s = scale - E
    grows = _form(s)
    c, t, d, g, p = _region(s if grows is True else np.abs(s), l, half,
                            grows, one, two)
    # a barrier that grows everywhere has scale > E > 0, so the well's
    # s = -(scale + E) oscillates everywhere (g = 0): |s| is scale + E
    s = scale + E if grows is True else -(scale + E)
    wgrows = False if grows is True else _form(s)
    wc, wt, wd, wg, wa = _region(s if grows is True else np.abs(s), l, half,
                                 wgrows, one, two)
    cq, sq, dq = ((wc, wt, wd) if wgrows is False
                  else (wc + wg, wt + wg / wa, wd + wg * wa))
    # well @ gap, which is the oscillating well itself at a scalar zero gap
    if wgrows is False and gapless:
        n11, n12, n21, n22 = cq, sq, dq, cq
    else:
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
    :func:`transfer_entries` at one point, with a determinant residual of
    at most 1e-12 (:class:`InvariantViolation` otherwise, NaN included)."""
    l11, l12, l21, l22 = (complex(v) for v in transfer_entries(
        profile.l, profile.rho, profile.lam, E))
    tm = TransferMatrix(l11, l12, l21, l22, x0=2.0 * profile.l + profile.rho)
    residual = tm.det_residual()
    if not residual <= 1e-12:
        raise InvariantViolation(f"determinant residual {residual}")
    return tm


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
    its oracle; raises :class:`InvariantViolation` where a region overflows.
    """
    _check_energy(E)
    l, rho, lam = profile.l, profile.rho, profile.lam
    try:
        scale = lam / (l * l)
        m = _slab(E + scale, l) @ _slab(E, rho) @ _slab(E - scale, l)
    except (ZeroDivisionError, OverflowError):  # well @ gap @ barrier
        raise InvariantViolation(f"{profile} overflows at E = {E}") from None
    return TransferMatrix(m[0, 0], m[0, 1], m[1, 0], m[1, 1], x0=2.0 * l + rho)
