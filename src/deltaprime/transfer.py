"""Transfer matrices and scattering amplitudes of the barrier-well pair.

Two independent constructions of the same 2x2 matrix carrying (psi, psi')
across the potential's support: closed-form entries, and an ordered product
of per-region propagation matrices obtained by matching the solution at the
four interfaces.  The second exists purely to validate the first.  Complex
arithmetic is used throughout so energies above the barrier top need no
special casing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .profile import RectProfile

__all__ = [
    "PRECISION_FLOOR",
    "WaveParams",
    "TransferMatrix",
    "ScatteringAmplitudes",
    "UnitDetMatrix",
    "transfer_matrix",
    "piecewise_transfer",
    "scattering",
    "amplitudes",
]

# Below this width the 1/l cancellations in the lower-left entry eat more
# than ~10 significant digits at couplings up to ~50.
PRECISION_FLOOR = 1e-6

# Evaluating the entries at p -> 0 (energy exactly at the barrier top)
# through a tiny p lands on the correct limits, e.g. sinh(p*l)/p -> l,
# without a separate branch.
_TINY = 1e-200


@dataclass(frozen=True)
class WaveParams:
    """Wavenumbers of the solution regions at energy ``E``.

    ``k`` is the outside wavenumber sqrt(E); ``p`` and ``q`` are the decay
    constant inside the barrier and the wavenumber inside the well,
    sqrt(lam/l**2 -+ E).  ``p`` is real below the barrier top and purely
    imaginary above it (principal square-root branch), so q**2 - p**2 = 2E.
    """

    E: float
    k: float
    p: complex
    q: complex

    @classmethod
    def for_barrier(cls, lam: float, l: float, E: float) -> "WaveParams":
        if not E > 0:
            raise ValueError(f"scattering energy must be positive, got {E}")
        scale = lam / (l * l)
        return cls(
            E=E,
            k=math.sqrt(E),
            p=cmath.sqrt(complex(scale - E)),
            q=cmath.sqrt(complex(scale + E)),
        )

    @classmethod
    def from_profile(cls, profile: RectProfile, E: float) -> "WaveParams":
        return cls.for_barrier(profile.lam, profile.l, E)


class UnitDetMatrix:
    """Entries l11, l12, l21, l22 of a 2x2 matrix with unit determinant.

    Shared by transfer matrices and point-interaction connection matrices;
    subclasses declare the four entries as fields.
    """

    @property
    def det(self):
        return self.l11 * self.l22 - self.l12 * self.l21

    def det_residual(self) -> float:
        """|det - 1| scaled by the size of the two entry products.

        The determinant is identically 1, but it is evaluated as a
        difference of products that individually grow like 1/l**2 under
        squeezing, so the meaningful residual is relative to that scale
        (it reduces to the absolute residual for O(1) matrices).
        """
        scale = max(1.0, abs(self.l11 * self.l22), abs(self.l12 * self.l21))
        return abs(self.det - 1.0) / scale


@dataclass(frozen=True)
class TransferMatrix(UnitDetMatrix):
    """2x2 unit-determinant matrix carrying (psi, psi') from 0 to ``x0``."""

    l11: complex
    l12: complex
    l21: complex
    l22: complex
    x0: float

    def entry_scale(self) -> float:
        return max(abs(self.l11), abs(self.l12), abs(self.l21), abs(self.l22))


@dataclass(frozen=True)
class ScatteringAmplitudes:
    """Left-incidence reflection and transmission amplitudes."""

    R: complex
    T: complex

    @property
    def R2(self) -> float:
        return abs(self.R) ** 2

    @property
    def T2(self) -> float:
        return abs(self.T) ** 2

    @property
    def conservation_residual(self) -> float:
        return abs(self.R2 + self.T2 - 1.0)


def transfer_matrix(profile: RectProfile, E: float) -> TransferMatrix:
    """Closed-form transfer matrix of the barrier-well pair at energy ``E``.

    Entries are combinations of cosh/sinh of the barrier phase p*l, cos/sin
    of the well phase q*l and cos/sin of the gap phase k*rho.  Valid for any
    real coupling; E must be positive.
    """
    wp = WaveParams.from_profile(profile, E)
    l, rho, k = profile.l, profile.rho, wp.k
    p = wp.p if wp.p != 0 else complex(_TINY)
    q = wp.q if wp.q != 0 else complex(_TINY)

    sp, cp = cmath.sinh(p * l), cmath.cosh(p * l)
    sq, cq = cmath.sin(q * l), cmath.cos(q * l)
    skr, ckr = math.sin(k * rho), math.cos(k * rho)

    l11 = (cp * cq + (p / q) * sp * sq) * ckr \
        + ((p / k) * sp * cq - (k / q) * cp * sq) * skr
    l12 = (sp * cq / p + cp * sq / q) * ckr \
        + (cp * cq / k - k * sp * sq / (p * q)) * skr
    l21 = (p * sp * cq - q * cp * sq) * ckr \
        - (k * cp * cq + (p * q / k) * sp * sq) * skr
    l22 = (cp * cq - (q / p) * sp * sq) * ckr \
        - ((k / p) * sp * cq + (q / k) * cp * sq) * skr

    return TransferMatrix(l11, l12, l21, l22, x0=2.0 * l + rho)


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
    if not E > 0:
        raise ValueError(f"scattering energy must be positive, got {E}")
    scale = profile.lam / (profile.l * profile.l)
    m = (
        _slab(E + scale, profile.l)      # well
        @ _slab(E, profile.rho)          # gap
        @ _slab(E - scale, profile.l)    # barrier
    )
    return TransferMatrix(m[0, 0], m[0, 1], m[1, 0], m[1, 1],
                          x0=2.0 * profile.l + profile.rho)


def scattering(tm: TransferMatrix, k: float) -> ScatteringAmplitudes:
    """Reflection/transmission amplitudes of a transfer matrix at wavenumber k."""
    return amplitudes(tm.l11, tm.l12, tm.l21, tm.l22, k, tm.x0)


def amplitudes(l11, l12, l21, l22, k: float,
               x0: float = 0.0) -> ScatteringAmplitudes:
    """Left-incidence amplitudes of the matrix carrying (psi, psi') from 0
    to ``x0`` (0 for a point interaction) at wavenumber k.

    For real entries with unit determinant, |Delta|**2 = (l11+l22)**2 +
    (k*l12 - l21/k)**2 >= 4, so the denominator can never vanish; a smaller
    value means the matrix is corrupt and is flagged as an internal error.
    Every result is checked for flux conservation, |R|**2 + |T|**2 = 1 to
    1e-10, which also rejects non-finite amplitudes.
    """
    if not k > 0:
        raise ValueError(f"wavenumber must be positive, got {k}")
    delta = l11 + l22 - 1j * (k * l12 - l21 / k)
    if not abs(delta) >= 2.0 - 1e-9:
        entries = (l11, l12, l21, l22)
        scale = max(1.0, *(abs(v) for v in entries))
        if max(abs(v.imag) for v in entries) <= 1e-9 * scale:
            raise InvariantViolation(
                f"|Delta| = {abs(delta)}, not >= 2, for a real "
                "unit-determinant matrix")
    R = -(l11 - l22 + 1j * (k * l12 + l21 / k)) / delta
    T = 2.0 / delta * cmath.exp(-1j * k * x0)
    amp = ScatteringAmplitudes(R=R, T=T)
    if not amp.conservation_residual <= 1e-10:
        raise InvariantViolation(
            f"conservation residual {amp.conservation_residual}")
    return amp
