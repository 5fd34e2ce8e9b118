"""Rectangular barrier-well pair squeezing onto the dipole point potential.

The shape is a barrier of height 1/(l*(l+rho)) on [0, l) followed, after a
gap of width rho, by a well of the same depth on [l+rho, 2*l+rho).  Its area
vanishes and its first moment equals -1 for every (l, rho), which is what
makes the two-parameter family a regularization of the derivative of a
delta function of strength ``lam``.  ``evaluate`` draws lam times that
height; the transfer matrices take lam/l**2, the same only at rho = 0.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import record
from .errors import _real_fields

__all__ = ["RectProfile"]


def _xmoment(a: float, w: float) -> float:
    # integral of x over [a, a+w)
    return w * (a + 0.5 * w)


@record
class RectProfile:
    """Barrier-well pair of width ``l``, gap ``rho`` and coupling ``lam``.

    Attributes:
        l: width of the barrier and of the well, > 0.
        rho: separation between them, >= 0.
        lam: coupling constant multiplying the shape; any real value.

    All three must be finite; NaN fails every check.  :attr:`height` is
    lam/(l*(l+rho)); ``transfer_entries`` and ``piecewise_transfer`` use
    lam/l**2, the same only at rho = 0.
    """

    l: float
    rho: float
    lam: float = 1.0

    def __post_init__(self):
        _real_fields(self, "l", "rho", "lam")
        if not 0 < self.l < math.inf:
            raise ValueError(f"width l must be positive and finite, got {self.l}")
        if not 0 <= self.rho < math.inf:
            raise ValueError(
                f"separation rho must be >= 0 and finite, got {self.rho}")
        if not math.isfinite(self.lam):
            raise ValueError(f"coupling lam must be finite, got {self.lam}")

    @property
    def height(self) -> float:
        """Barrier height (and well depth) including the coupling factor."""
        return self.lam / (self.l * (self.l + self.rho))

    def evaluate(self, x):
        """Potential value at ``x`` (scalar or array).

        Intervals are half-open, [0, l) and [l+rho, 2*l+rho); a measure-zero
        convention fixed for determinism.
        """
        x = np.asarray(x, dtype=float)
        h = self.height
        lo = self.l + self.rho
        out = np.where((x >= 0.0) & (x < self.l), h, 0.0)
        out = np.where((x >= lo) & (x < lo + self.l), -h, out)
        return float(out) if out.ndim == 0 else out

    def moments(self) -> tuple[float, float]:
        """Zeroth and first moment of the unit-coupling shape.

        Exact piecewise integration; equals (0, -1) for every valid
        (l, rho), independently of ``lam``.
        """
        h = 1.0 / (self.l * (self.l + self.rho))
        lo = self.l + self.rho
        m0 = h * self.l - h * self.l
        m1 = h * _xmoment(0.0, self.l) - h * _xmoment(lo, self.l)
        return m0, m1
