"""Point-interaction connection matrices and what they scatter and bind.

A point interaction at the origin is a real 2x2 unit-determinant matrix
linking (psi, psi') on the left of the origin to the right.  This module
builds the matrices that arise from the squeezed barrier-well limits, from
the symmetrized distributional product,
and from the two-parameter weighted product that reconciles the two, plus
the scattering amplitudes and bound states carried by any such matrix.

The weighted product assigns the weights (1-alpha, alpha) to the one-sided
values of psi multiplying the dipole term, the swapped weights to the
one-sided derivatives multiplying the delta term, and adds beta times the
jump of psi to the delta term.  The resulting matrix is diagonal
(A, 1/A) with a lower-left entry B:

    A = (1 + (1-alpha)*lam) / (1 - alpha*lam),
    B = beta*lam**2 / ((1 - alpha*lam) * (1 + (1-alpha)*lam)).

Inverting A = chi, B = g at a resonance gives

    alpha = 1/lam + delta,    beta = (chi*delta) * (g*delta),

with the pole offset delta = 1/(1-chi).  The fits live next to the pole
1 - alpha*lam = 0, where the map alpha -> A has condition number ~ |chi|,
so alpha is never used there: a fit keeps delta and its coupling lam_f,
and 1 - alpha*lam is evaluated as (1 - lam/lam_f) - lam*delta, which at
lam = lam_f is exactly -lam*delta, with no cancellation.  Hand-built
parameters have lam_f = inf and delta = alpha, the plain formula.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import math
import sys
from dataclasses import dataclass, field

from ._record import record
from .errors import (DeltaPrimeError, InvariantViolation,
                     SingularParameterError, holds, require)

__all__ = [
    "UnitDetMatrix",
    "det_residual",
    "ScatteringAmplitudes",
    "amplitudes",
    "ConnectionMatrix",
    "ProductParams",
    "resonant_matrix",
    "seba_matrix",
    "delta_prime_delta_matrix",
    "bc_from_product",
    "params_from_resonance",
    "scattering",
    "bound_state",
]


class UnitDetMatrix:
    """Entries l11, l12, l21, l22 of a 2x2 matrix with unit determinant.

    Shared by transfer matrices and point-interaction connection matrices;
    subclasses declare the four entries as fields.  The matrix carries
    (psi, psi') from 0 to ``x0``: a point interaction has x0 = 0, and a
    transfer matrix declares its own ``x0`` field.
    """

    __slots__ = ()  # records derive from it and keep no __dict__
    x0 = 0.0

    @property
    def det(self):
        return self.l11 * self.l22 - self.l12 * self.l21

    def det_residual(self) -> float:
        """Scaled determinant residual, see :func:`det_residual`."""
        return _residual(self.l11 * self.l22, self.l12 * self.l21, _max)


def det_residual(l11, l12, l21, l22):
    """|det - 1| scaled by the size of the two entry products, elementwise.

    The determinant is identically 1, but it is evaluated as a difference
    of products that individually grow like 1/l**2 under squeezing, so the
    meaningful residual is relative to that scale (it reduces to the
    absolute residual for O(1) matrices).  NaN entries give NaN.  Arrays
    take an exact ``np.maximum``, which can move the last bits of the value.
    """
    a, np = l11 * l22, sys.modules.get("numpy")
    top = np.maximum if np is not None and isinstance(a, np.ndarray) else _max
    return _residual(a, l12 * l21, top)


def _residual(a, b, top):
    return abs(a - b - 1.0) / top(top(1.0, abs(a)), abs(b))


def _max(x, y):
    """Elementwise max(x, y), exact to rounding, in plain arithmetic: on the
    scalars of every connection-matrix check a ufunc call costs several
    times more."""
    return 0.5 * (x + y + abs(x - y))


def _quiet():
    """numpy's warnings off, once numpy is loaded (scalar paths load none)."""
    np = sys.modules.get("numpy")
    return (np.errstate(over="ignore", invalid="ignore", divide="ignore")
            if np is not None else contextlib.nullcontext())


# not a slotted record: cached_property keeps R and T in the instance dict
@dataclass(frozen=True)
class ScatteringAmplitudes:
    """Left-incidence reflection and transmission amplitudes, scalars or
    arrays of one shape: |R|**2 and |T|**2, and R and T formed on first
    access from the parts (s, d, u, v, k, x0) of :func:`amplitudes`; that
    access raises where k*x0 (ValueError), R or T is not finite."""

    R2: float
    T2: float
    _parts: tuple = field(repr=False, compare=False)

    R = property(lambda self: self._complex[0])
    T = property(lambda self: self._complex[1])

    @functools.cached_property
    def _complex(self) -> tuple:
        s, d, u, v, k, x0 = self._parts
        with _quiet():
            require(abs(k * x0) < math.inf, ValueError,
                    "phase k*x0 = {} is not finite", k * x0)
            delta, phase = s - 1j * d, -1j * k * x0
            R, T = -(u + 1j * v) / delta, 2.0 / delta * (
                cmath.exp(phase) if isinstance(phase, complex)
                else sys.modules["numpy"].exp(phase))
            require((abs(R) < math.inf) & (abs(T) < math.inf),
                    InvariantViolation, "R = {}, T = {}: not finite", R, T)
        return R, T

    @property
    def conservation_residual(self) -> float:
        return abs(self.R2 + self.T2 - 1.0)


def amplitudes(l11, l12, l21, l22, k, x0=0.0) -> ScatteringAmplitudes:
    """Left-incidence amplitudes of the matrix carrying (psi, psi') from 0
    to ``x0`` (0 for a point interaction) at wavenumber k.

    Real or complex scalars or numpy arrays, broadcast elementwise; every
    check holds at each element, and an error names the first value that
    fails it.  With s = l11 + l22, d = k*l12 - l21/k, u = l11 - l22,
    v = k*l12 + l21/k and Delta = s - i*d, |T|**2 = 4/|Delta|**2 and
    |R|**2 = |u + i*v|**2/|Delta|**2 are formed from the real and imaginary
    parts in real arithmetic (by hypot where the squares overflow), R and T
    only when read.  A real unit-determinant matrix has |Delta| >= 2, so a
    smaller value flags it as corrupt.  Flux conservation, |R|**2 + |T|**2
    = 1 to 1e-10, is checked, which also rejects non-finite amplitudes.
    Plain Python numbers load no numpy, save in those two rare cases; a
    scalar phase factor comes from ``cmath.exp``, which rounds as ``np.exp``.
    """
    require(k > 0, ValueError, "wavenumber must be positive, got {}", k)
    with _quiet():
        kl12, l21k = k * l12, l21 / k
        s, d, u, v = l11 + l22, kl12 - l21k, l11 - l22, kl12 + l21k
        # Delta = (s.real + d.imag) + i*(s.imag - d.real), u + i*v likewise
        dr, di = s.real + d.imag, s.imag - d.real
        nr, ni = u.real - v.imag, u.imag + v.real
        size2 = dr * dr + di * di
        try:
            t2, r2 = 4.0 / size2, (nr * nr + ni * ni) / size2
        except ZeroDivisionError:  # Python numbers: x/0 as numpy forms it
            t2, r2 = math.inf, (nr * nr + ni * ni) * math.inf
        large = size2 >= (2.0 - 1e-9) ** 2
        residual = abs(r2 + t2 - 1.0)
        if not holds(large & (residual <= 1e-10)):  # failed, or overflowed
            import numpy as np

            over, size = size2 == math.inf, np.hypot(dr, di)
            t2 = np.where(over, np.square(2.0 / size), t2)[()]
            r2 = np.where(over, np.square(np.hypot(nr, ni) / size), r2)[()]
            small = ~np.asarray(large)
            *e, size = (np.broadcast_to(w, np.shape(size))[small]
                        for w in (l11, l12, l21, l22, size))
            e = np.array(e)
            real = (np.abs(e.imag).max(axis=0)
                    <= 1e-9 * np.fmax(1.0, np.abs(e).max(axis=0)))
            require(~real, InvariantViolation, "|Delta| = {}, not >= 2, for "
                    "a real unit-determinant matrix", size)
            residual = abs(r2 + t2 - 1.0)
            require(residual <= 1e-10, InvariantViolation,
                    "conservation residual {}", residual)
    return ScatteringAmplitudes(r2, t2, (s, d, u, v, k, x0))


@record
class ConnectionMatrix(UnitDetMatrix):
    """Boundary conditions (psi, psi')(+0) = M (psi, psi')(-0).

    M must have unit determinant.
    """

    l11: float
    l12: float
    l21: float
    l22: float

    def __post_init__(self):
        if not self.det_residual() <= 1e-12:
            raise InvariantViolation(
                f"connection matrix determinant {self.det} != 1")


@record
class ProductParams:
    """Weights (alpha, beta) of the two-parameter product rule.

    alpha = 1/lam_fit + offset.  A resonance fit sets the fitted coupling
    ``lam_fit`` and the pole offset ``offset`` = 1/(1-chi), from which
    :func:`bc_from_product` forms 1 - alpha*lam without cancellation; alpha
    itself is only reported.  Hand-built parameters give alpha and beta
    alone: lam_fit is then inf and the offset defaults to alpha - 1/lam_fit.
    lam_fit = 0 raises :class:`SingularParameterError`.
    """

    alpha: float
    beta: float
    lam_fit: float = math.inf
    offset: float | None = None

    def __post_init__(self):
        if self.lam_fit == 0.0:
            raise SingularParameterError("lam_fit = 0 has no term 1/lam_fit")
        if self.offset is None:
            object.__setattr__(self, "offset", self.alpha - 1.0 / self.lam_fit)


def resonant_matrix(chi: float, g: float = 0.0) -> ConnectionMatrix:
    """Limiting matrix of a resonant squeeze: diag(chi, 1/chi) plus
    lower-left g."""
    if chi == 0:
        raise ValueError("chi must be nonzero")
    return ConnectionMatrix(chi, 0.0, g, 1.0 / chi)


def seba_matrix(lam: float) -> ConnectionMatrix:
    """Diagonal matrix diag(A, 1/A), A = (2+lam)/(2-lam), of the
    symmetrized (half/half) distributional product."""
    return delta_prime_delta_matrix(0.0, lam)


def delta_prime_delta_matrix(gamma: float, lam: float) -> ConnectionMatrix:
    """The symmetrized-product matrix with an added delta term of strength
    gamma: lower-left entry gamma / (1 - lam**2/4)."""
    if lam == 2.0 or lam == -2.0:
        raise SingularParameterError(
            f"lam = {lam} is a pole of A = (2+lam)/(2-lam)")
    a = (2.0 + lam) / (2.0 - lam)
    b = gamma / (1.0 - lam * lam / 4.0) + 0.0  # drop -0.0 when |lam| > 2
    return ConnectionMatrix(a, 0.0, b, (2.0 - lam) / (2.0 + lam))


def bc_from_product(params: ProductParams, lam: float) -> ConnectionMatrix:
    """Connection matrix of the weighted product rule at coupling ``lam``.

    Raises :class:`SingularParameterError` on the two poles 1 - alpha*lam = 0
    and 1 + (1-alpha)*lam = 0, ``ValueError`` on a non-finite ``lam``, and
    :class:`DeltaPrimeError` where an entry overflows (or is NaN, as with
    alpha = inf).
    """
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    # 1 - alpha*lam; at lam = lam_fit, lam/lam_fit = 1 exactly
    d1 = (1.0 - lam / params.lam_fit) - lam * params.offset
    d2 = d1 + lam  # 1 + (1-alpha)*lam
    if d1 == 0.0:
        raise SingularParameterError(
            f"1 - alpha*lam = 0 at alpha = {params.alpha}, lam = {lam}")
    if d2 == 0.0:
        raise SingularParameterError(
            f"1 + (1-alpha)*lam = 0 at alpha = {params.alpha}, lam = {lam}")
    # beta*lam**2/(d1*d2), ordered so no intermediate exceeds |beta*lam|
    a, b, a_inv = d2 / d1, params.beta * lam / d1 * lam / d2, d1 / d2
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(a_inv)):
        raise DeltaPrimeError(
            f"product-rule matrix overflows at alpha = {params.alpha}, "
            f"beta = {params.beta}, lam = {lam}")
    return ConnectionMatrix(a, 0.0, b, a_inv)


def params_from_resonance(lam_n: float, chi_n: float, g_n: float) -> ProductParams:
    """Product weights reproducing the resonance data (chi_n, g_n).

    With the pole offset delta = 1/(1-chi): alpha = 1/lam + delta and
    beta = (chi*delta)*(g*delta), a form that stays finite wherever chi and
    g are.  The fit keeps lam and delta, so the matrix round trip through
    :func:`bc_from_product` recovers (chi_n, g_n) to a few ulps.  chi = 1
    (the pure-delta regime) and lam = 0 have no inverse here
    (:class:`SingularParameterError`); inputs that give a non-finite alpha
    or beta raise ``ValueError``.
    """
    if chi_n == 1.0:
        raise SingularParameterError(
            "chi = 1 is the pure-delta regime; 1/(1-chi) is undefined")
    if lam_n == 0.0:
        raise SingularParameterError("lam = 0 has no product-rule inverse")
    delta = 1.0 / (1.0 - chi_n)
    alpha = 1.0 / lam_n + delta
    beta = (chi_n * delta) * (g_n * delta) + 0.0  # drop -0.0
    if not abs(alpha) + abs(beta) < math.inf:  # also false where either is NaN
        raise ValueError(
            f"lam_n = {lam_n}, chi_n = {chi_n}, g_n = {g_n} give "
            f"alpha = {alpha}, beta = {beta}: not finite")
    return ProductParams(alpha=alpha, beta=beta, lam_fit=lam_n, offset=delta)


def scattering(m: UnitDetMatrix, k: float) -> ScatteringAmplitudes:
    """Reflection/transmission amplitudes of a transfer or connection matrix
    at wavenumber k: :func:`amplitudes` of its entries and its ``x0``."""
    return amplitudes(m.l11, m.l12, m.l21, m.l22, k, m.x0)


def bound_state(cm: ConnectionMatrix) -> list[float]:
    """Decay constants kappa > 0 of bound states (energy -kappa**2).

    Matching exp(kappa*x) on the left to exp(-kappa*x) on the right through
    the matrix yields l12*kappa**2 + (l11+l22)*kappa + l21 = 0.  For unit
    determinant the discriminant is (l11-l22)**2 + 4 > 0, so the roots are
    always real; only strictly positive ones are normalizable and returned.
    """
    a, b, c = cm.l12, cm.l11 + cm.l22, cm.l21
    if a == 0.0:
        roots = [] if b == 0.0 else [-c / b]
    elif c == 0.0:
        roots = [0.0, -b / a]
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0:
            return []
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        roots = [q / a, c / q]
    return sorted(r for r in roots if r > 0.0)
