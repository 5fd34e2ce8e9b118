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

import math
from dataclasses import dataclass

from .errors import InvariantViolation, SingularParameterError
from .transfer import ScatteringAmplitudes, UnitDetMatrix, amplitudes

__all__ = [
    "ConnectionMatrix",
    "ProductParams",
    "resonant_matrix",
    "seba_matrix",
    "delta_prime_delta_matrix",
    "bc_from_product",
    "params_from_resonance",
    "scattering_from_matrix",
    "bound_state",
]


@dataclass(frozen=True)
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

    def as_tuple(self) -> tuple[float, float, float, float]:
        return self.l11, self.l12, self.l21, self.l22


@dataclass(frozen=True)
class ProductParams:
    """Weights (alpha, beta) of the two-parameter product rule.

    alpha = 1/lam_fit + offset.  A resonance fit sets the fitted coupling
    ``lam_fit`` and the pole offset ``offset`` = 1/(1-chi), from which
    :func:`bc_from_product` forms 1 - alpha*lam without cancellation; alpha
    itself is only reported.  Hand-built parameters give alpha and beta
    alone: lam_fit is then inf and the offset defaults to alpha - 1/lam_fit.
    """

    alpha: float
    beta: float
    lam_fit: float = math.inf
    offset: float | None = None

    def __post_init__(self):
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
    and 1 + (1-alpha)*lam = 0, and ``ValueError`` on a non-finite ``lam``.
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
    b = params.beta * lam * lam / d1 / d2
    return ConnectionMatrix(d2 / d1, 0.0, b, d1 / d2)


def params_from_resonance(lam_n: float, chi_n: float, g_n: float) -> ProductParams:
    """Product weights reproducing the resonance data (chi_n, g_n).

    With the pole offset delta = 1/(1-chi): alpha = 1/lam + delta and
    beta = (chi*delta)*(g*delta), a form that stays finite wherever chi and
    g are.  The fit keeps lam and delta, so the matrix round trip through
    :func:`bc_from_product` recovers (chi_n, g_n) to a few ulps.  chi = 1
    (the pure-delta regime) has no inverse here.
    """
    if chi_n == 1.0:
        raise SingularParameterError(
            "chi = 1 is the pure-delta regime; 1/(1-chi) is undefined")
    if lam_n == 0.0:
        raise SingularParameterError("lam = 0 has no product-rule inverse")
    delta = 1.0 / (1.0 - chi_n)
    beta = (chi_n * delta) * (g_n * delta) + 0.0  # drop -0.0
    return ProductParams(alpha=1.0 / lam_n + delta, beta=beta,
                         lam_fit=lam_n, offset=delta)


def scattering_from_matrix(cm: ConnectionMatrix, k: float) -> ScatteringAmplitudes:
    """Reflection/transmission amplitudes of a zero-range connection matrix:
    the finite-range extraction with the support collapsed to a point."""
    return amplitudes(cm.l11, cm.l12, cm.l21, cm.l22, k)


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
