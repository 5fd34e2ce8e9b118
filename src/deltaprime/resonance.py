"""Resonance sets of the squeezed barrier-well pair.

On squeeze rules that close the gap fast enough (adjacent, or rho = c*l**tau
with tau >= 2) the couplings that transmit in the zero-range limit solve

    tanh(s) = tan(s),        s = sqrt(lam),

one root per bracket (n*pi, n*pi + pi/2), n >= 1.  On the linear rule
rho = c*l the condition becomes tanh(s) / (1 + c*s*tanh(s)) = tan(s), which
is the first one at c = 0.  Other rules carry no resonances.  Each root
carries the limiting connection-matrix data (chi, g) and, when g != 0,
a bound state with decay constant kappa.

Roots are found by Illinois regula falsi on the pole-free form
cos(s)*lhs(s) - sin(s), whose only zero in the bracket is the root, so the
bracket is the whole interval.  It stops on a residual of 2**-50, not on
the bracket width, and takes 3 to 9 evaluations a root for n <= 112.

Several of the limiting quantities have redundant closed forms; they are
evaluated side by side and their agreement doubles as a built-in self test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DeltaPrimeError, NotARootError, require
from .paths import ADJACENT, POWER, SqueezePath
from .transfer import ScatteringAmplitudes, amplitudes

__all__ = [
    "Resonance",
    "has_resonances",
    "resonance_equation",
    "resonance_root",
    "resonance_at",
    "solve_adjacent",
    "solve_linear",
    "chi_adjacent",
    "chi_linear",
    "g_quadratic",
    "resonant_scattering",
    "bound_state_kappa",
    "resonance_set",
]

_ROOT_TOL = 1e-10
# Residual at which the solver stops: a few ulps of the pole-free form, whose
# slope at a root is about 1.
_STOP_TOL = 2.0 ** -50


@dataclass(frozen=True)
class Resonance:
    """One member of a resonance set.

    Attributes:
        n: bracket index, >= 1.
        sigma: root of the path's resonance equation.
        lam: resonant coupling, sigma**2.
        chi: limiting upper-left connection-matrix entry; sign (-1)**n.
        g: limiting lower-left entry (0 except on the quadratic path).
        kappa: bound-state decay constant, -g/(chi + 1/chi) if positive,
            else 0.
        path: the squeeze rule this resonance belongs to.
    """

    n: int
    sigma: float
    lam: float
    chi: float
    g: float
    kappa: float
    path: SqueezePath


def _solve_bracketed(g, lo: float, hi: float, f) -> float:
    """Illinois regula falsi for the zero of ``g`` on [lo, hi].

    Needs g(lo) > 0 > g(hi).  Each step takes the secant point of the
    bracket; an endpoint kept twice in a row has its value halved, which
    keeps the convergence superlinear.  The iteration stops once |g| <=
    2**-50 or once the next secant point no longer falls strictly inside
    the bracket, i.e. the bracket is as tight as rounding allows; as every
    step shrinks the bracket, the loop always ends.  The best point is then
    checked against ``f``, the equation ``g`` stands in for: a sign change
    that is not a zero (a pole or a jump) leaves |f| large and raises
    :class:`NotARootError`.
    """
    glo, ghi = g(lo), g(hi)
    if not (glo > 0 > ghi):
        raise NotARootError(f"no sign change on [{lo}, {hi}]")
    root, groot = (lo, glo) if glo < -ghi else (hi, ghi)
    kept = 0  # endpoint the last step kept: +1 lo, -1 hi
    while True:
        x = hi - ghi * (hi - lo) / (ghi - glo)
        if not lo < x < hi:
            break
        gx = g(x)
        if abs(gx) <= abs(groot):
            root, groot = x, gx
        if not abs(gx) > _STOP_TOL:
            break
        if gx > 0:
            lo, glo = x, gx
            if kept < 0:
                ghi *= 0.5
            kept = -1
        else:
            hi, ghi = x, gx
            if kept > 0:
                glo *= 0.5
            kept = 1
    fr = f(root)
    if not abs(fr) <= _ROOT_TOL:
        raise NotARootError(f"residual {fr} at the sign change {root}")
    return root


def _index_of(sigma: float) -> int:
    n = int(sigma // math.pi)
    if n < 1:
        raise NotARootError(f"{sigma} lies below the first root bracket")
    return n


def has_resonances(path: SqueezePath) -> bool:
    """Whether ``path`` carries a resonance set: the adjacent rule and power
    laws with tau = 1 or tau >= 2."""
    return path.kind == ADJACENT or (
        path.kind == POWER and (path.tau == 1.0 or path.tau >= 2.0))


def _linear_c(path: SqueezePath) -> float:
    """Constant c of the path's resonance equation, 0 off the linear rule."""
    if not has_resonances(path):
        raise ValueError(
            f"squeeze rule {path.describe()} admits no resonance set")
    return path.c if path.kind == POWER and path.tau == 1.0 else 0.0


def _resonance_lhs(path: SqueezePath):
    """Left side tanh(s)/(1 + c*s*tanh(s)) of the resonance equation."""
    c = _linear_c(path)

    def lhs(s: float) -> float:
        th = math.tanh(s)
        return th / (1.0 + c * s * th)

    return lhs


def resonance_equation(path: SqueezePath):
    """Resonance condition of ``path`` as f(s), zero at s = sigma_n.

    f(s) = tanh(s)/(1 + c*s*tanh(s)) - tan(s) with the constant c of the
    linear rule, and c = 0 (tanh(s) = tan(s), exactly) on the other rules
    that carry resonances.
    """
    lhs = _resonance_lhs(path)

    def f(s: float) -> float:
        return lhs(s) - math.tan(s)

    return f


def resonance_root(path: SqueezePath, n: int) -> float:
    """Root sigma_n of the resonance equation of ``path`` in its n-th
    bracket (n*pi, n*pi + pi/2).

    The solver runs on (-1)**n*(cos(s)*lhs(s) - sin(s)) = f(s)*|cos(s)|:
    the same single zero, no pole, > 0 at n*pi and -1 at n*pi + pi/2.
    """
    lhs = _resonance_lhs(path)
    sign = -1.0 if n % 2 else 1.0

    def g(s: float) -> float:
        return sign * (math.cos(s) * lhs(s) - math.sin(s))

    lo = n * math.pi
    return _solve_bracketed(g, lo, lo + 0.5 * math.pi, resonance_equation(path))


def resonance_at(path: SqueezePath, sigma: float) -> Resonance:
    """Limiting data of ``path`` at the root ``sigma`` of its equation."""
    chi = chi_linear(sigma, _linear_c(path))
    quadratic = path.kind == POWER and path.tau == 2.0
    g = g_quadratic(sigma, path.c) if quadratic else 0.0
    return Resonance(n=_index_of(sigma), sigma=sigma, lam=sigma * sigma,
                     chi=chi, g=g, kappa=bound_state_kappa(chi, g) or 0.0,
                     path=path)


def resonance_set(path: SqueezePath, count: int) -> list[Resonance]:
    """First ``count`` resonances of a squeeze rule that admits them.

    Adjacent and power laws with tau > 2 share the adjacent resonance set
    with g = 0; tau = 2 adds the nonzero g (and a bound state); tau = 1 has
    its own roots.  Other rules give separated half-lines and raise.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return [resonance_at(path, resonance_root(path, n))
            for n in range(1, count + 1)]


def solve_adjacent(count: int) -> list[Resonance]:
    """First ``count`` resonances of the adjacent squeeze rule (gap = 0)."""
    return resonance_set(SqueezePath.adjacent(), count)


def solve_linear(c: float, count: int) -> list[Resonance]:
    """First ``count`` resonances of the linear rule rho = c*l.

    At c = 0 this coincides with :func:`solve_adjacent`.  The left side of
    tanh(s)/(1 + c*s*tanh(s)) = tan(s) stays inside (0, 1), so every bracket
    (n*pi, n*pi + pi/2) holds exactly one root.
    """
    return resonance_set(SqueezePath.power_law(c, 1.0), count)


def chi_adjacent(sigma: float) -> float:
    """Limiting upper-left entry at a root of tanh(s) = tan(s): the linear
    rule's entry at c = 0, where its signed square root is sqrt(cosh(2s))."""
    return chi_linear(sigma, 0.0)


def chi_linear(sigma: float, c: float) -> float:
    """Limiting upper-left entry at a root of the linear-rule equation.

    The three equivalent expressions u/cos(s), sinh(s)/sin(s) and the signed
    square root of u**2 + sinh(s)**2, with u = cosh(s) + c*s*sinh(s), are
    all evaluated; a relative spread beyond 1e-6 means the input was not
    actually a root.  A root is known only to within ulp(s), which moves
    each form by ulp(s) times its logarithmic slope in s; that bound is
    added to the 1e-6, as sinh(s)/sin(s) is ill-conditioned where the root
    sits next to n*pi (large c).  The square root is expanded as cosh(2s) +
    c*s*sinh(2s) + (c*s*sinh(s))**2, which is exactly sqrt(cosh(2s)) at
    c = 0.  Raises :class:`DeltaPrimeError` where a form overflows.
    """
    if not c >= 0:
        raise ValueError(f"path constant c must be >= 0, got {c}")
    n = _index_of(sigma)
    cs = c * sigma
    try:
        sh, ch = math.sinh(sigma), math.cosh(sigma)
        square = (math.cosh(2.0 * sigma) + cs * math.sinh(2.0 * sigma)
                  + (cs * sh) ** 2)
    except OverflowError:
        square = math.inf
    if not square < math.inf:
        raise DeltaPrimeError(
            f"chi overflows at sigma = {sigma} (n = {n}, c = {c})")
    u = ch + cs * sh
    sn, cn = math.sin(sigma), math.cos(sigma)
    forms = [u / cn, sh / sn, (-1.0) ** n * math.sqrt(square)]
    spread = (max(forms) - min(forms)) / max(1.0, *(abs(v) for v in forms))
    if not spread <= 1e-6:
        # d/ds log|form|; that of the square root is a weighted mean of the
        # slopes of u and of sinh(s), so their larger one bounds it
        du_u = ((1.0 + c) * sh + cs * ch) / u
        coth = ch / sh
        slopes = du_u + sn / cn, coth - cn / sn, max(du_u, coth)
        if not spread <= 1e-6 + math.ulp(sigma) * sum(map(abs, slopes)):
            raise NotARootError(f"sigma = {sigma} is not a root at c = {c}: "
                                f"chi forms spread {forms}")
    return forms[2]


def g_quadratic(sigma: float, c: float) -> float:
    """Limiting lower-left entry on the quadratic rule rho = c*l**2.

    Two equivalent forms, -c*s**2*sinh(s)*sin(s) and
    (-1)**(n+1)*c*s**2*sinh(s)**2/sqrt(cosh(2s)); the first is returned.
    The quadratic rule keeps tanh(s) = tan(s) as its resonance condition.
    """
    g = -c * sigma * sigma * math.sinh(sigma) * math.sin(sigma)
    return g + 0.0  # normalize -0.0 at c = 0


def g_quadratic_forms(sigma: float, c: float, n: int | None = None) -> tuple[float, float]:
    """Both closed forms of the quadratic-rule g, for consistency checks."""
    if n is None:
        n = _index_of(sigma)
    direct = -c * sigma * sigma * math.sinh(sigma) * math.sin(sigma)
    signed = ((-1.0) ** (n + 1) * c * sigma * sigma
              * math.sinh(sigma) ** 2 / math.sqrt(math.cosh(2.0 * sigma)))
    return direct + 0.0, signed + 0.0


def resonant_scattering(chi: float, g: float, k: float) -> ScatteringAmplitudes:
    """Amplitudes of the limiting point interaction diag(chi, 1/chi) + g.

    For g = 0 both amplitudes are real and independent of k; at adjacent
    resonances they reduce to R = -tanh(s)**2 and
    T = (-1)**n * sqrt(1 - tanh(s)**4).  Scalars or arrays, elementwise.
    """
    require(chi != 0, ValueError, "chi must be nonzero, got {}", chi)
    return amplitudes(chi, 0.0, g, 1.0 / chi, k)


def bound_state_kappa(chi: float, g: float) -> float | None:
    """Decay constant of the bound state carried by diag(chi, 1/chi) + g.

    kappa = -g/(chi + 1/chi); returned only when positive (a normalizable
    state with energy -kappa**2), else None.  On the quadratic rule at a
    resonance this equals (c/2)*s**2*tanh(s)**2.
    """
    if isinstance(chi, complex):
        raise ValueError("chi must be real")
    if chi == 0:
        raise ValueError("chi must be nonzero")
    kappa = -g / (chi + 1.0 / chi)
    return kappa if kappa > 0 else None
