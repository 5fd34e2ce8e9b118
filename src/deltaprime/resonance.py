"""Resonance sets of the squeezed barrier-well pair.

On squeeze rules that close the gap fast enough (adjacent, or rho = c*l**tau
with tau >= 2) the couplings that transmit in the zero-range limit solve

    tanh(s) = tan(s),        s = sqrt(lam),

one root per bracket (n*pi, n*pi + pi/2), n >= 1.  On the linear rule
rho = c*l the condition becomes tanh(s) / (1 + c*s*tanh(s)) = tan(s), which
is the first one at c = 0.  Other rules carry no resonances.  Each root
carries the limiting connection-matrix data (chi, g) and, when g != 0,
a bound state with decay constant kappa.

Several of the limiting quantities have redundant closed forms; they are
evaluated side by side and their agreement doubles as a built-in self test.
"""

from __future__ import annotations

import math

from ._record import record
from .boundary import ScatteringAmplitudes, amplitudes
from .errors import DeltaPrimeError, NotARootError, require
from .paths import ADJACENT, POWER, SqueezePath

__all__ = [
    "Resonance",
    "has_resonances",
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


@record
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
    """Bracket index floor(sigma/pi) >= 1 of a finite root sigma >= pi."""
    if not math.pi <= sigma < math.inf:
        raise NotARootError(f"sigma = {sigma} lies in no root bracket")
    return int(sigma // math.pi)


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


def _lhs(s: float, c: float) -> float:
    """tanh(s)/(1 + c*s*tanh(s)), the left side of the resonance equation."""
    th = math.tanh(s)
    return th / (1.0 + c * s * th)


def _root(c: float, n: int) -> float:
    """Root in the n-th bracket of lhs(s) = tan(s), see :func:`_lhs`.

    lhs stays inside (0, 1), so every bracket (n*pi, n*pi + pi/2) holds
    exactly one root.  The solver runs on the pole-free form
    (-1)**n*(cos(s)*lhs(s) - sin(s)) = f(s)*|cos(s)|, with the same single
    zero, > 0 at n*pi and -1 at n*pi + pi/2; f = lhs - tan is checked.
    """
    sign = -1.0 if n % 2 else 1.0
    lo = n * math.pi
    return _solve_bracketed(
        lambda s: sign * (math.cos(s) * _lhs(s, c) - math.sin(s)),
        lo, lo + 0.5 * math.pi, lambda s: _lhs(s, c) - math.tan(s))


# (sigma_n, chi_n) of tanh(s) = tan(s) for n = 1, 2, ...: the roots and chi
# of every rule with c = 0, solved once per process.  Only entries that
# passed the root and chi checks are kept.  The table grows by rebinding a
# new tuple, so a concurrent reader sees a shorter prefix at worst; it stops
# where chi overflows (_ADJACENT_COUNT entries).
_ADJACENT_ROOTS: tuple[tuple[float, float], ...] = ()
_ADJACENT_COUNT = 112


def _roots(c: float, count: int):
    """The first ``count`` pairs (sigma_n, chi_n) at constant ``c``, and the
    error that stopped them short of ``count``, or None.  Only c = 0 reads
    and grows the shared table."""
    global _ADJACENT_ROOTS
    shared = c == 0.0
    table, error = _ADJACENT_ROOTS if shared else (), None
    if len(table) < count:
        grown = list(table)
        try:
            for n in range(len(grown) + 1, count + 1):
                sigma = _root(c, n)
                grown.append((sigma, chi_linear(sigma, c)))
        except DeltaPrimeError as exc:
            error = exc
        table = tuple(grown)
        if shared:
            _ADJACENT_ROOTS = table
    return table[:count], error


def _nth_root(path: SqueezePath, n: int) -> tuple[float, float | None]:
    """(sigma_n, chi_n) of ``path``, from the shared table on c = 0 rules up
    to its end, else from one solve of the n-th bracket with chi_n None."""
    c = _linear_c(path)
    if c == 0.0 and n <= _ADJACENT_COUNT:
        return _roots(c, n)[0][n - 1]
    return _root(c, n), None


def _record(path: SqueezePath, sigma: float,
            chi: float | None = None) -> Resonance:
    """The Resonance of ``path`` at the root ``sigma`` with entry ``chi``,
    formed here where it is None."""
    if chi is None:
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
    its own roots.  Other rules give separated half-lines and raise.  The
    shared roots and chi are read from a table solved once per process.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    roots, error = _roots(_linear_c(path), count)
    # records first, so that an error at a lower index is raised first
    out = [_record(path, sigma, chi) for sigma, chi in roots]
    if error is not None:
        raise error
    return out


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
    Raises :class:`DeltaPrimeError` where g overflows or sigma is not finite.
    """
    try:
        g = -c * sigma * sigma * math.sinh(sigma) * math.sin(sigma)
    except (OverflowError, ValueError):  # sinh(s) overflows; sin(+-inf)
        g = math.inf
    if not abs(g) < math.inf:
        raise DeltaPrimeError(f"g overflows at sigma = {sigma} "
                              f"(n = {_index_of(sigma)}, c = {c})")
    return g + 0.0  # normalize -0.0 at c = 0


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
