"""Resonance sets of the squeezed barrier-well pair.

On squeeze rules that close the gap fast enough (adjacent, or rho = c*l**tau
with tau >= 2) the couplings that transmit in the zero-range limit solve

    tanh(s) = tan(s),        s = sqrt(lam),

one root per bracket (n*pi, n*pi + pi/2), n >= 1.  On the linear rule
rho = c*l the condition becomes tanh(s) / (1 + c*s*tanh(s)) = tan(s), which
is the first one at c = 0.  Other rules carry no resonances.  Each root
carries the limiting connection-matrix data (chi, g) and, when g != 0,
a bound state with decay constant kappa; a set's records are formed in one
pass over its root table.  :func:`predict` looks a coupling up.
"""

from __future__ import annotations

import functools
import math

from ._record import record
from .boundary import (ConnectionMatrix, ScatteringAmplitudes, _amplitudes,
                       _quiet, resonant_matrix)
from .errors import DeltaPrimeError, NotARootError, _integer, _real, require
from .paths import ADJACENT, POWER, SqueezePath

__all__ = [
    "Resonance",
    "has_resonances",
    "chi_linear",
    "g_quadratic",
    "resonant_scattering",
    "resonance_set",
    "predict",
]

_ROOT_TOL = 1e-10
_MATCH_TOL = 1e-9


@record
class Resonance:
    """One member of a resonance set.

    Attributes:
        n: bracket index, >= 1.
        sigma: root of the path's resonance equation.
        lam: resonant coupling, sigma**2.
        chi: limiting upper-left connection-matrix entry; sign (-1)**n.
        g: limiting lower-left entry (0 except on the quadratic path).
        kappa: bound-state decay constant -g/(chi + 1/chi), 0 unless > 0.
        path: the squeeze rule this resonance belongs to.
    """

    n: int
    sigma: float
    lam: float
    chi: float
    g: float
    kappa: float
    path: SqueezePath


def _index_of(sigma: float) -> int:
    """Bracket index n >= 1 of a finite root sigma >= pi, with n*pi rounded
    as the solver's bracket end (a root can round onto it, below n*pi)."""
    if not math.pi <= sigma < math.inf:
        raise NotARootError(f"sigma = {sigma} lies in no root bracket")
    n = int(sigma // math.pi)
    return n + ((n + 1) * math.pi <= sigma) - (sigma < n * math.pi)


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


def _residual(s: float, c: float) -> float:
    """lhs(s) - tan(s), the residual of the resonance equation."""
    return _lhs(s, c) - math.tan(s)


def _check_root(sigma: float, c: float, n: int) -> None:
    """Check ``sigma`` of bracket n to be a root at constant ``c`` as the
    solver checks it: sigma <= n*pi + pi/2, which at large c rules out a
    small residual just below (n + 1)*pi, and |residual| <= 1e-10."""
    if not (sigma <= n * math.pi + 0.5 * math.pi
            and abs(_residual(sigma, c)) <= _ROOT_TOL):
        equation = ("tanh(s) = tan(s)" if c == 0.0 else
                    f"tanh(s)/(1 + c*s*tanh(s)) = tan(s) at c = {c}")
        raise NotARootError(f"sigma = {sigma} is no root of {equation}")


def _root(c: float, n: int) -> float:
    """Root in the n-th bracket of lhs(s) = tan(s), see :func:`_lhs`.

    lhs stays inside (0, 1), so every bracket (n*pi, n*pi + pi/2) holds
    exactly one root, the fixed point of t = atan(lhs(n*pi + t)) with
    s = n*pi + t.  Two steps of that map from t = 0 start Newton's method
    on the pole-free form g(s) = cos(s)*lhs(s) - sin(s), each step clamped
    into the float bracket, so a root within an ulp of n*pi is reached
    too.  The point of least |g| is kept; the iteration stops once |g|
    stops falling or a step returns that point, so it always ends.  Its
    residual lhs - tan is then checked against 1e-10
    (:class:`NotARootError`).
    """
    lo = n * math.pi
    hi = lo + 0.5 * math.pi
    s = lo + math.atan(_lhs(lo + math.atan(_lhs(lo, c)), c))
    root = g_root = None
    while True:
        th = math.tanh(s)
        d = 1.0 + c * s * th
        lhs, cos, sin = th / d, math.cos(s), math.sin(s)
        g = cos * lhs - sin
        if root is not None and not abs(g) < abs(g_root):
            break
        root, g_root = s, g
        dlhs = ((1.0 - th * th) - c * th * th) / (d * d)
        s -= g / (cos * (dlhs - 1.0) - sin * lhs)
        s = lo if s < lo else hi if s > hi else s  # builtin min/max cost more
        if s == root:
            break
    r = _residual(root, c)
    if not abs(r) <= _ROOT_TOL:
        raise NotARootError(
            f"no sigma in bracket n = {n} at c = {c} meets |residual| <= "
            f"{_ROOT_TOL} (residual {r:.3g} at sigma = {root})")
    return root


_TABLES = 32  # tables kept, each at most 112 pairs, about 12.6 kB


@functools.lru_cache(maxsize=_TABLES)
def _table(c: float) -> list:
    """One-slot holder of (pairs, end), rebound as one tuple: the checked
    (sigma_n, chi_n) at constant ``c`` and the error that ended them (chi
    overflows by n = 113 at every c >= 0), None while they can grow."""
    return [((), None)]


def _roots(c: float, count: int):
    """The first ``count`` pairs (sigma_n, chi_n) of the table at ``c``,
    grown in index order up to its end, and that end where they fall short."""
    holder = _table(c)
    table, end = holder[0]
    if len(table) < count and end is None:
        grown = list(table)
        try:
            for n in range(len(grown) + 1, count + 1):
                sigma = _root(c, n)  # checked by the solver
                grown.append((sigma, _chi(sigma, c, n)))
        except DeltaPrimeError as exc:
            end = exc
        holder[0] = table, end = tuple(grown), end
    return table[:count], end if len(table) < count else None


def _nth_root(path: SqueezePath, n: int) -> tuple[float, float | None]:
    """(sigma_n, chi_n) of ``path`` from its table, past the table's end from
    one bracket solve with chi_n None; a ValueError unless n >= 1."""
    if not n >= 1:
        raise ValueError(f"resonance index n must be >= 1, got {n}")
    c = _linear_c(path)
    roots, end = _roots(c, n)
    return roots[-1] if end is None else (_root(c, n), None)


def _records(path: SqueezePath, n0: int, pairs) -> list[Resonance]:
    """The Resonances of ``path`` at its checked pairs (sigma, chi) of
    brackets n0, n0 + 1, ..., chi formed here where it is None.  Only the
    quadratic rule carries g and so a bound state; elsewhere both are 0."""
    quadratic = path.kind == POWER and path.tau == 2.0
    out = []
    for n, (sigma, chi) in enumerate(pairs, n0):
        if chi is None:
            chi = _chi(sigma, _linear_c(path), n)
        g = kappa = 0.0
        if quadratic:
            g = _g(sigma, path.c, n)
            kappa = -g / (chi + 1.0 / chi)  # the bound state's, when positive
            kappa = kappa if kappa > 0 else 0.0
        out.append(Resonance(n, sigma, sigma * sigma, chi, g, kappa, path))
    return out


def resonance_set(path: SqueezePath, count: int) -> list[Resonance]:
    """First ``count`` resonances of a squeeze rule that admits them.

    Adjacent and power laws with tau > 2 share the adjacent resonance set
    with g = 0; tau = 2 adds the nonzero g (and a bound state); tau = 1 has
    its own roots.  Other rules give separated half-lines and raise, as does
    a count that is no integer >= 1.  Roots and chi are read from the table
    of the equation's constant c, solved once while it is kept.
    """
    count = _integer("count", count, "an integer >= 1")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    roots, end = _roots(_linear_c(path), count)
    out = _records(path, 1, roots)  # first: a lower index's error wins
    if end is not None:  # a fresh instance: the kept one grows no traceback
        raise type(end)(*end.args)
    return out


def predict(path: SqueezePath, lam: float) -> ConnectionMatrix | None:
    """Analytic zero-range limit of ``path`` at one real coupling ``lam``:
    the limiting connection matrix where the path carries resonances and
    ``lam`` sits on one (within 1e-9), read from the root table of the two
    brackets around sqrt(lam); else None, the half-lines decoupled."""
    lam = _real("lam", lam)
    if not 0 < lam < math.inf:
        raise ValueError(f"coupling must be positive and finite, got {lam}")
    if not has_resonances(path):
        return None
    guess = int(math.sqrt(lam) // math.pi)
    for n in (guess, guess + 1) if guess else (1,):  # brackets from n = 1
        sigma, chi = _nth_root(path, n)
        if abs(lam - sigma * sigma) <= _MATCH_TOL:
            r = _records(path, n, ((sigma, chi),))[0]
            return resonant_matrix(r.chi, r.g)
    return None


def chi_linear(sigma: float, c: float) -> float:
    """Limiting upper-left entry at a root of the linear-rule equation.

    The signed square root of u**2 + sinh(s)**2, with u = cosh(s) +
    c*s*sinh(s), expanded as cosh(2s) + c*s*sinh(2s) + (c*s*sinh(s))**2,
    which is exactly sqrt(cosh(2s)) at c = 0; it equals u/cos(s) and
    sinh(s)/sin(s) at a root.  Raises :class:`ValueError` unless c >= 0,
    :class:`DeltaPrimeError` where chi overflows, else
    :class:`NotARootError` where sigma is not a root.
    """
    return _checked(_chi, sigma, c, c)


def _checked(form, sigma: float, c: float, c_root: float) -> float:
    """``form(sigma, c, n)`` of the root sigma of bracket n, checked in
    this order: c >= 0 (:class:`ValueError`), the bracket of sigma, the
    form's own overflow check, then sigma as a root of the equation at
    constant ``c_root``; each argument one real number (a numpy scalar
    too, read as its float)."""
    if type(sigma) is not float or type(c) is not float:
        sigma, c = _real("sigma", sigma), _real("c", c)
    if not c >= 0:
        raise ValueError(f"path constant c must be >= 0, got {c}")
    n = _index_of(sigma)
    value = form(sigma, c, n)
    _check_root(sigma, c_root, n)
    return value


def _chi(sigma: float, c: float, n: int) -> float:
    """chi_linear at the root sigma of bracket n, with no root check."""
    cs = c * sigma
    try:
        square = (math.cosh(2.0 * sigma) + cs * math.sinh(2.0 * sigma)
                  + (cs * math.sinh(sigma)) ** 2)
    except OverflowError:
        square = math.inf
    if not square < math.inf:
        raise DeltaPrimeError(
            f"chi overflows at sigma = {sigma} (n = {n}, c = {c})")
    return (-1.0) ** n * math.sqrt(square)


def g_quadratic(sigma: float, c: float) -> float:
    """Limiting lower-left entry on the quadratic rule rho = c*l**2.

    Two equivalent forms, -c*s**2*sinh(s)*sin(s) and
    (-1)**(n+1)*c*s**2*sinh(s)**2/sqrt(cosh(2s)); the first is returned.
    The quadratic rule keeps tanh(s) = tan(s) as its resonance condition.
    Raises :class:`ValueError` unless c >= 0, :class:`NotARootError` where
    sigma lies in no bracket, :class:`DeltaPrimeError` where g overflows,
    else :class:`NotARootError` where sigma is not a root of that condition.
    """
    return _checked(_g, sigma, c, 0.0)


def _g(sigma: float, c: float, n: int) -> float:
    """g_quadratic at the root sigma of bracket n, with no root check."""
    try:
        g = -c * sigma * sigma * math.sinh(sigma) * math.sin(sigma)
    except OverflowError:  # sinh(s) overflows
        g = math.inf
    if not abs(g) < math.inf:
        raise DeltaPrimeError(
            f"g overflows at sigma = {sigma} (n = {n}, c = {c})")
    return g + 0.0  # normalize -0.0 at c = 0


def resonant_scattering(chi: float, g: float, k: float) -> ScatteringAmplitudes:
    """Amplitudes of the limiting point interaction diag(chi, 1/chi) + g.

    For g = 0 both amplitudes are real and independent of k; at adjacent
    resonances they reduce to R = -tanh(s)**2 and
    T = (-1)**n * sqrt(1 - tanh(s)**4).  Scalars or arrays, elementwise.
    """
    require(chi != 0, ValueError, "chi must be nonzero, got {}", chi)
    with _quiet():  # 1/chi = inf at chi = 5e-324, unwarned on numpy too
        return _amplitudes(chi, 0.0, g, 1.0 / chi, k, 0.0)
