"""High-precision references for the numeric layers, in mpmath."""

import mpmath

DIGITS = 50
EPS = 2.0 ** -52


def _region(s, width):
    """Propagation matrix of psi'' = s * psi over ``width``, exactly."""
    if s > 0:
        a = mpmath.sqrt(s)
        ch, sh = mpmath.cosh(a * width), mpmath.sinh(a * width)
        return mpmath.matrix([[ch, sh / a], [a * sh, ch]])
    if s == 0:
        return mpmath.matrix([[1, width], [0, 1]])
    b = mpmath.sqrt(-s)
    cs, sn = mpmath.cos(b * width), mpmath.sin(b * width)
    return mpmath.matrix([[cs, sn / b], [-b * sn, cs]])


def entry_errors(entries, l, rho, lam, E):
    """Errors of the transfer entries (l11, l12, l21, l22) against the
    ``DIGITS``-digit product well @ gap @ barrier at the double inputs
    taken exactly, each in units of EPS times its term size: the same
    entry of |W| @ |G| @ |B|, the sum of the magnitudes of the products
    that the entry adds up."""
    with mpmath.workdps(DIGITS):
        l, rho, lam, E = (mpmath.mpf(float(v)) for v in (l, rho, lam, E))
        scale = lam / (l * l)
        exact, size = mpmath.eye(2), mpmath.eye(2)
        for m in (_region(-(scale + E), l), _region(-E, rho),
                  _region(scale - E, l)):
            exact, size = exact * m, size * m.apply(abs)
        return [float(abs(mpmath.mpf(float(got)) - exact[i // 2, i % 2])
                      / size[i // 2, i % 2]) / EPS
                for i, got in enumerate(entries)]
