import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest


def bisect_oracle(f, lo, hi, tol=1e-14):
    """Plain interval halving; the reference root finder for tests."""
    flo, fhi = f(lo), f(hi)
    assert flo * fhi < 0, "oracle bracket must change sign"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def adjacent_root_oracle(n):
    return bisect_oracle(lambda s: math.tanh(s) - math.tan(s),
                         n * math.pi + 1e-9, n * math.pi + math.pi / 2 - 1e-9)


def linear_root_oracle(n, c):
    def f(s):
        th = math.tanh(s)
        return th / (1.0 + c * s * th) - math.tan(s)
    return bisect_oracle(f, n * math.pi + 1e-9, n * math.pi + math.pi / 2 - 1e-9)


@pytest.fixture(scope="session")
def random_quads():
    """The shared random-sample plan: 1000 draws of (l, rho, lam, E)."""
    rng = np.random.default_rng(20260808)
    return [(rng.uniform(1e-3, 1.0), rng.uniform(0.0, 1.0),
             rng.uniform(0.1, 30.0), rng.uniform(0.1, 10.0))
            for _ in range(1000)]


def where_region(s, l):
    """Region matrix of the transfer kernel in its elementwise form: both the
    growing and the oscillating form at every element, merged by np.where
    (a plain conditional on scalars).  Returns (c, t, d, g, a) as in
    ``transfer._region``; the reference its sign dispatch must match.  The
    oscillating form takes cos x and sin x from the half angle,
    h = tan(x/2): cos x = 2/(1 + h**2) - 1 and sin x = h * 2/(1 + h**2)."""
    def where(cond, a, b):
        if isinstance(cond, np.ndarray):
            return np.where(cond, a, b)
        return a if cond else b

    a = np.sqrt(np.abs(s))
    x = a * l
    grows = s > 0
    h = np.tan(a * (0.5 * l))
    w = 2.0 / (1.0 + h * h)
    sn = h * w
    return (where(grows, np.exp(-x), w - 1.0),
            where(grows, 0.0, where(a == 0, l, sn / a)),
            where(grows, 0.0, -a * sn),
            where(grows, np.sinh(x), 0.0),
            where(grows, a, 1.0))


def reference_entries(l, rho, lam, E):
    """``transfer.transfer_entries`` assembled from :func:`where_region`,
    every term of the product kept."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        scale = lam / np.square(l)
        c, t, d, g, p = where_region(scale - E, l)
        wc, wt, wd, wg, wa = where_region(-(scale + E), l)
        cq, sq, dq = wc + wg, wt + wg / wa, wd + wg * wa
        k = np.sqrt(E)
        ckr, skr = np.cos(k * rho), np.sin(k * rho)
        n11 = cq * ckr - k * sq * skr
        n12 = cq * skr / k + sq * ckr
        n21 = dq * ckr - k * cq * skr
        n22 = dq * skr / k + cq * ckr
        g1 = g * (n11 + p * n12)
        g2 = g * (n21 + p * n22)
        l11 = c * n11 + d * n12 + g1
        l12 = t * n11 + c * n12 + g1 / p
        l21 = c * n21 + d * n22 + g2
        l22 = t * n21 + c * n22 + g2 / p
    return l11, l12, l21, l22


def g_quadratic_forms(sigma, c, n):
    """Both closed forms of the quadratic-rule g at root ``sigma`` of index
    ``n``: -c*s**2*sinh(s)*sin(s) and
    (-1)**(n+1)*c*s**2*sinh(s)**2/sqrt(cosh(2s))."""
    direct = -c * sigma * sigma * math.sinh(sigma) * math.sin(sigma)
    signed = ((-1.0) ** (n + 1) * c * sigma * sigma
              * math.sinh(sigma) ** 2 / math.sqrt(math.cosh(2.0 * sigma)))
    return direct + 0.0, signed + 0.0


def eager_amplitudes(l11, l12, l21, l22, k, x0=0.0):
    """The complex scattering extraction that ``boundary.amplitudes`` used to
    run: Delta, R and T as complex values, then abs(.)**2.  The reference
    that its R and T, formed from the parts of the real extraction, must
    match bit for bit; no checks."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        delta = l11 + l22 - 1j * (k * l12 - l21 / k)
        R = -(l11 - l22 + 1j * (k * l12 + l21 / k)) / delta
        phase = -1j * k * x0
        T = 2.0 / delta * (cmath.exp(phase) if isinstance(phase, complex)
                           else np.exp(phase))
        return SimpleNamespace(R=R, T=T, R2=abs(R) ** 2, T2=abs(T) ** 2)


def parts_probabilities(l11, l12, l21, l22, k):
    """(|T|**2, |R|**2) as ``boundary.amplitudes`` formed them from the real
    and imaginary parts of s, d, u and v on every input, real or complex,
    with its hypot fallback where the flux check fails; no checks.  The
    reference its real-entry shortcut must match bit for bit."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        kl12, l21k = k * l12, l21 / k
        s, d, u, v = l11 + l22, kl12 - l21k, l11 - l22, kl12 + l21k
        dr, di = s.real + d.imag, s.imag - d.real
        nr, ni = u.real - v.imag, u.imag + v.real
        size2 = dr * dr + di * di
        t2, r2 = 4.0 / size2, (nr * nr + ni * ni) / size2
        if not np.all(abs(r2 + t2 - 1.0) <= 1e-10):
            over, size = size2 == math.inf, np.hypot(dr, di)
            t2 = np.where(over, np.square(2.0 / size), t2)[()]
            r2 = np.where(over, np.square(np.hypot(nr, ni) / size), r2)[()]
    return t2, r2
