"""Exact relations of the barrier-well pair, checked on every layer.

Scaling: lengths by 1/s and energies by s**2, (l, rho, lam, E) ->
(l/s, rho/s, lam, E*s**2), leaves lam/l**2 - E times s**2, so the transfer
matrix keeps L11 and L22 and turns L12 into L12/s and L21 into s*L21.  With
s a power of two every product and quotient of the kernel scales exactly,
and every sine, tangent, exponential and sqrt takes the same argument, so
the relation holds bit for bit.  Mirror: lam -> -lam swaps barrier and well,
the pair reflected in space, whose matrix is (L22, L12, L21, L11), and which
transmits the same |T|**2.
"""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from deltaprime import (PRECISION_FLOOR, RectProfile, SqueezePath, classify,
                        piecewise_transfer, trace, transfer_matrix,
                        transmission_sweep)
from deltaprime.transfer import amplitudes, transfer_entries

EPS = 2.0 ** -52
GEOMETRY = st.tuples(
    st.floats(1e-5, 1.0),                                 # l
    st.one_of(st.just(0.0), st.floats(1e-4, 1.0)),        # rho
    st.floats(-300.0, 300.0),                             # lam
    st.floats(0.01, 30.0))                                # E
POWERS = st.integers(-20, 20)  # s = 2**j


def _scaled(l, rho, E, s):
    return l / s, rho / s, E * s * s


def _same_bits(got, want):
    for a, b in zip(got, want, strict=True):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (a, b)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(geometry=GEOMETRY, j=POWERS)
def test_transfer_entries_scale_bit_for_bit(geometry, j):
    l, rho, lam, E = geometry
    s = 2.0 ** j
    l11, l12, l21, l22 = transfer_entries(l, rho, lam, E)
    sl, srho, sE = _scaled(l, rho, E, s)
    _same_bits(transfer_entries(sl, srho, lam, sE),
               (l11, l12 / s, l21 * s, l22))
    # every s = 2**-20 .. 2**20 at once, on the array path
    ss = 2.0 ** np.arange(-20, 21)
    one = np.ones(len(ss))
    l11, l12, l21, l22 = transfer_entries(l * one, rho * one, lam, E * one)
    sl, srho, sE = _scaled(l, rho, E, ss)
    _same_bits(transfer_entries(sl, srho, lam, sE),
               (l11, l12 / ss, l21 * ss, l22))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(geometry=GEOMETRY, j=POWERS)
def test_transfer_matrices_scale_bit_for_bit(geometry, j):
    l, rho, lam, E = geometry
    s = 2.0 ** j
    sl, srho, sE = _scaled(l, rho, E, s)
    for build in (transfer_matrix, piecewise_transfer):
        m = build(RectProfile(l, rho, lam), E)
        got = build(RectProfile(sl, srho, lam), sE)
        _same_bits((got.l11, got.l12, got.l21, got.l22, got.x0),
                   (m.l11, m.l12 / s, m.l21 * s, m.l22, m.x0 / s))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(geometry=GEOMETRY, span=st.floats(1.0, 300.0),
       s=st.sampled_from((2.0, 0.25, 1024.0)), gap=st.booleans())
def test_sweeps_scale_bit_for_bit(geometry, span, s, gap):
    # the adjacent rule keeps its zero gap; barrier-first:rho becomes
    # barrier-first:rho/s
    l, rho, lam, E = geometry
    assume(l / s >= PRECISION_FLOOR)
    rho = rho or 0.5  # barrier-first needs a gap
    path, spath = ((SqueezePath.barrier_first(rho),
                    SqueezePath.barrier_first(rho / s)) if gap
                   else (SqueezePath.adjacent(),) * 2)
    lam_min, lam_max = max(lam - span, -300.0), min(lam + span, 300.0)
    a = transmission_sweep(path, l, lam_min, lam_max, 2000, E)
    b = transmission_sweep(spath, l / s, lam_min, lam_max, 2000, E * s * s)
    _same_bits((b.lambdas, b.T2, b.R2), (a.lambdas, a.T2, a.R2))
    assert b.peaks == a.peaks


def _region_size(s, w):
    """|region matrix| of psi'' = s * psi over width w, elementwise, as
    arrays of shape (points, 2, 2)."""
    a = np.sqrt(np.abs(s))
    x = a * w
    grows = s > 0
    c = np.where(grows, np.cosh(x), np.abs(np.cos(x)))
    sn = np.abs(np.where(grows, np.sinh(x), np.sin(x)))
    t = np.where(a == 0, w, sn / np.where(a == 0, 1.0, a))
    return np.stack([np.stack([c, t], -1), np.stack([a * sn, c], -1)], -2)


def _term_size(l, rho, lam, E):
    """|W| @ |G| @ |B| at each width, the magnitudes of the products that
    each entry adds up, as rows (L11, L12, L21, L22)."""
    scale = lam / (l * l)
    m = (_region_size(-(scale + E), l) @ _region_size(-E + 0.0 * l, rho)
         @ _region_size(scale - E, l))
    return m.reshape(-1, 4)


# Measured over 600 draws of these parameters (seeded numpy): entries at
# most 867 eps times their term size, extrapolated values 4902 eps times
# the last point's term size, exponents 150 eps.  np.geomspace rounds a
# scaled grid up to 4 ulp apart from the grid divided by s, so neither is
# exact; the bounds keep about ten times the measured worst case.
ENTRY_BOUND, VALUE_BOUND, EXPONENT_BOUND = 1e4, 5e4, 2e3


@settings(max_examples=40, deadline=None, derandomize=True)
@given(geometry=GEOMETRY, j=st.integers(-6, 6), gap=st.booleans(),
       resonant=st.booleans())
def test_trace_and_classify_scale_to_a_measured_bound(geometry, j, gap,
                                                      resonant):
    # s <= 2**6 keeps l_end / s above the width floor; below, classify
    # calls a tail under an absolute 1e-6 flat, which no scaling keeps (at
    # s = 2**-19 an L21 of lam = 2**-7 turns from divergent to converges),
    # so s >= 2**-6
    _, rho, lam, E = geometry
    s = 2.0 ** j
    lam = 15.418205716980063 if resonant else abs(lam)  # lambda_1 or >= 0
    rho = rho or 0.5  # barrier-first needs a gap
    path, spath = ((SqueezePath.barrier_first(rho),
                    SqueezePath.barrier_first(rho / s)) if gap
                   else (SqueezePath.adjacent(),) * 2)
    a = trace(path, lam, E, 1e-1, 1e-4, 13)
    b = trace(spath, lam, E * s * s, 1e-1 / s, 1e-4 / s, 13)
    factor = np.array([1.0, 1.0 / s, s, 1.0])
    size = _term_size(a.l_values, a.rho_values, lam, E) * factor
    assert np.all(np.abs(b.entries - a.entries * factor)
                  <= ENTRY_BOUND * EPS * size)
    va, vb = classify(a), classify(b)
    for i, name in enumerate(("L11", "L12", "L21", "L22")):
        x, y = va.entries[name], vb.entries[name]
        assert x.kind == y.kind, name
        if x.is_divergent:
            assert abs(y.exponent - x.exponent) <= EXPONENT_BOUND * EPS
        else:
            assert (abs(y.value - x.value * factor[i])
                    <= VALUE_BOUND * EPS * size[-1, i]), name


@settings(max_examples=300, deadline=None, derandomize=True)
@given(geometry=GEOMETRY)
def test_mirror_swaps_the_diagonal(geometry):
    # measured over 3000 seeded numpy draws, l log-uniform: median 0.60,
    # p99 4.0 and max 92 in units of eps times the largest entry
    l, rho, lam, E = geometry
    l11, l12, l21, l22 = transfer_entries(l, rho, lam, E)
    got = transfer_entries(l, rho, -lam, E)
    top = max(map(abs, (l11, l12, l21, l22)))
    for x, y in zip(got, (l22, l12, l21, l11)):
        assert abs(x - y) <= 1e3 * EPS * top


@settings(max_examples=300, deadline=None, derandomize=True)
@given(geometry=GEOMETRY)
def test_mirror_transmits_equally(geometry):
    # measured over the same 3000 draws: at most 2 eps apart
    l, rho, lam, E = geometry
    k, x0 = math.sqrt(E), 2.0 * l + rho
    t2 = [amplitudes(*transfer_entries(l, rho, v, E), k, x0).T2
          for v in (lam, -lam)]
    assert abs(t2[0] - t2[1]) <= 16 * EPS
