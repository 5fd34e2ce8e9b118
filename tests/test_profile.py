import cmath

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from deltaprime import RectProfile, transfer_matrix


def test_barrier_branch_value():
    p = RectProfile(l=1.0, rho=0.5, lam=1.0)
    assert p.evaluate(0.5) == pytest.approx(1.0 / 1.5, abs=1e-15)


def test_outside_support_is_zero():
    p = RectProfile(l=1.0, rho=0.5, lam=1.0)
    assert p.evaluate(-1.0) == 0.0
    assert p.evaluate(10.0) == 0.0


def test_well_branch_value():
    # hand evaluation: x = 0.9 lies in [0.8, 1.3), depth -2/(0.5*0.8)
    p = RectProfile(l=0.5, rho=0.3, lam=2.0)
    assert p.evaluate(0.9) == pytest.approx(-5.0, abs=1e-14)


def test_half_open_endpoints():
    p = RectProfile(l=1.0, rho=0.5, lam=1.0)
    h = p.height
    assert p.evaluate(0.0) == h          # barrier starts closed
    assert p.evaluate(1.0) == 0.0        # gap starts at l
    assert p.evaluate(1.5) == -h         # well starts closed
    assert p.evaluate(2.5) == 0.0        # support ends open


def test_evaluate_vectorized():
    p = RectProfile(l=1.0, rho=0.5, lam=1.0)
    x = np.array([-1.0, 0.5, 1.2, 2.0, 3.0])
    np.testing.assert_allclose(
        p.evaluate(x), [0.0, p.height, 0.0, -p.height, 0.0], atol=0.0)


@pytest.mark.parametrize("l,rho", [(1.0, 0.0), (0.5, 0.3), (1e-3, 1.0)])
def test_moments_closed_form(l, rho):
    m0, m1 = RectProfile(l=l, rho=rho).moments()
    assert abs(m0) < 1e-12
    assert abs(m1 + 1.0) < 1e-12


def test_moments_ignore_coupling():
    assert RectProfile(1.0, 0.5, lam=7.0).moments() == \
        RectProfile(1.0, 0.5, lam=1.0).moments()


@pytest.mark.parametrize("l,rho", [(1.0, 0.5), (0.3, 0.0), (0.02, 1.5),
                                   (1e-3, 1.0)])
def test_moments_match_quadrature(l, rho):
    # independent oracle: adaptive quadrature over the evaluator itself
    p = RectProfile(l=l, rho=rho, lam=1.0)
    breaks = [0.0, l, l + rho, 2 * l + rho]
    m0, _ = quad(p.evaluate, -1.0, 2 * l + rho + 1.0, points=breaks, limit=200)
    m1, _ = quad(lambda x: x * p.evaluate(x), -1.0, 2 * l + rho + 1.0,
                 points=breaks, limit=200)
    c0, c1 = p.moments()
    assert m0 == pytest.approx(c0, abs=1e-12)
    assert m1 == pytest.approx(c1, abs=1e-12)


@given(l=st.floats(1e-3, 10.0), rho=st.floats(0.0, 10.0))
def test_moments_property(l, rho):
    m0, m1 = RectProfile(l=l, rho=rho).moments()
    assert abs(m0) < 1e-12
    assert abs(m1 + 1.0) < 1e-12


@pytest.mark.parametrize("l,rho", [(0.0, 0.0), (-1.0, 0.0), (1.0, -0.1)])
def test_invalid_geometry_rejected(l, rho):
    with pytest.raises(ValueError):
        RectProfile(l=l, rho=rho)


def _matched_from_height(p, E):
    """Interface matching across the shape that ``evaluate`` draws: the
    product well @ gap @ barrier of constant-potential slabs, psi'' =
    (v - E) psi, with v = +-p.height."""
    def slab(v, w):
        kap = cmath.sqrt(E - v)
        s, c = cmath.sin(kap * w), cmath.cos(kap * w)
        return np.array([[c, s / kap], [-kap * s, c]])
    return slab(-p.height, p.l) @ slab(0.0, p.rho) @ slab(p.height, p.l)


def _mismatch(p, E):
    tm = transfer_matrix(p, E)
    got = np.array([[tm.l11, tm.l12], [tm.l21, tm.l22]])
    want = _matched_from_height(p, E)
    return np.abs(got - want).max() / max(1.0, np.abs(want).max())


@pytest.mark.parametrize("l, lam, E", [(1.0, 1.0, 0.5), (0.3, -2.0, 1.5),
                                       (1e-2, 15.0, 1.0), (1e-3, 40.0, 2.0),
                                       (0.5, 0.1, 3.0)])
def test_height_matches_the_transfer_matrix_only_without_a_gap(l, lam, E):
    # transfer_entries takes the height lam/l**2 at any gap; the shape's
    # lam/(l*(l+rho)) is the same number only at rho = 0
    assert _mismatch(RectProfile(l=l, rho=0.0, lam=lam), E) < 1e-12
    assert _mismatch(RectProfile(l=l, rho=0.5, lam=lam), E) > 1e-6
