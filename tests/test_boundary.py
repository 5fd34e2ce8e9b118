import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltaprime import (ConnectionMatrix, DeltaPrimeError, InvariantViolation,
                        ProductParams, SingularParameterError, SqueezePath,
                        bc_from_product, bound_state, delta_prime_delta_matrix,
                        params_from_resonance, resonance_set, resonant_matrix,
                        resonant_scattering, scattering, seba_matrix)
from deltaprime.boundary import det_residual

CHI1 = -35.874573920759161
G1_C1 = 276.34588992287415


def rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def test_resonant_matrix_layout():
    cm = resonant_matrix(2.0, 3.0)
    assert dataclasses.astuple(cm) == (2.0, 0.0, 3.0, 0.5)
    assert cm.det == 1.0
    assert dataclasses.astuple(resonant_matrix(1.0)) == (1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        resonant_matrix(0.0)


def test_unit_determinant_enforced():
    with pytest.raises(InvariantViolation):
        ConnectionMatrix(2.0, 0.0, 0.0, 1.0)


def test_seba_matrix_values_and_poles():
    assert dataclasses.astuple(seba_matrix(0.0)) == (1.0, 0.0, 0.0, 1.0)
    cm = seba_matrix(1.0)
    assert cm.l11 == pytest.approx(3.0, rel=1e-15)
    assert cm.l22 == pytest.approx(1.0 / 3.0, rel=1e-15)
    for lam in (2.0, -2.0):
        with pytest.raises(SingularParameterError):
            seba_matrix(lam)


def test_delta_prime_delta_matrix():
    assert dataclasses.astuple(delta_prime_delta_matrix(0.0, 1.3)) == \
        dataclasses.astuple(seba_matrix(1.3))
    assert dataclasses.astuple(delta_prime_delta_matrix(1.0, 0.0)) == \
        (1.0, 0.0, 1.0, 1.0)
    cm = delta_prime_delta_matrix(2.0, 1.0)
    assert cm.l21 == pytest.approx(8.0 / 3.0, rel=1e-15)
    with pytest.raises(SingularParameterError):
        delta_prime_delta_matrix(1.0, 2.0)


def test_product_rule_matches_symmetrized_product():
    # alpha = 1/2, beta = 0 is the equal-weights product
    for lam in (0.5, 1.0, 3.0):
        got = bc_from_product(ProductParams(0.5, 0.0), lam)
        ref = seba_matrix(lam)
        assert rel(got.l11, ref.l11) < 1e-12
        assert rel(got.l22, ref.l22) < 1e-12
        assert got.l21 == 0.0


def test_product_rule_identity_at_zero_coupling():
    for alpha, beta in [(0.3, 0.0), (0.9, 2.5), (-1.0, 1.0)]:
        cm = bc_from_product(ProductParams(alpha, beta), 0.0)
        assert dataclasses.astuple(cm) == (1.0, 0.0, 0.0, 1.0)


def test_product_rule_poles_named():
    with pytest.raises(SingularParameterError, match="1 - alpha\\*lam"):
        bc_from_product(ProductParams(1.0, 0.0), 1.0)
    with pytest.raises(SingularParameterError, match="1 \\+ \\(1-alpha\\)\\*lam"):
        bc_from_product(ProductParams(2.0, 0.0), 1.0)


def test_params_from_resonance_first_adjacent():
    r = resonance_set(SqueezePath.adjacent(), 1)[0]
    params = params_from_resonance(r.lam, r.chi, r.g)
    assert params.alpha == pytest.approx(0.09197734745191746, abs=1e-12)
    assert params.beta == 0.0
    assert 0.0 < params.alpha < 1.0


def test_round_trip_adjacent_and_quadratic():
    for path in (SqueezePath.adjacent(), SqueezePath.power_law(1.0, 2.0)):
        for r in resonance_set(path, 10):
            params = params_from_resonance(r.lam, r.chi, r.g)
            cm = bc_from_product(params, r.lam)
            assert rel(cm.l11, r.chi) < 1e-12
            assert rel(cm.l21, r.g) < 1e-12


ROUND_TRIP_RULES = ("adjacent", "linear:0.1", "linear:3", "quadratic:1",
                    "quadratic:3", "power:2:3")


def assert_round_trip(r):
    params = params_from_resonance(r.lam, r.chi, r.g)
    cm = bc_from_product(params, r.lam)
    assert rel(cm.l11, r.chi) < 1e-12, r.n
    assert rel(cm.l21, r.g) < 1e-12, r.n
    assert rel(cm.l22, 1.0 / r.chi) < 1e-12, r.n


@pytest.mark.parametrize("spec", ROUND_TRIP_RULES)
def test_round_trip_to_n_100(spec):
    for r in resonance_set(SqueezePath.parse(spec), 100):
        assert_round_trip(r)


def test_round_trip_quadratic_at_largest_index():
    # chi*g/(1-chi)**2 overflows here; (chi*delta)*(g*delta) does not
    r = resonance_set(SqueezePath.parse("quadratic:3"), 112)[-1]
    assert abs(r.chi * r.g) == math.inf
    assert_round_trip(r)


def test_hand_built_params_have_no_fitted_coupling():
    params = ProductParams(0.25, 1.0)
    assert params.lam_fit == math.inf
    assert params.offset == 0.25
    assert params == ProductParams(0.25, 1.0, math.inf, 0.25)


@pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan])
def test_product_rule_rejects_non_finite_coupling(lam):
    r = resonance_set(SqueezePath.adjacent(), 3)[-1]
    fitted = params_from_resonance(r.lam, r.chi, r.g)
    for params in (ProductParams(0.5, 0.0), fitted):
        with pytest.raises(ValueError, match="finite"):
            bc_from_product(params, lam)


def test_params_from_resonance_rejects_poles():
    with pytest.raises(SingularParameterError):
        params_from_resonance(2.0, 1.0, 0.0)
    with pytest.raises(SingularParameterError):
        params_from_resonance(0.0, 2.0, 0.0)


@pytest.mark.parametrize("offset", [None, 0.5])
def test_zero_fitted_coupling_is_singular(offset):
    with pytest.raises(SingularParameterError, match="lam_fit = 0"):
        ProductParams(1.0, 0.0, lam_fit=0.0, offset=offset)


@pytest.mark.parametrize("data", [(3.0, math.inf, 0.0), (3.0, 0.5, math.nan),
                                  (1e-320, -3.0, 0.0)])
def test_params_from_resonance_rejects_non_finite_weights(data):
    names = "lam_n = {}, chi_n = {}, g_n = {}".format(*data)
    with pytest.raises(ValueError, match=re.escape(names)):
        params_from_resonance(*data)


def test_scattering_from_matrix_identity():
    amp = scattering(resonant_matrix(1.0), 1.0)
    assert amp.R == 0.0
    assert amp.T == 1.0


def test_scattering_from_matrix_agrees_with_closed_form():
    # same amplitudes through two code paths
    for k in (0.1, 1.0, 10.0):
        a = scattering(resonant_matrix(CHI1, 0.0), k)
        b = resonant_scattering(CHI1, 0.0, k)
        assert abs(a.R - b.R) < 1e-12
        assert abs(a.T - b.T) < 1e-12
        c = scattering(resonant_matrix(CHI1, G1_C1), k)
        d = resonant_scattering(CHI1, G1_C1, k)
        assert abs(c.R - d.R) < 1e-12
        assert abs(c.T - d.T) < 1e-12


def test_scattering_from_seba_matrix():
    amp = scattering(seba_matrix(1.0), 1.0)
    assert amp.R.real == pytest.approx(-0.8, rel=1e-12)
    assert amp.T.real == pytest.approx(0.6, rel=1e-12)
    assert amp.conservation_residual < 1e-10


def test_scattering_rejects_phase_and_bad_k():
    with pytest.raises(ValueError):
        scattering(resonant_matrix(2.0), 0.0)


def test_bound_state_resonant_form():
    kappas = bound_state(resonant_matrix(CHI1, G1_C1))
    assert len(kappas) == 1
    assert kappas[0] == pytest.approx(-G1_C1 / (CHI1 + 1.0 / CHI1), rel=1e-12)


def test_bound_state_none_for_diagonal():
    assert bound_state(seba_matrix(1.0)) == []
    assert bound_state(resonant_matrix(CHI1)) == []


def test_bound_state_attractive_delta():
    # pure delta of strength -2: kappa = 1, energy -1
    assert bound_state(delta_prime_delta_matrix(-2.0, 0.0)) == [1.0]


def test_bound_state_full_matrix_quadratic():
    # l12 != 0 exercises the full quadratic; oracle: numpy roots
    cm = ConnectionMatrix(-2.0, 1.0, 1.0, -1.0)
    got = bound_state(cm)
    ref = sorted(r.real for r in np.roots([cm.l12, cm.l11 + cm.l22, cm.l21])
                 if abs(r.imag) == 0.0 and r.real > 0)
    assert got == pytest.approx(ref, rel=1e-12)
    assert len(got) == 2


def test_bound_state_rejects_kappa_zero():
    # l21 = 0 with l12 != 0 has the root kappa = 0: not normalizable
    cm = ConnectionMatrix(-2.0, 1.0, 0.0, -0.5)
    got = bound_state(cm)
    assert 0.0 not in got
    assert got == pytest.approx([2.5], rel=1e-12)


@pytest.mark.parametrize("build, args", [
    (seba_matrix, (math.inf,)), (seba_matrix, (-math.inf,)),
    (delta_prime_delta_matrix, (0.0, math.inf)),
    (resonant_matrix, (math.inf, 0.0))])
def test_nan_entries_fail_the_determinant_check(build, args):
    # a NaN entry product: the residual's scale keeps its 1.0, never 0, so
    # the NaN numerator fails the check (was a bare ZeroDivisionError)
    with pytest.raises(InvariantViolation,
                       match=r"^connection matrix determinant nan != 1$"):
        build(*args)


def _hand_built_params(alpha, lam_fit):
    return bc_from_product(ProductParams(alpha=alpha, beta=0.0,
                                         lam_fit=lam_fit), 1.0)


@pytest.mark.parametrize("build, args", [
    (seba_matrix, (1e300,)),
    (lambda lam: bc_from_product(ProductParams(alpha=0.0, beta=1.0), lam),
     (1e300,)),
    (resonant_matrix, (5e-324, 1.0)),
    (_hand_built_params, (1.0, 1e-320))])
@pytest.mark.parametrize("cast", [float, np.float64])
def test_numpy_scalars_fail_as_floats_do(build, args, cast):
    # numpy scalars are read as floats: a numpy RuntimeWarning, which -W
    # error turns into an exception of the wrong type, never comes up
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cm = build(*map(cast, args))
        except (DeltaPrimeError, ValueError):
            return
    assert all(type(v) is float and math.isfinite(v)
               for v in dataclasses.astuple(cm))
    assert cm.det_residual() <= 1e-12


@pytest.mark.parametrize("build, name, value", [
    (seba_matrix, "lam", "3"), (resonant_matrix, "chi", 1j),
    (lambda g: resonant_matrix(2.0, g), "g", np.array([1.0])),
    (lambda lam: bc_from_product(ProductParams(0.5, 0.0), lam), "lam", None),
    (lambda alpha: ProductParams(alpha, 0.0), "alpha", np.complex64(1.0))])
def test_boundary_names_an_argument_that_is_not_one_number(build, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be one real number"):
        build(value)


EDGES = [0.0, -0.0, 5e-324, 1.0, -1.0, 1e154, 1e300, math.inf, -math.inf,
         math.nan]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.tuples(*[st.sampled_from(EDGES)] * 4))
def test_scalar_and_array_residuals_agree_bit_for_bit(entries):
    got = det_residual(*entries)
    with np.errstate(all="ignore"):
        want = det_residual(*(np.array([v]) for v in entries))[0]
    assert (math.isnan(got) and math.isnan(want)) or got.hex() == want.hex()
