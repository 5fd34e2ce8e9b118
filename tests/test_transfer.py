import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (eager_amplitudes, parts_probabilities,
                      reference_entries)
from deltaprime import (InvariantViolation, RectProfile, TransferMatrix,
                        piecewise_transfer, scattering, transfer_matrix)
from deltaprime.boundary import _probabilities, _quiet
from deltaprime.transfer import (_ONE, _TWO, _form, _region, amplitudes,
                                 transfer_entries)

LAM1 = 15.418205716980063  # first adjacent resonance coupling, sigma_1**2
SIGMA1 = 3.926602312047919


def agreement_residual(a: TransferMatrix, b: TransferMatrix) -> float:
    scale = max(1.0, *(abs(v) for m in (a, b)
                        for v in (m.l11, m.l12, m.l21, m.l22)))
    return max(abs(a.l11 - b.l11), abs(a.l12 - b.l12),
               abs(a.l21 - b.l21), abs(a.l22 - b.l22)) / scale


def test_free_propagation_entries():
    # lam = 0 collapses to free propagation over x0 = 2l + rho
    tm = transfer_matrix(RectProfile(l=0.3, rho=0.4, lam=0.0), E=4.0)
    k, x0 = 2.0, 1.0
    assert tm.x0 == pytest.approx(x0, abs=1e-15)
    assert tm.l11 == pytest.approx(math.cos(k * x0), abs=1e-14)
    assert tm.l12 == pytest.approx(math.sin(k * x0) / k, abs=1e-14)
    assert tm.l21 == pytest.approx(-k * math.sin(k * x0), abs=1e-14)
    assert tm.l22 == pytest.approx(math.cos(k * x0), abs=1e-14)


def test_unit_determinant_simple_case():
    tm = transfer_matrix(RectProfile(l=1.0, rho=0.0, lam=1.0), E=1.0)
    assert tm.det_residual() < 1e-12


def test_entries_real_below_barrier_top():
    # E < lam/l**2 keeps p real; all entries stay exactly real
    tm = transfer_matrix(RectProfile(l=0.5, rho=0.2, lam=2.0), E=1.0)
    for entry in (tm.l11, tm.l12, tm.l21, tm.l22):
        assert entry.imag == 0.0


def test_above_barrier_top_still_consistent():
    # E > lam/l**2 makes p imaginary; formulas remain valid
    profile = RectProfile(l=1.0, rho=0.3, lam=1.0)
    tm = transfer_matrix(profile, E=5.0)
    assert tm.det_residual() < 1e-12
    assert agreement_residual(tm, piecewise_transfer(profile, 5.0)) < 1e-12
    amp = scattering(tm, math.sqrt(5.0))
    assert amp.conservation_residual < 1e-10


def test_energy_exactly_at_barrier_top():
    # p = 0 is a removable singularity of the closed forms
    profile = RectProfile(l=1.0, rho=0.4, lam=1.0)
    tm = transfer_matrix(profile, E=1.0)
    assert agreement_residual(tm, piecewise_transfer(profile, 1.0)) < 1e-12
    assert tm.det_residual() < 1e-12


def test_negative_coupling_mechanically_valid():
    profile = RectProfile(l=0.4, rho=0.1, lam=-3.0)
    tm = transfer_matrix(profile, E=1.5)
    assert tm.det_residual() < 1e-12
    assert agreement_residual(tm, piecewise_transfer(profile, 1.5)) < 1e-12


def test_oracle_agreement_random(random_quads):
    for l, rho, lam, E in random_quads[:200]:
        profile = RectProfile(l=l, rho=rho, lam=lam)
        a = transfer_matrix(profile, E)
        b = piecewise_transfer(profile, E)
        assert agreement_residual(a, b) < 1e-10
        assert a.det_residual() < 1e-12
        assert b.det_residual() < 1e-12


def test_transfer_entries_array_matches_oracle(random_quads):
    l, rho, lam, E = np.array(random_quads).T
    entries = transfer_entries(l, rho, lam, E)
    assert all(v.shape == (len(random_quads),) for v in entries)
    for i, quad in enumerate(random_quads):
        a = TransferMatrix(*(complex(v[i]) for v in entries), x0=0.0)
        b = piecewise_transfer(RectProfile(*quad[:3]), quad[3])
        assert agreement_residual(a, b) < 1e-10


def assert_same_bits(got, want):
    """Equal values, signs of zero, shapes and scalar-ness."""
    assert type(got) is type(want)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    assert np.shape(got) == np.shape(want)


# Coupling families by the sign of s in the barrier (lam/l**2 - E) and the
# well (-(lam/l**2 + E)): u > 0 keeps each sign clear of rounding.
_FAMILIES = {
    "barrier grows": lambda l, E, u: l * l * (E + u),
    "barrier oscillates": lambda l, E, u: l * l * E * u / (1.0 + u),
    "well grows": lambda l, E, u: -l * l * (E + u),
}


@st.composite
def kernel_inputs(draw):
    """(l, rho, E, couplings): all of one family, or several mixed; a width
    that is a power of two also admits lam = +-E*l**2, where the barrier or
    the well has s = 0 exactly."""
    pow2 = draw(st.booleans())
    l = (2.0 ** -draw(st.integers(0, 12)) if pow2
         else draw(st.floats(1e-4, 1.0)))
    rho = draw(st.floats(0.0, 1.0))
    E = draw(st.floats(0.01, 10.0))
    families = draw(st.lists(st.sampled_from(sorted(_FAMILIES)), min_size=1,
                             max_size=3))
    lams = [_FAMILIES[draw(st.sampled_from(families))](
        l, E, draw(st.floats(1e-3, 1e5))) for _ in range(draw(st.integers(1, 6)))]
    if pow2:
        lams += draw(st.lists(st.sampled_from([E * l * l, -E * l * l]),
                              max_size=2))
    return l, rho, E, draw(st.permutations(lams))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kernel_inputs())
# a zero gap, where an oscillating well is its own product with the gap,
# with the barrier growing everywhere, oscillating everywhere, or mixed
@example((0.1, 0.0, 2.5, [15.418205716980063, 100.0, 3e3]))
@example((0.5, 0.0, 3.0, [0.1, 0.2, 0.5]))
@example((0.5, 0.0, 3.0, [0.1, 15.0, -0.5]))
# E = 1: s = 0 exactly in the barrier and in the well, at l = 1/4
@example((0.25, 0.3, 1.0, [0.0625, -0.0625, 3.0, -3.0]))
# a growing well whose sinh overflows (x = 1000 and 2000): inf and NaN
# entries, with and without a gap
@example((0.5, 0.0, 1.0, [-1e6, -4e6, 2.0]))
@example((0.5, 0.7, 1.0, [-1e6, -4e6]))
# a scalar zero gap where both regions oscillate at a = sqrt(E) and
# np.tan(a * (0.5 * l)) is exactly 1 (22.776546738526) or -1
# (160653.97972111145) at lam = 0: cos x = 2/2 - 1 is +0.0 in the well,
# which the zero-gap shortcut passes on, and L12 or L21 is a signed zero
@example((2.0, 0.0, 518.7710813322594, [0.0, 1.0]))
@example((2.0, 0.0, 25809701200.23129, [0.0, 1.0]))
def test_kernel_matches_elementwise_reference_bit_for_bit(inputs):
    l, rho, E, lams = inputs
    arr = np.array(lams)
    for got, want in zip(transfer_entries(l, rho, arr, E),
                         reference_entries(l, rho, arr, E)):
        assert_same_bits(got, want)
    for lam in lams:  # scalars take the same dispatch, with a Python bool
        for got, want in zip(transfer_entries(l, rho, lam, E),
                             reference_entries(l, rho, lam, E)):
            assert_same_bits(got, want)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(0.0, 1e300))
@example(0.0)
@example(2.0 * 22.776546738526)  # np.tan(x/2) == 1: cos x is 0.0 exactly
@example(math.pi)
def test_oscillating_form_is_within_two_eps_of_mpmath(x):
    # cos x = 2/(1 + h**2) - 1 and sin x = h * 2/(1 + h**2) from
    # h = tan(x/2): absolute errors of up to about 1.5 eps, against 0.25
    # for libm's cos and sin
    mpmath = pytest.importorskip("mpmath")
    eps = 2.0 ** -52
    c, t, d, g, a = _region(1.0, x, 0.5 * x, False, 1.0, 2.0)
    c, t, d = float(c), float(t), float(d)
    with mpmath.workdps(40):
        cos, sin = mpmath.cos(mpmath.mpf(x)), mpmath.sin(mpmath.mpf(x))
        assert abs(c - cos) <= 2.0 * eps
        assert abs(t - sin) <= 2.0 * eps
        assert abs(d + sin) <= 2.0 * eps
    assert (g, a) == (0.0, 1.0)


def test_oscillating_form_is_nan_past_overflow_and_at_nan():
    # tan(inf) is NaN, as cos(inf) was; quiet under the kernel's errstate
    with _quiet():
        for x in (math.inf, math.nan):
            scalar = _region(1.0, x, 0.5 * x, False, 1.0, 2.0)
            array = _region(np.array([1.0]), x, 0.5 * x, False, _ONE, _TWO)
            assert all(math.isnan(v) for v in scalar[:3])
            assert np.isnan(array[0]).all()


def test_entries_meet_the_50_digit_product_to_a_stated_error():
    # errors in units of eps times each entry's term size |W||G||B|, over
    # 3000 draws; the largest sit where q*l is next to a multiple of pi/2,
    # where the rounding of q*l moves a vanishing cos or sin of the well
    pytest.importorskip("mpmath")
    from oracle import entry_errors
    rng = np.random.default_rng(28)
    n = 3000
    l = 10.0 ** rng.uniform(-4.0, -1.0, n)
    lam = rng.uniform(0.5, 400.0, n)
    E = rng.choice([0.5, 1.0, 2.0], n)
    rho = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 1.0, n))
    got = np.array(transfer_entries(l, rho, lam, E)).T
    worst = np.array([max(entry_errors(got[i], l[i], rho[i], lam[i], E[i]))
                      for i in range(n)])
    median, p99 = np.percentile(worst, [50, 99])
    assert median <= 10.0 and p99 <= 300.0 and worst.max() <= 2e4


@pytest.mark.parametrize("rho", [0.0, 0.3])
@pytest.mark.parametrize("l, lam", [
    (0.1, LAM1),     # the barrier grows, the well oscillates
    (0.5, 0.1),      # both oscillate
    (0.5, 0.25),     # the barrier's s = lam/l**2 - E is 0 exactly
    (0.5, -0.25)])   # the well's s = -(lam/l**2 + E) is 0 exactly
def test_scalar_inputs_give_numpy_scalars_never_0d_arrays(l, rho, lam):
    # beside an array coupling the kernel's coupling-free operands are 0-d
    # arrays (but at a zero gap), and none may leak out: a 0-d array has
    # shape () too
    entries = transfer_entries(l, rho, lam, 1.0)
    assert [type(v) for v in entries] == 4 * [np.float64]
    boxed = transfer_entries(l, rho, np.array(lam), 1.0)
    assert [type(v) for v in boxed] == 4 * [np.float64]
    assert np.array(boxed).tobytes() == np.array(entries).tobytes()
    tm = transfer_matrix(RectProfile(l=l, rho=rho, lam=lam), 1.0)
    assert [type(v) for v in (tm.l11, tm.l12, tm.l21, tm.l22)] == 4 * [complex]
    assert [complex(v) for v in entries] == [tm.l11, tm.l12, tm.l21, tm.l22]


def test_a_boxed_zero_gap_matches_the_scalar_call_where_the_well_grows():
    # below zero the well grows, so the zero-gap shortcut is off and the
    # two region forms merge: the array call multiplies by the zero gap's
    # 0-d cos and sin, and every bit stays the per-coupling scalar call's
    def bits(x):
        return "nan" if math.isnan(x) else float(x).hex()

    lams = np.linspace(-80.0, 80.0, 321)
    got = np.array(transfer_entries(1e-2, 0.0, lams, 1.0)).T
    for lam, row in zip(lams.tolist(), got):
        want = transfer_entries(1e-2, 0.0, lam, 1.0)
        assert [bits(v) for v in row] == [bits(v) for v in want]


def test_region_computes_one_form_when_signs_agree():
    assert _form(np.array([2.0, 3.0])) is True
    assert _form(np.array([-2.0, -3.0])) is False
    assert _form(np.float64(2.0)) is True
    assert _form(np.float64(-2.0)) is False
    # mixed signs, NaN, or s = 0 exactly, merge both forms elementwise; at
    # s = 0 sin(x)/a is 0/0, which the merge replaces by l
    with np.errstate(invalid="ignore"):
        for s in (np.array([-2.0, 3.0]), np.array([0.0, 3.0]),
                  np.array([-2.0, -0.0]), np.array([np.nan, 3.0])):
            np.testing.assert_array_equal(_form(s), s > 0)
        grows = _form(np.float64(0.0))
        assert grows is np.False_
        c, t, d, g, a = _region(np.float64(0.0), 0.5, 0.25, grows, 1.0, 2.0)
    assert (c, t, d, g, a) == (1.0, 0.5, 0.0, 0.0, 1.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(1e-6, 1.0), st.floats(0.01, 10.0),
       st.lists(st.floats(0.0, 1e300), min_size=1, max_size=8))
def test_well_oscillates_wherever_the_barrier_grows(l, E, lams):
    # the kernel skips the well's sign test where the barrier's form is
    # True; the form that test would find is False there, an overflowing
    # scale = inf included
    with np.errstate(over="ignore"):
        for scale in (np.array(lams) / np.square(l),
                      lams[0] / np.square(l)):
            if _form(scale - E) is True:
                assert _form(-(scale + E)) is False


def test_scattering_identity_matrix():
    amp = scattering(TransferMatrix(1.0, 0.0, 0.0, 1.0, x0=0.0), k=1.0)
    assert amp.R == 0.0
    assert amp.T == pytest.approx(1.0, abs=1e-15)


def test_scattering_rejects_non_conserving_matrix():
    # det = 4: |Delta| = 4, but T = 0.5, R = 0
    with pytest.raises(InvariantViolation, match="conservation"):
        scattering(TransferMatrix(2.0, 0.0, 0.0, 2.0, x0=0.0), 1.0)


def test_batch_checks_name_first_failing_element():
    # only the middle matrix has det = 4 (T = 0.5, R = 0)
    ones, zeros = np.ones(3), np.zeros(3)
    diag = np.array([1.0, 2.0, 1.0])
    with pytest.raises(InvariantViolation, match="conservation residual 0.75"):
        amplitudes(diag, zeros, zeros, diag, 1.0)
    with pytest.raises(ValueError, match="wavenumber must be positive, got nan"):
        amplitudes(ones, zeros, zeros, ones, np.array([1.0, np.nan, 0.0]))
    nan_middle = np.array([1.0, np.nan, 1.0])
    with pytest.raises(InvariantViolation, match="conservation residual nan"):
        amplitudes(nan_middle, zeros, zeros, nan_middle, 1.0)


@pytest.mark.parametrize("entries, match", [
    ((1.0, 0.0, 0.0, -1.0), "conservation residual inf"),
    ((1, 0, 0, -1), "conservation residual inf"),
    ((1j, 0.0, 0.0, -1j), "conservation residual inf"),
], ids=["real", "int", "complex"])
def test_zero_delta_is_the_same_typed_error_on_scalars_and_arrays(entries,
                                                                    match):
    # Python numbers raise on x/0 where numpy divides quietly; both forms
    # end in the fallback, which names the failing check
    for args in (entries, [np.array([v]) for v in entries]):
        with pytest.raises(InvariantViolation, match=match):
            amplitudes(*args, 1.0)


# A real matrix has |Delta|**2 = |u + i*v|**2 + 4*det, so one with
# |Delta| < 2 - 1e-9 has a flux residual 4*|1 - det|/|Delta|**2 above 1e-9:
# the flux check alone rejects it.  The matrix is drawn as (s, d, u, v),
# which covers every real matrix at a given k.  The residual is least,
# about 1e-9, where |Delta| is next to 2 - 1e-9 and u + i*v next to 0.
_NEAR_TWO = st.one_of(st.floats(2.0 - 1e-8, 2.0 - 1e-9),
                      st.floats(0.0, 2.0 - 1e-9))
_NEAR_ZERO = st.one_of(st.floats(-1e-5, 1e-5), st.floats(-1e200, 1e200))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(size=_NEAR_TWO, angle=st.floats(0.0, 2.0 * math.pi), u=_NEAR_ZERO,
       v=_NEAR_ZERO, k=st.floats(1e-3, 1e3))
@example(size=2.0 - 2e-9, angle=0.0, u=0.0, v=0.0, k=1.0)
def test_flux_check_rejects_every_real_matrix_with_small_delta(size, angle,
                                                               u, v, k):
    s, d = size * math.cos(angle), size * math.sin(angle)
    entries = ((s + u) / 2.0, (d + v) / (2.0 * k), (v - d) * k / 2.0,
               (s - u) / 2.0)
    l11, l12, l21, l22 = entries
    assume(math.hypot(l11 + l22, k * l12 - l21 / k) < 2.0 - 1e-9)
    with pytest.raises(InvariantViolation, match="conservation residual"):
        amplitudes(*entries, k)
    # the same matrix between two identities: the array names it
    arrays = [np.array([one, e, one]) for one, e in zip((1.0, 0.0, 0.0, 1.0),
                                                         entries)]
    with pytest.raises(InvariantViolation, match="conservation residual"):
        amplitudes(*arrays, k)


def test_conservation_simple_case():
    tm = transfer_matrix(RectProfile(l=1.0, rho=0.0, lam=1.0), E=1.0)
    amp = scattering(tm, 1.0)
    assert amp.conservation_residual < 1e-10


def test_resonant_transmission_near_limit():
    # at the first resonance the finite-width |T|^2 approaches 1 - tanh^4
    tm = transfer_matrix(RectProfile(l=1e-3, rho=0.0, lam=LAM1), E=1.0)
    amp = scattering(tm, 1.0)
    target = 1.0 - math.tanh(SIGMA1) ** 4
    assert amp.T2 == pytest.approx(target, abs=1e-4)


def test_transfer_matrix_checks_its_determinant():
    # at lam = 5.1e5 the barrier's cosh overflows: inf and NaN entries
    with pytest.raises(InvariantViolation,
                       match=r"^determinant residual nan$"):
        transfer_matrix(RectProfile(0.01, 0.0, 5.1e5), 1.0)


@pytest.mark.parametrize("profile", [
    RectProfile(l=1e-300, rho=0.0, lam=1.0),  # l*l underflows to 0
    RectProfile(l=1.0, rho=0.0, lam=1e300),   # the barrier's sinh overflows
])
def test_both_constructions_fail_typed_where_a_region_overflows(profile):
    with pytest.raises(InvariantViolation,
                       match=r"^determinant residual nan$"):
        transfer_matrix(profile, 1.0)
    message = f"{profile} overflows at E = 1.0"
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        piecewise_transfer(profile, 1.0)


def test_rejects_nonpositive_energy():
    profile = RectProfile(l=1.0, rho=0.0, lam=1.0)
    for E in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            transfer_matrix(profile, E)
        with pytest.raises(ValueError):
            piecewise_transfer(profile, E)
    with pytest.raises(ValueError):
        scattering(transfer_matrix(profile, 1.0), k=0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(l=st.floats(1e-3, 1.0), rho=st.floats(0.0, 1.0),
       lam=st.floats(0.1, 30.0), E=st.floats(0.1, 10.0))
def test_transfer_invariants_property(l, rho, lam, E):
    profile = RectProfile(l=l, rho=rho, lam=lam)
    tm = transfer_matrix(profile, E)
    assert tm.det_residual() < 1e-12
    assert agreement_residual(tm, piecewise_transfer(profile, E)) < 1e-10
    amp = scattering(tm, math.sqrt(E))
    assert amp.conservation_residual < 1e-10


def test_phase_of_transmission():
    # T carries the free propagation phase exp(-i k x0) relative to 2/Delta
    tm = transfer_matrix(RectProfile(l=0.2, rho=0.1, lam=4.0), E=2.0)
    k = math.sqrt(2.0)
    amp = scattering(tm, k)
    delta = tm.l11 + tm.l22 - 1j * (k * tm.l12 - tm.l21 / k)
    assert amp.T == pytest.approx(2.0 / delta * cmath.exp(-1j * k * tm.x0),
                                  rel=1e-12)


def _same_bits(got, want):
    assert type(got) is type(want)
    assert np.array_equal(np.atleast_1d(got).view(np.uint64),
                          np.atleast_1d(want).view(np.uint64))


def _assert_lazy_matches_eager(*args):
    amp, ref = amplitudes(*args), eager_amplitudes(*args)
    _same_bits(amp.R, ref.R)
    _same_bits(amp.T, ref.T)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(l=st.floats(1e-3, 1.0), rho=st.floats(0.0, 1.0),
       lam=st.floats(-30.0, 60.0), E=st.floats(0.1, 10.0),
       x0=st.floats(0.0, 50.0))
def test_lazy_amplitudes_match_eager_bit_for_bit(l, rho, lam, E, x0):
    # R and T are formed from the parts of the real extraction; they must
    # round exactly as the eager complex form did
    k = math.sqrt(E)
    entries = transfer_entries(l, rho, lam, E)
    _assert_lazy_matches_eager(*map(float, entries), k, x0)
    _assert_lazy_matches_eager(*map(np.float64, entries), np.float64(k),
                               np.float64(x0))
    tm = piecewise_transfer(RectProfile(l=l, rho=rho, lam=lam), E)
    _assert_lazy_matches_eager(tm.l11, tm.l12, tm.l21, tm.l22, k, tm.x0)
    # arrays over a coupling grid, then array k and x0 over an energy grid
    lams = lam + np.linspace(-5.0, 5.0, 33)
    _assert_lazy_matches_eager(*transfer_entries(l, rho, lams, E), k, x0)
    Es = E * np.linspace(0.5, 2.0, 17)
    _assert_lazy_matches_eager(*transfer_entries(l, rho, lam, Es),
                               np.sqrt(Es), np.linspace(0.0, x0, 17))
    ms = [piecewise_transfer(RectProfile(l=l, rho=rho, lam=v), E)
          for v in lams[::8]]
    _assert_lazy_matches_eager(*(np.array([getattr(m, name) for m in ms])
                                 for name in ("l11", "l12", "l21", "l22")),
                               k, x0)


def test_reading_amplitudes_of_huge_entries_raises_no_warning():
    # unit-determinant matrices with entries near the top of the double
    # range: |Delta|**2 overflows, so |T|**2 and |R|**2 come from hypot
    big = np.array([1e300, 1e200, 2.0])
    entries = big, big, -1.0 / big, np.zeros(3)
    x0 = np.array([0.5, 1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        amp = amplitudes(*entries, 1.0, x0)
        R, T = amp.R, amp.T
    np.testing.assert_array_equal(amp.T2[:2], 0.0)
    np.testing.assert_array_equal(amp.R2[:2], 1.0)
    assert amp.conservation_residual[2] < 1e-15
    ref = eager_amplitudes(*entries, 1.0, x0)
    _same_bits(R, ref.R)
    _same_bits(T, ref.T)
    huge = np.array([1e308])
    with pytest.warns(RuntimeWarning):  # what amplitudes switches off
        _ = -(huge + 1j * huge) / (huge - 1j * huge)


# unit-determinant matrices with signed zeros, one per column
_SIGNED_ZEROS = [np.array(row) for row in zip(
    (1.0, -0.0, 0.0, 1.0), (-1.0, 0.0, -0.0, -1.0), (0.0, 1.0, -1.0, 0.0),
    (-0.0, -1.0, 1.0, -0.0), (-0.0, 1.0, -1.0, -0.0))]
_BIG = np.array([1e300, 1e200, 2.0])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(l=st.floats(1e-3, 1.0), rho=st.floats(0.0, 1.0),
       lam=st.floats(-30.0, 60.0), E=st.floats(0.1, 10.0))
def test_probabilities_match_complex_parts_arithmetic_bit_for_bit(l, rho,
                                                                  lam, E):
    # |T|**2 and |R|**2 against the arithmetic on the real and imaginary
    # parts of s, d, u and v that amplitudes ran on every input: float
    # arrays, complex arrays (with +0 and -0 imaginary parts), Python and
    # numpy floats, complex numbers, signed zeros and huge entries, whose
    # |Delta|**2 overflows into the hypot fallback
    k = math.sqrt(E)
    rows = transfer_entries(l, rho, lam + np.linspace(-5.0, 5.0, 9), E)
    tm = piecewise_transfer(RectProfile(l=l, rho=rho, lam=lam), E)
    cases = [rows, [r.astype(complex) for r in rows],
             [np.conj(r.astype(complex)) for r in rows],
             [r[0].item() for r in rows], [r[0] for r in rows],
             [complex(r[0]) for r in rows], (tm.l11, tm.l12, tm.l21, tm.l22),
             _SIGNED_ZEROS, [r[2].item() for r in _SIGNED_ZEROS],
             [-r for r in _SIGNED_ZEROS],
             (_BIG, _BIG, -1.0 / _BIG, 0.0 * _BIG)]
    for entries in cases:
        amp = amplitudes(*entries, k)
        want = parts_probabilities(*entries, k)
        _same_bits(amp.T2, want[0])
        _same_bits(amp.R2, want[1])


_HUGE = 1e308, 1e308, -1e-308, 0.0


@pytest.mark.parametrize("args, error, match", [
    ((*_HUGE, 1.0), InvariantViolation, "not finite"),
    ((*(np.array([v]) for v in _HUGE), 1.0), InvariantViolation, "not finite"),
    ((1.0, 0.0, 0.0, 1.0, 2.0, 1e308), ValueError, r"phase k\*x0 = inf"),
    ((np.ones(2), np.zeros(2), np.zeros(2), np.ones(2), 1.0,
      np.array([0.0, np.inf])), ValueError, r"phase k\*x0 = inf"),
], ids=["scalar-entries", "array-entries", "scalar-phase", "array-phase"])
def test_reading_non_finite_amplitudes_raises_typed_error(args, error, match):
    # R2 and T2 pass the flux check, but at entries near 1.8e308 the complex
    # division that forms R overflows to a NaN part, and a phase k*x0 past
    # 1.8e308 has no finite exponential: the call raises, and does not warn
    with _quiet():
        t2, r2, _ = _probabilities(*args[:5])
    assert np.all(r2 + t2 == 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            amplitudes(*args)
