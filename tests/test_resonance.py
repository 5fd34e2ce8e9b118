import math
import re
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import (adjacent_root_oracle, g_quadratic_forms,
                      linear_root_oracle)
from deltaprime import (DeltaPrimeError, NotARootError, SqueezePath,
                        bound_state, bound_state_kappa, chi_linear,
                        g_quadratic, resonance_set, resonant_matrix,
                        resonant_scattering)
from deltaprime import resonance
from deltaprime.resonance import _linear_c, _record, _root, _solve_bracketed

# frozen reference values (independent bisection + direct evaluation)
SIGMA1 = 3.9266023120479188
SIGMA2 = 7.0685827456287321
CHI1 = -35.874573920759161
G1_C1 = 276.34588992287415
KAPPA1_C1 = 7.6971320629678741


def rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def test_first_two_adjacent_roots_frozen():
    rs = resonance_set(SqueezePath.adjacent(), 2)
    assert rs[0].sigma == pytest.approx(SIGMA1, abs=1e-12)
    assert rs[1].sigma == pytest.approx(SIGMA2, abs=1e-12)
    assert rs[0].lam == rs[0].sigma ** 2


def test_adjacent_roots_against_oracle():
    for r in resonance_set(SqueezePath.adjacent(), 5):
        assert abs(r.sigma - adjacent_root_oracle(r.n)) < 1e-9


def test_roots_satisfy_equation():
    for r in resonance_set(SqueezePath.adjacent(), 5):
        assert abs(math.tanh(r.sigma) - math.tan(r.sigma)) < 1e-10


def test_roots_increase_and_stay_bracketed():
    rs = resonance_set(SqueezePath.adjacent(), 6)
    sigmas = [r.sigma for r in rs]
    assert sigmas == sorted(sigmas)
    for r in rs:
        assert r.n * math.pi < r.sigma < r.n * math.pi + math.pi / 2


def test_linear_at_zero_c_coincides_with_adjacent():
    a = resonance_set(SqueezePath.adjacent(), 3)
    b = resonance_set(SqueezePath.power_law(0.0, 1.0), 3)
    for ra, rb in zip(a, b):
        assert abs(ra.sigma - rb.sigma) < 1e-12
        assert abs(ra.chi - rb.chi) < 1e-12 * max(1.0, abs(ra.chi))


def test_linear_root_c1_against_oracle():
    r = resonance_set(SqueezePath.power_law(1.0, 1.0), 1)[0]
    assert abs(r.sigma - linear_root_oracle(1, 1.0)) < 1e-9
    assert r.sigma == pytest.approx(3.3666027622222654, abs=1e-10)
    th = math.tanh(r.sigma)
    assert abs(th / (1.0 + r.sigma * th) - math.tan(r.sigma)) < 1e-10


def test_linear_rejects_negative_c_and_bad_count():
    with pytest.raises(ValueError):
        resonance_set(SqueezePath.power_law(-0.5, 1.0), 1)
    with pytest.raises(ValueError):
        resonance_set(SqueezePath.adjacent(), 0)


def test_chi_adjacent_value_and_chain():
    rs = resonance_set(SqueezePath.adjacent(), 10)
    assert rs[0].chi == pytest.approx(CHI1, rel=1e-12)
    for r in rs:
        a = math.cosh(r.sigma) / math.cos(r.sigma)
        b = math.sinh(r.sigma) / math.sin(r.sigma)
        c = (-1.0) ** r.n * math.sqrt(math.cosh(2 * r.sigma))
        assert rel(a, b) < 1e-9
        assert rel(a, c) < 1e-9


def test_chi_sign_alternates():
    for r in resonance_set(SqueezePath.adjacent(), 6):
        assert math.copysign(1.0, r.chi) == (-1.0) ** r.n


def test_chi_adjacent_rejects_non_root():
    with pytest.raises(NotARootError):
        chi_linear(4.2, 0.0)
    with pytest.raises(NotARootError):
        chi_linear(1.0, 0.0)  # below the first bracket


def test_solve_bracketed_rejects_a_jump():
    # a sign change without a zero: the secant points close in on the jump
    # at 4.5 until the bracket cannot shrink, and |f| there is still 1
    def step(s):
        return 1.0 if s < 4.5 else -1.0

    with pytest.raises(NotARootError, match="residual"):
        _solve_bracketed(step, 4.0, 5.0, step)


# Rules whose roots are checked against 40-digit mpmath, by the constant c
# of tanh(s)/(1 + c*s*tanh(s)) = tan(s); the quadratic and tau > 2 rules
# share the adjacent roots (c = 0).
ORACLE_RULES = {"adjacent": (SqueezePath.adjacent(), 0),
                "linear:0.1": (SqueezePath.power_law(0.1, 1.0), "0.1"),
                "linear:1": (SqueezePath.power_law(1.0, 1.0), 1),
                "linear:3": (SqueezePath.power_law(3.0, 1.0), 3)}
MAX_INDEX = 112


@pytest.mark.parametrize("rule", list(ORACLE_RULES))
def test_roots_match_mpmath_to_two_ulp(rule):
    mpmath = pytest.importorskip("mpmath")
    path, c = ORACLE_RULES[rule]
    with mpmath.workdps(40):
        c = mpmath.mpf(c)

        def g(s):  # the pole-free form, bracketed on the whole interval
            th = mpmath.tanh(s)
            return mpmath.cos(s) * th / (1 + c * s * th) - mpmath.sin(s)

        for n in range(1, MAX_INDEX + 1):
            lo = n * mpmath.pi
            want = mpmath.findroot(g, (lo, lo + mpmath.pi / 2),
                                   solver="anderson")
            got = _root(_linear_c(path), n)
            assert abs(got - want) <= 2 * math.ulp(got), (rule, n)


def test_each_root_takes_at_most_twelve_evaluations(monkeypatch):
    counts = []
    solve = resonance._solve_bracketed

    def counting(g, lo, hi, f):
        def counted(s):
            counts[-1] += 1
            return g(s)
        counts.append(0)
        return solve(counted, lo, hi, f)

    monkeypatch.setattr(resonance, "_solve_bracketed", counting)
    paths = [SqueezePath.adjacent(), SqueezePath.power_law(1.0, 2.0)]
    paths += [SqueezePath.power_law(c, 1.0)
              for c in (0.1, 0.7, 1.0, 2.0, 3.0, 1e3, 1e6)]
    for path in paths:
        for n in range(1, MAX_INDEX + 1):
            _root(_linear_c(path), n)
    assert len(counts) == len(paths) * MAX_INDEX
    assert max(counts) <= 12


def test_root_next_to_the_bracket_end():
    # on linear:1e12 the root sits about 1/(c*pi) = 3.2e-13 above pi, next
    # to the end of its bracket
    sigma = _root(_linear_c(SqueezePath.power_law(1e12, 1.0)), 1)
    assert sigma - math.pi == pytest.approx(1.0 / (1e12 * math.pi), rel=5e-3)
    th = math.tanh(sigma)
    assert abs(th / (1.0 + 1e12 * sigma * th) - math.tan(sigma)) < 1e-15


def test_chi_linear_reduces_and_chains():
    assert chi_linear(SIGMA1, 0.0) == pytest.approx(CHI1, rel=1e-12)
    for r in resonance_set(SqueezePath.power_law(1.0, 1.0), 5):
        u = math.cosh(r.sigma) + 1.0 * r.sigma * math.sinh(r.sigma)
        a = u / math.cos(r.sigma)
        b = math.sinh(r.sigma) / math.sin(r.sigma)
        c = (-1.0) ** r.n * math.sqrt(u * u + math.sinh(r.sigma) ** 2)
        assert rel(a, b) < 1e-9
        assert rel(a, c) < 1e-9
        assert math.copysign(1.0, r.chi) == (-1.0) ** r.n


def test_chi_linear_weighs_each_form_by_its_conditioning():
    # next to n*pi, sinh(s)/sin(s) carries ulp(s)*|cot(s)| ~ 1e-3 of
    # rounding: the root is accepted, a root moved by 1e-6 is not
    path = SqueezePath.power_law(1e12, 1.0)
    sigma = _root(_linear_c(path), 1)
    assert chi_linear(sigma, 1e12) < -3e13
    with pytest.raises(NotARootError, match="spread"):
        chi_linear(sigma + 1e-6, 1e12)
    for c in (0.0, 1.0):
        root = _root(_linear_c(SqueezePath.power_law(c, 1.0)), 3)
        chi_linear(root, c)
        with pytest.raises(NotARootError, match="spread"):
            chi_linear(root + 1e-6, c)


def test_chi_overflow_is_a_typed_error():
    # cosh(2s) overflows from n = 113 on
    root = _root(_linear_c(SqueezePath.adjacent()), 113)
    with pytest.raises(DeltaPrimeError, match=r"sigma = .*\(n = 113"):
        chi_linear(root, 0.0)
    assert math.isfinite(chi_linear(
        _root(_linear_c(SqueezePath.adjacent()), 112), 0.0))


@pytest.mark.parametrize("spec, count, n", [("quadratic:1e308", 3, 1),
                                           ("quadratic:1e300", 50, 5)])
def test_g_overflow_is_a_typed_error(spec, count, n):
    with pytest.raises(DeltaPrimeError,
                       match=rf"g overflows at sigma = .* \(n = {n}, c = "):
        resonance_set(SqueezePath.parse(spec), count)
    # sinh(s) itself overflows past s = 710
    with pytest.raises(DeltaPrimeError, match=r"g overflows .*\(n = 254,"):
        g_quadratic(800.0, 1.0)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, 1.0])
def test_chi_linear_names_a_sigma_in_no_bracket(sigma):
    with pytest.raises(NotARootError,
                       match=re.escape(f"sigma = {sigma} lies in no root")):
        chi_linear(sigma, 0.0)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_g_quadratic_names_a_non_finite_sigma(sigma):
    # sin(+-inf) raises ValueError, which g_quadratic takes as an overflow
    with pytest.raises(NotARootError,
                       match=re.escape(f"sigma = {sigma} lies in no root")):
        g_quadratic(sigma, 1.0)


def test_g_quadratic_value_and_forms():
    assert g_quadratic(SIGMA1, 1.0) == pytest.approx(G1_C1, rel=1e-12)
    for r in resonance_set(SqueezePath.adjacent(), 6):
        direct, signed = g_quadratic_forms(r.sigma, 1.0, r.n)
        assert rel(direct, signed) < 1e-9
        if direct != 0.0:
            assert math.copysign(1.0, direct) == (-1.0) ** (r.n + 1)


def test_g_quadratic_zero_at_c0():
    assert g_quadratic(SIGMA1, 0.0) == 0.0


def test_resonant_scattering_identity():
    amp = resonant_scattering(1.0, 0.0, 1.0)
    assert amp.R == 0.0
    assert amp.T == 1.0


def test_resonant_scattering_first_resonance():
    amp = resonant_scattering(CHI1, 0.0, 1.0)
    assert amp.R.real == pytest.approx(-math.tanh(SIGMA1) ** 2, rel=1e-12)
    assert amp.T.real == pytest.approx(-math.sqrt(1 - math.tanh(SIGMA1) ** 4),
                                       rel=1e-12)
    assert amp.conservation_residual < 1e-10


def test_resonant_scattering_k_independent_when_g_zero():
    amps = [resonant_scattering(CHI1, 0.0, k) for k in (0.1, 1.0, 10.0)]
    assert amps[0].R == amps[1].R == amps[2].R
    assert amps[0].T == amps[1].T == amps[2].T


def test_resonant_scattering_opaque_limit():
    # g -> infinity is the off-resonance (separated) limit
    amp = resonant_scattering(CHI1, 1e12, 1.0)
    assert abs(amp.R + 1.0) < 1e-6
    assert abs(amp.T) < 1e-6


def test_resonant_scattering_conservation():
    for chi, g, k in [(CHI1, 0.0, 1.0), (CHI1, G1_C1, 0.5), (2.0, -3.0, 2.0)]:
        assert resonant_scattering(chi, g, k).conservation_residual < 1e-10


def test_resonant_scattering_rejects_bad_input():
    with pytest.raises(ValueError):
        resonant_scattering(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        resonant_scattering(2.0, 0.0, 0.0)


def test_bound_state_kappa():
    assert bound_state_kappa(CHI1, 0.0) is None
    assert bound_state_kappa(2.0, 5.0) is None  # kappa = -2 < 0
    kappa = bound_state_kappa(CHI1, G1_C1)
    assert kappa == pytest.approx(KAPPA1_C1, rel=1e-11)
    assert kappa == pytest.approx(0.5 * SIGMA1 ** 2 * math.tanh(SIGMA1) ** 2,
                                  rel=1e-11)
    with pytest.raises(ValueError):
        bound_state_kappa(0.0, 1.0)
    with pytest.raises(ValueError):
        bound_state_kappa(complex(1, 1), 1.0)


@pytest.mark.parametrize("spec", [
    "adjacent", "linear:0.7", "linear:3", "power:1:1", "quadratic:1",
    "quadratic:3", "quadratic:1e300", "power:0.5:2", "power:2:3"])
def test_kappa_is_the_bound_state_root(spec):
    # every record up to n = 112, or up to the index where chi or g overflows
    path = SqueezePath.parse(spec)
    try:
        rs = resonance_set(path, MAX_INDEX)
    except DeltaPrimeError as exc:
        overflow = int(re.search(r"n = (\d+)", str(exc))[1])
        rs = resonance_set(path, overflow - 1)
    assert len(rs) >= 4
    for r in rs:
        want = (bound_state(resonant_matrix(r.chi, r.g)) or [0.0])[0]
        assert r.kappa.hex() == want.hex(), r.n
        # kappa = (c/2)*s**2*tanh(s)**2 > 0 on the quadratic rule only
        assert (r.kappa > 0.0) == (path.tau == 2.0), r.n


def test_resonance_set_dispatch():
    adj = resonance_set(SqueezePath.adjacent(), 2)
    assert adj[0].g == 0.0 and adj[0].kappa == 0.0

    quad = resonance_set(SqueezePath.power_law(1.0, 2.0), 2)
    assert quad[0].g == pytest.approx(G1_C1, rel=1e-12)
    assert quad[0].kappa == pytest.approx(KAPPA1_C1, rel=1e-11)
    assert quad[0].sigma == adj[0].sigma

    lin = resonance_set(SqueezePath.power_law(1.0, 1.0), 1)
    assert lin[0].sigma != adj[0].sigma

    cubic = resonance_set(SqueezePath.power_law(1.0, 3.0), 1)
    assert cubic[0].g == 0.0
    assert cubic[0].sigma == adj[0].sigma

    with pytest.raises(ValueError):
        resonance_set(SqueezePath.barrier_first(0.5), 1)
    with pytest.raises(ValueError):
        resonance_set(SqueezePath.power_law(1.0, 1.5), 1)
    with pytest.raises(ValueError):
        resonance_set(SqueezePath.adjacent(), 0)


SHARED_ROOT_RULES = ["adjacent", "quadratic:3", "power:2:3"]


def reference_set(path, count):
    return [repr(_record(path, _root(_linear_c(path), n)))
            for n in range(1, count + 1)]


@pytest.mark.parametrize("spec", SHARED_ROOT_RULES)
def test_resonance_set_reads_the_shared_roots_bit_for_bit(monkeypatch, spec):
    monkeypatch.setattr(resonance, "_ADJACENT_ROOTS", ())
    path = SqueezePath.parse(spec)
    want = reference_set(path, MAX_INDEX)
    for _ in ("cold", "warm"):
        # repr shows every float to the last bit, -0.0 included
        assert [repr(r) for r in resonance_set(path, MAX_INDEX)] == want
        assert len(resonance._ADJACENT_ROOTS) == MAX_INDEX
    assert [repr(r) for r in resonance_set(path, 7)] == want[:7]


def test_shared_roots_stop_where_chi_overflows(monkeypatch):
    monkeypatch.setattr(resonance, "_ADJACENT_ROOTS", ())
    raised = []
    for _ in ("cold", "warm"):
        with pytest.raises(DeltaPrimeError, match=r"chi .*\(n = 113,") as info:
            resonance_set(SqueezePath.adjacent(), 150)
        raised.append((type(info.value), str(info.value)))
        assert len(resonance._ADJACENT_ROOTS) == MAX_INDEX
    assert raised[0] == raised[1]


def test_concurrent_callers_get_the_same_records(monkeypatch):
    monkeypatch.setattr(resonance, "_ADJACENT_ROOTS", ())
    path = SqueezePath.parse("quadratic:3")
    start = threading.Barrier(4, timeout=30)

    def run(_):
        start.wait()
        return [repr(r) for r in resonance_set(path, MAX_INDEX)]

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(run, range(4)))
    assert results == [reference_set(path, MAX_INDEX)] * 4
