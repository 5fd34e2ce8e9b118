import math
import re
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import (adjacent_root_oracle, g_quadratic_forms,
                      linear_root_oracle)
from deltaprime import (DeltaPrimeError, NotARootError, SqueezePath,
                        bound_state, chi_linear, g_quadratic, predict,
                        resonance_set, resonant_matrix, resonant_scattering)
from deltaprime import resonance
from deltaprime.cli import main
from deltaprime.resonance import (Resonance, _check_root, _index_of,
                                  _linear_c, _nth_root, _records, _root)

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
    with pytest.raises(ValueError,
                       match=re.escape("count must be >= 1, got 0")):
        resonance_set(SqueezePath.adjacent(), 0)


@pytest.mark.parametrize("count", [2.5, 3.0, math.nan, "3"])
def test_resonance_set_rejects_a_count_that_is_no_integer(count):
    with pytest.raises(ValueError, match=re.escape(
            f"count must be an integer >= 1, got {count!r}")):
        resonance_set(SqueezePath.adjacent(), count)


def test_resonance_set_takes_any_integer_count():
    np = pytest.importorskip("numpy")
    path = SqueezePath.adjacent()
    want = resonance_set(path, 3)
    assert resonance_set(path, np.int64(3)) == want
    assert resonance_set(path, True) == want[:1]


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


def test_root_checks_its_residual_once_at_the_point_it_returns(monkeypatch):
    # the residual the solver checks is the one of the sigma it returns
    seen = []

    def residual(s, c, _fn=resonance._residual):
        seen.append(s)
        return _fn(s, c)

    monkeypatch.setattr(resonance, "_residual", residual)
    assert _root(0.7, 5) == seen[-1] and len(seen) == 1
    monkeypatch.setattr(resonance, "_residual", lambda s, c: 2e-10)
    with pytest.raises(NotARootError, match=r"^no sigma in bracket n = 5 at "
                       r"c = 0\.7 meets \|residual\| <= 1e-10 \(residual "
                       r"2e-10 at sigma = "):
        _root(0.7, 5)


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


def test_each_root_takes_at_most_five_evaluations(monkeypatch):
    # each evaluation of the pole-free form takes one cos: one at the start,
    # then one after each Newton step that moves; two on average
    counts = []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def cos(self, s):
            counts[-1] += 1
            return math.cos(s)

    monkeypatch.setattr(resonance, "math", CountingMath())
    paths = [SqueezePath.adjacent(), SqueezePath.power_law(1.0, 2.0)]
    paths += [SqueezePath.power_law(c, 1.0)
              for c in (0.1, 0.7, 1.0, 2.0, 3.0, 1e3, 1e6)]
    for path in paths:
        for n in range(1, MAX_INDEX + 1):
            counts.append(0)
            _root(_linear_c(path), n)
    assert max(counts) <= 5
    assert sum(counts) <= 2 * len(counts)


# c of the bracket scan: 0, small and moderate c, and large c where the
# root lies within an ulp of n*pi (from 3.3e11 on the rounded n*pi can sit
# on or past it, as at n = 52 and 86 on linear:1e12)
ORACLE_C = [0.0, 1e-4, 0.1, 10.0, 1e4, 3.3e11, 1e12, 1e15, 1e300]
ORACLE_N = [1, 2, 36, 52, 86, 112]


@pytest.mark.parametrize("c", ORACLE_C)
def test_roots_are_the_correctly_rounded_60_digit_roots(c):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(70):
        for n in ORACLE_N:
            # t = atan(lhs(n*pi + t)) contracts by at most about 1/(4*n*pi)
            base, t = n * mpmath.pi, mpmath.mpf(0)
            for _ in range(100):
                th = mpmath.tanh(base + t)
                t, last = mpmath.atan(th / (1 + c * (base + t) * th)), t
                if abs(t - last) <= abs(t) * mpmath.mpf(10) ** -65:
                    break
            want = float(base + t)  # rounds to nearest
            sigma = _root(c, n)
            assert sigma == want, (c, n, sigma.hex(), want.hex())
            _check_root(sigma, c, n)
            assert _index_of(sigma) == n


def test_root_next_to_the_bracket_end():
    # on linear:1e12 the root sits about 1/(c*pi) = 3.2e-13 above pi, next
    # to the end of its bracket
    sigma = _root(_linear_c(SqueezePath.power_law(1e12, 1.0)), 1)
    assert sigma - math.pi == pytest.approx(1.0 / (1e12 * math.pi), rel=5e-3)
    th = math.tanh(sigma)
    assert abs(th / (1.0 + 1e12 * sigma * th) - math.tan(sigma)) < 1e-15


def test_chi_linear_reduces_and_chains():
    # every root up to the overflow of chi: u/cos(s) and sinh(s)/sin(s)
    # agree with chi_linear, which is the signed square root bit for bit
    assert chi_linear(SIGMA1, 0.0) == pytest.approx(CHI1, rel=1e-12)
    for c in (0.0, 0.7, 1.0):
        roots, error = resonance._roots(c, MAX_INDEX + 1)
        assert "chi overflows" in str(error)
        assert len(roots) >= 111
        for n, (sigma, chi) in enumerate(roots, 1):
            assert chi_linear(sigma, c) == chi
            sh, cs = math.sinh(sigma), c * sigma
            u = math.cosh(sigma) + cs * sh
            assert rel(u / math.cos(sigma), chi) < 1e-9
            assert rel(sh / math.sin(sigma), chi) < 1e-9
            square = (math.cosh(2.0 * sigma) + cs * math.sinh(2.0 * sigma)
                      + (cs * sh) ** 2)
            assert chi.hex() == ((-1.0) ** n * math.sqrt(square)).hex()


def test_chi_linear_checks_the_residual_of_its_root():
    # next to n*pi, as on linear:1e12, the root is accepted; a root moved by
    # 1e-6 leaves a residual of 1e-6 to 2e-6 and is not
    path = SqueezePath.power_law(1e12, 1.0)
    sigma = _root(_linear_c(path), 1)
    assert chi_linear(sigma, 1e12) < -3e13
    with pytest.raises(NotARootError,
                       match=re.escape(f"sigma = {sigma + 1e-6} is no root")):
        chi_linear(sigma + 1e-6, 1e12)
    for c in (0.0, 1.0):
        root = _root(_linear_c(SqueezePath.power_law(c, 1.0)), 3)
        chi_linear(root, c)
        with pytest.raises(NotARootError,
                           match=re.escape(f"sigma = {root + 1e-6} is no")):
            chi_linear(root + 1e-6, c)


def test_chi_linear_takes_no_root_tolerance_beyond_the_residual():
    # the residual is the only root test: a table root moved by 1e-8
    # leaves a residual of about 2e-8 at c = 0 and raises
    sigma = SIGMA1 + 1e-8
    with pytest.raises(NotARootError,
                       match=re.escape(f"sigma = {sigma} is no root")):
        chi_linear(sigma, 0.0)


@pytest.mark.parametrize("sigma", [2 * math.pi - 1e-11, 3 * math.pi - 5e-11])
def test_chi_linear_rejects_the_upper_half_of_a_bracket(sigma):
    # at c = 1e12 lhs is about 1/(c*s), so just below (n + 1)*pi the
    # residual is under 1e-10 although the root of bracket n is near n*pi
    assert abs(resonance._residual(sigma, 1e12)) <= 1e-10
    with pytest.raises(NotARootError,
                       match=re.escape(f"sigma = {sigma} is no root")):
        chi_linear(sigma, 1e12)


@pytest.mark.parametrize("n", [86, 91, 97, 102])
def test_a_root_on_its_bracket_end_keeps_its_index(n):
    # at c = 1e12 these roots round onto the float n*pi, which lies below
    # the real product n*pi, so floor(sigma/pi) reads n - 1
    path = SqueezePath.power_law(1e12, 1.0)
    sigma = _root(_linear_c(path), n)
    assert sigma == n * math.pi and sigma // math.pi == n - 1
    assert _index_of(sigma) == n
    assert math.copysign(1.0, chi_linear(sigma, 1e12)) == (-1.0) ** n


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
    with pytest.raises(DeltaPrimeError, match=r"g overflows .*\(n = 1, c = inf"):
        g_quadratic(SIGMA1, math.inf)


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


@pytest.mark.parametrize("c", [math.nan, -1.0])
def test_g_quadratic_rejects_a_bad_path_constant(c):
    with pytest.raises(ValueError,
                       match=re.escape(f"path constant c must be >= 0, got {c}")):
        g_quadratic(SIGMA1, c)


@pytest.mark.parametrize("sigma", [1.0, 4.2, 0.0, -SIGMA1])
def test_g_quadratic_names_a_sigma_that_is_no_root(sigma):
    # a finite g is no evidence of a root: below pi sigma lies in no bracket,
    # and 4.2 fails the solver's own root test
    with pytest.raises(NotARootError, match=re.escape(f"sigma = {sigma} ")):
        g_quadratic(sigma, 1.0)


def test_g_quadratic_keeps_its_value_at_every_table_root():
    # the root test reads at most 5.5e-14 here, far under its tolerance
    roots, error = resonance._roots(0.0, 112)
    assert error is None and len(roots) == 112
    for sigma, _ in roots:
        for c in (1.0, 1.3):
            want = -c * sigma * sigma * math.sinh(sigma) * math.sin(sigma)
            assert g_quadratic(sigma, c).hex() == want.hex()


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


def test_each_root_is_checked_once_where_it_is_solved(monkeypatch):
    # the solver checks the residual of each root it solves; records built
    # from a table or from solved roots check nothing again
    resonance._table.cache_clear()
    resonance_set(SqueezePath.adjacent(), 60)  # fill the c = 0 table
    calls = dict.fromkeys(("_check_root", "_residual"), 0)
    for name in calls:
        def counted(*args, _fn=getattr(resonance, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(resonance, name, counted)

    def count(run, *args):
        calls.update(dict.fromkeys(calls, 0))
        run(*args)
        return calls["_check_root"], calls["_residual"]

    # linear:0.7 solves its own table once, then reads it too
    for spec, want in [("quadratic:1.3", (0, 0)), ("linear:0.7", (0, 60)),
                       ("linear:0.7", (0, 0)), ("adjacent", (0, 0))]:
        assert count(resonance_set, SqueezePath.parse(spec), 60) == want
    # a sigma passed in from outside is checked once
    assert count(chi_linear, SIGMA1, 0.0) == (1, 1)
    assert count(g_quadratic, SIGMA1, 1.0) == (1, 1)


# each rule's table ends where chi overflows: at n = 112 on c = 0 rules
TABLE_ENDS = {"adjacent": 112, "quadratic:3": 112, "power:2:3": 112,
              "linear:0.1": 112, "linear:0.7": 111, "linear:3": 110,
              "linear:1e12": 102}


def reference_set(path, count):
    """Records of fresh bracket solves, chi and g from the public checked
    chi_linear and g_quadratic."""
    out, c = [], _linear_c(path)
    quadratic = path.kind == "power" and path.tau == 2.0
    for n in range(1, count + 1):
        sigma = _root(c, n)
        chi = chi_linear(sigma, c)
        g = g_quadratic(sigma, path.c) if quadratic else 0.0
        kappa = -g / (chi + 1.0 / chi)
        out.append(repr(Resonance(
            n=_index_of(sigma), sigma=sigma, lam=sigma * sigma, chi=chi, g=g,
            kappa=kappa if kappa > 0 else 0.0, path=path)))
    return out


@pytest.mark.parametrize("spec", list(TABLE_ENDS))
def test_resonance_set_reads_the_shared_roots_bit_for_bit(spec):
    resonance._table.cache_clear()
    path = SqueezePath.parse(spec)
    end = TABLE_ENDS[spec]
    want = reference_set(path, end)
    for _ in ("cold", "warm"):
        # repr shows every float to the last bit, -0.0 included
        assert [repr(r) for r in resonance_set(path, end)] == want
        assert len(resonance._table(_linear_c(path))[0][0]) == end
    assert [repr(r) for r in resonance_set(path, 7)] == want[:7]


def test_shared_roots_stop_where_chi_overflows():
    for spec in ("adjacent", "linear:1e12"):
        resonance._table.cache_clear()
        path, end = SqueezePath.parse(spec), TABLE_ENDS[spec]
        raised = []
        for _ in ("cold", "warm"):
            with pytest.raises(DeltaPrimeError,
                               match=rf"chi .*\(n = {end + 1},") as info:
                resonance_set(path, 150)
            raised.append((type(info.value), str(info.value)))
            assert len(resonance._table(_linear_c(path))[0][0]) == end
        assert raised[0] == raised[1]


def test_concurrent_callers_get_the_same_records():
    for spec in ("quadratic:3", "linear:0.7"):
        resonance._table.cache_clear()
        path, end = SqueezePath.parse(spec), TABLE_ENDS[spec]
        start = threading.Barrier(4, timeout=30)

        def run(_):
            start.wait()
            return [repr(r) for r in resonance_set(path, end)]

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(run, range(4)))
        assert results == [reference_set(path, end)] * 4, spec


def test_root_tables_are_bounded_and_rebuilt_bit_for_bit(monkeypatch):
    # one table per constant c, at most _TABLES of them; an evicted
    # constant's table is solved again to the same bits
    resonance._table.cache_clear()
    paths = [SqueezePath.power_law(0.1 * k, 1.0)
             for k in range(1, resonance._TABLES + 5)]
    first = [repr(r) for r in resonance_set(paths[0], 20)]
    for path in paths[1:]:
        resonance_set(path, 20)
        assert resonance._table.cache_info().currsize <= resonance._TABLES
    calls = []
    solve = resonance._root
    monkeypatch.setattr(resonance, "_root",
                        lambda *a: calls.append(a) or solve(*a))
    assert [repr(r) for r in resonance_set(paths[0], 20)] == first
    assert calls == [(paths[0].c, n) for n in range(1, 21)]
    assert resonance._table.cache_info().currsize == resonance._TABLES


@pytest.mark.parametrize("path", [SqueezePath.adjacent(),
                                  SqueezePath.power_law(0.7, 1.0)])
@pytest.mark.parametrize("n", [0, -1])
def test_nth_root_rejects_an_index_below_1(path, n):
    # a negative n used to index the shared root table from its end
    resonance_set(SqueezePath.adjacent(), 10)
    with pytest.raises(ValueError,
                       match=rf"^resonance index n must be >= 1, got {n}$"):
        _nth_root(path, n)


def test_an_ended_table_is_never_grown_again(monkeypatch):
    # linear:1e12's table ends where chi overflows at n = 103; it keeps that
    # error, and each raise is a new instance with a traceback of its own
    resonance._table.cache_clear()
    path, c = SqueezePath.parse("linear:1e12"), 1e12
    lam = _root(c, 105) ** 2
    calls = []
    solve = resonance._root
    monkeypatch.setattr(resonance, "_root",
                        lambda *a: calls.append(a) or solve(*a))
    raised = []
    for want in ([(c, n) for n in range(1, 104)], [], []):
        del calls[:]
        with pytest.raises(DeltaPrimeError, match=r"\(n = 103,") as info:
            resonance_set(path, 112)
        assert calls == want
        raised.append(info.value)
    assert len({id(e) for e in raised}) == 3
    assert len({str(e) for e in raised}) == 1
    assert len({len(traceback.extract_tb(e.__traceback__))
                for e in raised}) == 1
    # past the end, predict fills a cold table to its end once, then
    # solves only the bracket it asks for
    resonance._table.cache_clear()
    for want in ([(c, n) for n in range(1, 104)] + [(c, 105)], [(c, 105)],
                 [(c, 105)]):
        del calls[:]
        with pytest.raises(DeltaPrimeError, match=r"\(n = 105,"):
            predict(path, lam)
        assert calls == want


@pytest.mark.parametrize("spec", ["adjacent", "linear:0.7", "quadratic:1.3",
                                  "power:2:3"])
def test_a_set_and_a_one_pair_record_are_formed_alike(spec):
    # resonance_set forms a table slice in one pass; predict and bc-fit
    # form one pair, chi read from the table or formed where it is None
    path, end = SqueezePath.parse(spec), TABLE_ENDS.get(spec, 112)
    rs = resonance_set(path, end)
    for n in range(1, end + 1):
        sigma, chi = _nth_root(path, n)
        one = repr(_records(path, n, ((sigma, chi),))[0])
        assert repr(rs[n - 1]) == one == repr(
            _records(path, n, ((sigma, None),))[0]), n
        if path.tau != 2.0:  # g = 0 rules: +0.0, never -0.0
            assert math.copysign(1.0, rs[n - 1].kappa) == 1.0
            assert math.copysign(1.0, rs[n - 1].g) == 1.0
        else:
            assert rs[n - 1].kappa > 0.0


def test_records_past_a_table_end_keep_their_messages(capsys):
    path = SqueezePath.parse("linear:1e12")
    with pytest.raises(DeltaPrimeError, match=re.escape(
            "chi overflows at sigma = 323.58404331974873 (n = 103, "
            "c = 1000000000000.0)")):
        resonance_set(path, 112)
    assert main(["bc-fit", "--path", "linear:1e12", "--n", "105"]) == 3
    assert capsys.readouterr().err == (
        "error: chi overflows at sigma = 329.8672286269283 (n = 105, "
        "c = 1000000000000.0)\n")
    # g is formed in the same pass, so its overflow at n = 5 still wins
    with pytest.raises(DeltaPrimeError, match=re.escape(
            "g overflows at sigma = 16.49336143134641 (n = 5, c = 1e+300)")):
        resonance_set(SqueezePath.parse("quadratic:1e300"), 5)
