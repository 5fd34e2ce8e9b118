import dataclasses
import math
import re
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import eager_amplitudes
from deltaprime import (DeltaPrimeError, InvariantViolation, NotARootError,
                        PrecisionFloorError, RectProfile, SqueezePath,
                        chi_linear, classify, g_quadratic, limits,
                        piecewise_transfer, predict, resonance, resonance_set,
                        resonant_matrix, resonant_scattering, scattering,
                        trace, transfer_matrix, transmission_sweep)
from deltaprime.transfer import _ONE, _TWO, det_residual, transfer_entries

LAM1 = 15.418205716980063
CHI1 = -35.874573920759161
G1_C1 = 276.34588992287415

ADJ = SqueezePath.adjacent()
QUAD = SqueezePath.power_law(1.0, 2.0)
EPS = np.finfo(float).eps
TINY = np.finfo(float).smallest_subnormal


def make_trace(path, lam, E=1.0, l_start=1e-1, l_end=1e-4, points=13):
    return trace(path, lam, E, l_start, l_end, points)


def test_trace_grid_and_path_geometry():
    tr = make_trace(SqueezePath.power_law(2.0, 2.0), LAM1, points=9)
    assert len(tr.l_values) == 9
    np.testing.assert_allclose(tr.rho_values, 2.0 * tr.l_values ** 2, rtol=1e-14)
    ratios = tr.l_values[:-1] / tr.l_values[1:]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)


def test_trace_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_trace(ADJ, LAM1, points=4)
    with pytest.raises(PrecisionFloorError):
        make_trace(ADJ, LAM1, l_end=1e-8)
    with pytest.raises(ValueError):
        make_trace(ADJ, LAM1, l_start=1e-5, l_end=1e-4)
    with pytest.raises(ValueError):
        make_trace(ADJ, -1.0)
    with pytest.raises(ValueError):
        make_trace(ADJ, LAM1, E=0.0)
    with pytest.raises(ValueError, match="energy"):
        make_trace(ADJ, LAM1, E=np.inf)
    with pytest.raises(ValueError, match="l_start"):
        make_trace(ADJ, LAM1, l_start=np.inf)


def test_trace_width_grid_is_shared_and_read_only():
    expected = np.geomspace(1e-1, 1e-4, 13).tobytes()
    tr = make_trace(ADJ, LAM1)
    assert tr.l_values.tobytes() == expected
    assert not tr.l_values.flags.writeable
    with pytest.raises(ValueError):
        tr.l_values[0] = 1.0
    with pytest.raises(ValueError):
        tr.l_values *= 2.0
    again = make_trace(QUAD, LAM1)
    assert again.l_values is tr.l_values
    assert again.l_values.tobytes() == expected
    # so are classify's slope vector and Richardson weights, and an evicted
    # grid rebuilds them equal
    maps = _grid_maps(tr.l_values)
    assert all(a is b for a, b in zip(maps, _grid_maps(again.l_values)))
    for a in maps:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0
    for i in range(limits._GRID_CACHE_SIZE):
        make_trace(ADJ, LAM1, l_start=0.05 + 1e-3 * i, points=9 + i)
    fresh = make_trace(ADJ, LAM1)
    assert fresh.l_values is not tr.l_values
    rebuilt = _grid_maps(fresh.l_values)
    assert all(a is not b and a.tobytes() == b.tobytes() and a.shape == b.shape
               for a, b in zip(maps, rebuilt))


def test_classify_after_grid_cache_eviction_matches_fresh_trace():
    # classify reads the slope design from the grid cache, so a trace whose
    # grid left the cache classifies as a fresh trace on a rebuilt grid does
    first = make_trace(ADJ, LAM1, l_start=0.09, points=11)
    for i in range(limits._GRID_CACHE_SIZE + 1):
        make_trace(ADJ, LAM1, l_start=0.05 + 1e-3 * i, points=9 + i)
    fresh = make_trace(ADJ, LAM1, l_start=0.09, points=11)
    assert fresh.l_values is not first.l_values

    def bits(verdict):
        return [(name, v.kind, _bits(v.exponent), _bits(v.value),
                 _bits(v.error)) for name, v in verdict.entries.items()]

    assert bits(classify(first)) == bits(classify(fresh))


def test_classify_rejects_a_trace_on_another_grid():
    # the maps of the geometric grid with the same ends and length read an
    # L21 of -0.409 off these exact adjacent lambda_1 entries (limit 3e-9)
    ls = np.linspace(1e-1, 1e-4, 13)
    entries = np.array(transfer_entries(ls, 0.0, LAM1, 1.0)).T
    tr = limits.LimitTrace(path=ADJ, lam=LAM1, E=1.0, l_values=ls,
                           rho_values=np.zeros(13), entries=entries)
    with pytest.raises(ValueError, match="not on the geometric grid"):
        classify(tr)
    # an equal copy of the grid is the grid
    good = make_trace(ADJ, LAM1)
    copy = dataclasses.replace(good, l_values=good.l_values.copy())
    assert classify(copy) == classify(good)


_NOT_REAL_13x4 = r"need real entries of shape \(13, 4\)"


@pytest.mark.parametrize("entries, match", [
    (np.ones((13, 3)), _NOT_REAL_13x4),
    (np.ones((12, 4)), _NOT_REAL_13x4),
    (np.ones((13, 4), complex), _NOT_REAL_13x4),
    (np.ones(52).tolist(), _NOT_REAL_13x4),
    (np.full((13, 4), np.nan), "L11 reads nan, not finite"),
    (np.vstack([np.ones((12, 4)), np.full(4, -np.inf)]),
     "L11 reads -inf, not finite"),
], ids=["13x3", "12x4", "complex", "list", "nan", "inf"])
def test_classify_names_a_hand_built_trace_with_bad_entries(entries, match):
    # entries of another shape or kind, or whose chosen limit is not finite,
    # raise a ValueError that names the trace, not an IndexError, numpy's
    # matmul message or a "resonant" verdict of NaN values
    tr = dataclasses.replace(make_trace(ADJ, LAM1), entries=entries)
    with pytest.raises(ValueError, match=r"^the trace of adjacent at "
                       rf"lam = {LAM1}, E = 1.0: {match}$"):
        classify(tr)


def test_an_int_grid_end_shares_the_float_grid():
    # trace takes the grid ends as floats, so 1 and 1.0 are one key; classify
    # reads the design back from the float ends of the trace's grid
    a = make_trace(ADJ, LAM1, l_start=1, points=8)
    b = make_trace(ADJ, LAM1, l_start=1.0, points=8)
    assert a.l_values is b.l_values and a.l_values[0] == 1.0
    assert classify(a) == classify(b)


def test_trace_plan_is_shared_per_path_energy_and_grid():
    a, b = make_trace(QUAD, LAM1), make_trace(QUAD, 10.0)
    plan = limits._trace_plan(QUAD, 1.0, 1e-1, 1e-4, 13)
    ls, rho_values, geometry = plan
    assert a.rho_values is b.rho_values is rho_values
    assert a.l_values is b.l_values is ls is geometry[1]
    # every operand the kernel multiplies by is a read-only float64 ndarray,
    # 0-d where it is one number (E, k, a constant gap's cos and sin, the
    # zero gap's included, and the constants 1 and 2); the shortcut reads
    # the zero gap from the flag beside them, and no numpy scalar is held
    for path, gap in ((QUAD, (13,)), (SqueezePath.barrier_first(0.5), ()),
                      (ADJ, ())):
        operands = limits._trace_plan(path, 1.0, 1e-1, 1e-4, 13)[2]
        numbers, gapless = (*operands[:7], *operands[8:]), operands[7]
        for v in numbers:
            assert type(v) is np.ndarray and v.dtype == np.float64
            assert not v.flags.writeable
        assert [v.shape for v in numbers] == (3 * [(13,)] + 2 * [()]
                                              + 2 * [gap] + 2 * [()])
        assert gapless is (path == ADJ)
        assert operands[8] is _ONE and operands[9] is _TWO
        assert (_ONE.item(), _TWO.item()) == (1.0, 2.0)
    for v in (rho_values, *geometry[:7], *geometry[8:]):
        assert type(v) is np.ndarray and not v.flags.writeable
        with pytest.raises(ValueError):
            v[...] = 1.0
    # another energy or path is another plan on the same grid
    for other in (make_trace(QUAD, LAM1, E=2.0),
                  make_trace(SqueezePath.power_law(0.7, 2.0), LAM1)):
        assert other.l_values is ls
        assert other.rho_values is not rho_values
    assert make_trace(ADJ, LAM1, E=2.0).rho_values is not make_trace(
        ADJ, LAM1).rho_values
    # 16 other grids evict it; it is rebuilt bit-equal
    for i in range(limits._GRID_CACHE_SIZE):
        make_trace(QUAD, LAM1, l_start=0.05 + 1e-3 * i, points=9 + i)
    fresh = limits._trace_plan(QUAD, 1.0, 1e-1, 1e-4, 13)
    assert fresh[1] is not rho_values

    def flat(p):
        return [*p[:2], *p[2][:7]]

    for old, new in zip(flat(plan), flat(fresh)):
        assert old is not new
        assert old.tobytes() == new.tobytes()
    assert fresh[2][7:] == plan[2][7:]
    assert make_trace(QUAD, LAM1).entries.tobytes() == a.entries.tobytes()


_GOOD = dict(path=ADJ, lam=LAM1, E=1.0, l_start=1e-1, l_end=1e-4, points=13)


@pytest.mark.parametrize("name, value", [
    ("points", 13.0), ("points", "13"), ("points", np.array([13])),
    ("lam", np.array([9.0, 10.0])), ("lam", "12"), ("lam", 12 + 0j),
    ("E", np.array([1.0, 2.0])), ("l_start", [0.1]),
    ("l_end", np.array([1e-4])), ("l_end", None)])
def test_trace_names_an_argument_that_is_not_one_number(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        trace(**{**_GOOD, name: value})


@pytest.mark.parametrize("name, value", [
    ("l_start", np.array(0.1)), ("l_end", np.float32(2.0 ** -13)),
    ("lam", np.array(LAM1)), ("E", np.array(1.0)), ("E", np.int64(1))])
def test_trace_takes_a_numpy_scalar_as_its_float(name, value):
    tr = trace(**{**_GOOD, name: value})
    want = trace(**{**_GOOD, name: float(value)})
    assert type(tr.lam) is float and type(tr.E) is float
    assert tr.rho_values is want.rho_values  # one plan
    assert tr.l_values is want.l_values
    assert tr.entries.tobytes() == want.entries.tobytes()


_SWEEP = dict(path=ADJ, l=1e-3, lam_min=1.0, lam_max=60.0, samples=5)


@pytest.mark.parametrize("call, name, value", [
    (transmission_sweep, "samples", 2.5), (transmission_sweep, "samples", "5"),
    (transmission_sweep, "lam_min", 1j), (transmission_sweep, "lam_max", "60"),
    (transmission_sweep, "l", None), (transmission_sweep, "E", 1j),
    (transmission_sweep, "E", np.array([1.0, 2.0])),
    (predict, "lam", 1j), (predict, "lam", "3")])
def test_sweep_and_predict_name_an_argument_that_is_not_one_number(
        call, name, value):
    good = _SWEEP if call is transmission_sweep else dict(path=ADJ, lam=LAM1)
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call(**{**good, name: value})


def test_trace_and_sweep_cap_their_sizes():
    cap = limits.MAX_TRACE_POINTS
    with pytest.raises(ValueError, match=f"points = {cap + 1} exceeds"):
        make_trace(ADJ, LAM1, points=cap + 1)
    with pytest.raises(ValueError):
        make_trace(ADJ, LAM1, points=float("nan"))
    assert len(make_trace(ADJ, LAM1, points=40).l_values) == 40
    cap = limits.MAX_SWEEP_SAMPLES
    assert cap > 1_000_000
    with pytest.raises(ValueError, match=f"samples = {cap + 1} exceeds"):
        transmission_sweep(ADJ, 1e-3, 1.0, 60.0, cap + 1)


def test_full_trace_caches_hold_what_the_size_cap_states():
    # 16 grids and 16 plans on a varying gap at MAX_TRACE_POINTS, counting
    # each array once (a plan's grid is the grid cache's own): 8.33 MB, the
    # figure of limits' size-cap comment and README
    held, size = {}, limits._GRID_CACHE_SIZE
    limits._width_grid.cache_clear()
    limits._trace_plan.cache_clear()
    try:
        for i in range(size):
            grid = 1e-1 * (1.0 + 1e-3 * i), 1e-4, limits.MAX_TRACE_POINTS
            maps, plan = limits._width_grid(*grid), limits._trace_plan(
                QUAD, 1.0, *grid)
            assert plan[0] is maps[0]
            for a in (*maps, *plan[:2], *plan[2][:7]):
                held[id(a)] = a
        assert limits._width_grid.cache_info().currsize == size
        assert limits._trace_plan.cache_info().currsize == size
        total = sum(a.nbytes for a in held.values())
        # a grid's tail length, E and k are 0-d
        assert len(held) == size * (4 + 5 + 2)
        assert round(total / 1e6, 2) <= 8.33
    finally:
        limits._width_grid.cache_clear()
        limits._trace_plan.cache_clear()


def test_trace_rejects_a_grid_whose_richardson_powers_overflow():
    # ratio = (1e308/1e-6)**(1/7) > 1e43, and ratio**8 overflows
    with pytest.raises(ValueError, match="l_start = 1e.308, l_end = 1e-06, "
                                         "points = 8"):
        make_trace(ADJ, 1.0, l_start=1e308, l_end=1e-6, points=8)
    # ratio**8 = 1e235 stays finite: the grid traces
    tr = make_trace(ADJ, 1.0, l_start=1e200, l_end=1e-6, points=8)
    assert len(tr.l_values) == 8


@pytest.mark.parametrize("l_start, points", [(1.0000000000000002e-4, 8),
                                             (1.0000000000010001e-4, 10_000)])
def test_trace_rejects_a_grid_whose_widths_round_together(l_start, points):
    # the first grid's logs round to one value, so its slope vector would
    # divide by x @ x = 0; the second's ratio rounds to 1, so its Richardson
    # weights would divide by ratio - 1 = 0
    with pytest.raises(ValueError, match=f"points = {points}: the grid "
                                         "widths are too close"):
        make_trace(ADJ, 1.0, l_start=l_start, l_end=1e-4, points=points)
    # a ratio of 1 + 1.2e-14 still traces and classifies
    tr = make_trace(ADJ, 1.0, l_start=1.0000000000001e-4, l_end=1e-4, points=9)
    assert classify(tr).separated


def test_trace_rows_keep_unit_determinant():
    tr = make_trace(QUAD, LAM1)
    dets = (tr.entries[:, 0] * tr.entries[:, 3]
            - tr.entries[:, 1] * tr.entries[:, 2])
    scale = np.maximum(1.0, np.abs(tr.entries).max(axis=1) ** 2)
    assert (np.abs(dets - 1.0) / scale < 1e-10).all()


def test_trace_checks_the_determinant_at_every_width():
    # at E = 100 the barrier oscillates at l = 100 (lam/l**2 = 40 < E) and
    # the check holds there; the entries overflow at every smaller width,
    # and the error names the first of them
    with pytest.raises(DeltaPrimeError, match=r"^determinant residual nan "
                       r"at l = 46\.4158883361278$"):
        trace(ADJ, 4e5, 100.0, 100.0, 0.01, 13)


@pytest.mark.parametrize("spec", ["adjacent", "linear:2",
                                  "power:2.0839490771026323:3"])
def test_trace_keeps_unit_determinant_near_resonances(spec):
    # At resonant couplings the entries stay O(1) while the barrier's cosh
    # and sinh grow like exp(sigma): formed as separate products, their
    # rounding put det - 1 at up to 4e-7 on these grids, past trace's 1e-10
    # check (at l = 1.8e-4 for the tau = 3 rule, lambda_2 and E = 0.5).
    path = SqueezePath.parse(spec)
    for r in resonance_set(path, 6):
        for E in (0.5, 1.0, 2.0):
            tr = make_trace(path, r.lam, E=E)
            assert det_residual(*tr.entries.T).max() < 1e-14


def test_quadratic_path_extrapolates_to_resonance_data():
    verdict = classify(make_trace(QUAD, LAM1))
    assert verdict.variant == "resonant"
    e = verdict.entries
    assert abs(e["L11"].value - CHI1) / abs(CHI1) < 1e-3
    assert abs(e["L22"].value - 1.0 / CHI1) / abs(1.0 / CHI1) < 1e-3
    assert abs(e["L21"].value - G1_C1) / abs(G1_C1) < 1e-3
    assert abs(e["L12"].value) < 1e-3
    assert all(v.error >= 0.0 for v in e.values())


def test_adjacent_on_resonance_all_converge():
    verdict = classify(make_trace(ADJ, LAM1))
    assert verdict.variant == "resonant"
    assert abs(verdict.entries["L21"].value) < 1e-3
    assert abs(verdict.entries["L12"].value) < 1e-3


def test_adjacent_off_resonance_l21_diverges_linearly():
    verdict = classify(make_trace(ADJ, 10.0))
    assert verdict.variant == "separated"
    slope = verdict.entries["L21"].exponent
    assert -1.05 < slope < -0.95


def test_barrier_first_diverges_quadratically():
    verdict = classify(make_trace(SqueezePath.barrier_first(0.5), LAM1))
    assert verdict.separated
    assert verdict.entries["L21"].exponent == pytest.approx(-2.0, abs=0.05)


def test_a_convergent_l21_beside_a_divergent_entry_is_mixed():
    conv = limits.EntryVerdict(kind="converges", value=1.0, error=0.0)
    div = limits.EntryVerdict(kind="divergent", exponent=-1.0)
    verdict = limits.LimitVerdict(
        entries={"L11": div, "L12": conv, "L21": conv, "L22": conv})
    assert not verdict.separated and verdict.variant == "mixed"


def test_free_coupling_trace_converges_to_identity():
    verdict = classify(make_trace(ADJ, 0.0))
    assert verdict.variant == "resonant"
    assert verdict.entries["L11"].value == pytest.approx(1.0, abs=1e-6)
    assert verdict.entries["L22"].value == pytest.approx(1.0, abs=1e-6)
    assert abs(verdict.entries["L12"].value) < 1e-6
    assert abs(verdict.entries["L21"].value) < 1e-6


def test_limit_is_energy_independent():
    a = classify(make_trace(QUAD, LAM1, E=1.0)).entries["L11"].value
    b = classify(make_trace(QUAD, LAM1, E=2.5)).entries["L11"].value
    assert abs(a - b) / abs(a) < 1e-3


def test_predict_rules():
    assert predict(SqueezePath.barrier_first(0.5), LAM1) is None
    assert predict(SqueezePath.power_law(1.0, 0.5), LAM1) is None
    assert predict(SqueezePath.power_law(1.0, 1.5), LAM1) is None
    assert predict(SqueezePath.power_law(1.0, 1.0), LAM1) is None  # not a root
    assert predict(ADJ, 10.0) is None

    cm = predict(ADJ, LAM1)
    assert cm is not None and cm.l21 == 0.0
    assert cm.l11 == pytest.approx(CHI1, rel=1e-12)

    cm = predict(QUAD, LAM1)
    assert cm.l21 == pytest.approx(G1_C1, rel=1e-12)

    cm = predict(SqueezePath.power_law(1.0, 3.0), LAM1)
    assert cm.l21 == 0.0

    with pytest.raises(ValueError):
        predict(ADJ, 0.0)


@pytest.mark.parametrize("lam", [math.inf, math.nan])
@pytest.mark.parametrize("spec", ["adjacent", "power:1:1.5"])
def test_predict_rejects_a_non_finite_coupling(spec, lam):
    # rejected before the rule is asked for resonances
    with pytest.raises(ValueError, match=f"finite, got {lam}"):
        predict(SqueezePath.parse(spec), lam)


def test_predict_linear_path_has_own_resonances():
    r = resonance_set(SqueezePath.power_law(1.0, 1.0), 1)[0]
    cm = predict(SqueezePath.power_law(1.0, 1.0), r.lam)
    assert cm is not None
    assert cm.l11 == pytest.approx(r.chi, rel=1e-12)
    assert predict(ADJ, r.lam) is None  # not an adjacent resonance


def test_classify_agrees_with_predict_on_variant():
    paths = [SqueezePath.barrier_first(0.5), ADJ,
             SqueezePath.power_law(1.0, 0.5), SqueezePath.power_law(1.0, 1.0),
             SqueezePath.power_law(1.0, 1.5), QUAD,
             SqueezePath.power_law(1.0, 3.0)]
    for path in paths:
        for lam in (LAM1, 10.0):
            verdict = classify(make_trace(path, lam))
            expected = predict(path, lam)
            if expected is None:
                assert verdict.separated, (path.describe(), lam)
            else:
                assert verdict.variant == "resonant", (path.describe(), lam)


def test_sweep_finds_resonance_peak():
    res = transmission_sweep(ADJ, 1e-3, 10.0, 20.0, 500, E=1.0)
    assert any(abs(p.lam - LAM1) < 0.1 for p in res.peaks)
    assert res.T2.shape == (500,)
    assert res.R2.shape == (500,)
    np.testing.assert_allclose(res.T2 + res.R2, 1.0, atol=1e-10)


def test_sweep_includes_free_point():
    res = transmission_sweep(ADJ, 1e-3, 0.0, 2.0, 3, E=1.0)
    assert res.lambdas[0] == 0.0
    assert res.T2[0] == pytest.approx(1.0, abs=1e-12)


def test_sweep_barrier_first_is_opaque():
    res = transmission_sweep(SqueezePath.barrier_first(0.5), 1e-3,
                             1.0, 60.0, 200, E=1.0)
    assert res.T2.max() < 1e-3


# (rule, l, lam_min, lam_max, E) for the extraction-rounding test
EXTRACTION_SWEEPS = [("adjacent", 1e-3, 1.0, 60.0, 1.0),
                     ("linear:0.5", 1e-2, -50.0, 50.0, 2.0),
                     ("quadratic:1.3", 1e-3, 0.5, 120.0, 0.5),
                     ("power:1.5:2", 1e-2, 1.0, 200.0, 1.0)]


def test_sweep_extraction_rounding_against_mpmath():
    # |T|**2 and |R|**2 against a 50-digit extraction from the same double
    # entries and k, in units of 2**-53: relative on |T|**2 (down to 1e-18
    # here), absolute on |R|**2.  The bounds hold for the real-arithmetic
    # extraction; the eager complex form, abs(R)**2 and abs(T)**2 of the
    # complex quotients, breaks them on at least one sample.
    mpmath = pytest.importorskip("mpmath")
    ulp = 2.0 ** -53
    worst = np.zeros(4)  # T2 and R2, then the eager reference's
    with mpmath.workdps(50):
        for spec, l, lam_min, lam_max, E in EXTRACTION_SWEEPS:
            path = SqueezePath.parse(spec)
            res = transmission_sweep(path, l, lam_min, lam_max, 400, E)
            k, rho = np.sqrt(E), path.rho_of(l)
            entries = transfer_entries(l, rho, res.lambdas, E)
            eager = eager_amplitudes(*entries, k, 2.0 * l + rho)
            got = [(res.T2, res.R2), (eager.T2, eager.R2)]
            kk = mpmath.mpf(k)
            for i, (l11, l12, l21, l22) in enumerate(
                    np.array(entries).T.tolist()):
                l11, l12, l21, l22 = map(mpmath.mpf, (l11, l12, l21, l22))
                d = kk * l12 - l21 / kk
                n2 = (l11 - l22) ** 2 + (kk * l12 + l21 / kk) ** 2
                size2 = (l11 + l22) ** 2 + d * d
                t2, r2 = 4 / size2, n2 / size2
                for j, (t2s, r2s) in enumerate(got):
                    got_t2, got_r2 = mpmath.mpf(t2s[i]), mpmath.mpf(r2s[i])
                    worst[2 * j] = max(worst[2 * j],
                                       float(abs(got_t2 - t2) / t2) / ulp)
                    worst[2 * j + 1] = max(worst[2 * j + 1],
                                           float(abs(got_r2 - r2)) / ulp)
    assert worst[0] <= 6.0 and worst[1] <= 7.0, worst
    assert worst[2] > 6.0 or worst[3] > 7.0, worst


def test_sweep_past_the_squared_range():
    # above lam ~ 1.4e5 at l = 1e-2 the entries pass 1e154, so |Delta|**2
    # overflows; those samples take hypot norms and the sweep still holds
    res = transmission_sweep(ADJ, 1e-2, 1.0, 3e5, 7)
    np.testing.assert_allclose(res.T2 + res.R2, 1.0, rtol=0, atol=1e-10)
    assert res.T2[-1] == 0.0 and res.T2[1] > 0.0


def test_sweep_rejects_bad_arguments():
    with pytest.raises(ValueError):
        transmission_sweep(ADJ, 1e-3, 1.0, 60.0, 1)
    with pytest.raises(PrecisionFloorError):
        transmission_sweep(ADJ, 1e-8, 1.0, 60.0, 10)
    with pytest.raises(ValueError):
        transmission_sweep(ADJ, 1e-3, 5.0, 1.0, 10)
    with pytest.raises(ValueError, match="lam_max must be finite, got inf"):
        transmission_sweep(ADJ, 1e-3, 1.0, np.inf, 10)
    with pytest.raises(ValueError, match="lam_min must be finite, got -inf"):
        transmission_sweep(ADJ, 1e-3, -np.inf, 60.0, 10)
    # before np.linspace's overflow warning, which the test config makes an
    # error
    with pytest.raises(ValueError, match="lam_max - lam_min overflows"):
        transmission_sweep(ADJ, 1e-3, -1e308, 1e308, 3)


def test_sweep_matches_scalar_loop():
    path = SqueezePath.power_law(1.0, 2.0)
    l, E = 1e-3, 2.0
    res = transmission_sweep(path, l, 0.0, 120.0, 601, E=E)
    for lam, t2, r2 in zip(res.lambdas, res.T2, res.R2):
        amp = scattering(transfer_matrix(
            RectProfile(l=l, rho=path.rho_of(l), lam=lam), E), np.sqrt(E))
        assert abs(t2 - amp.T2) <= 1e-14
        assert abs(r2 - amp.R2) <= 1e-14


def test_sweep_across_zero_coupling_matches_oracle():
    # lam from -50 to 50 at l = 1e-2: the barrier and the well each change
    # sign inside the grid, so the kernel merges both forms
    l, E = 1e-2, 1.0
    res = transmission_sweep(ADJ, l, -50.0, 50.0, 101, E=E)
    assert res.lambdas[0] < 0.0 < res.lambdas[-1]
    for lam, t2, r2 in zip(res.lambdas, res.T2, res.R2):
        amp = scattering(piecewise_transfer(RectProfile(l=l, rho=0.0, lam=lam),
                                            E), np.sqrt(E))
        assert abs(t2 - amp.T2) <= 1e-10
        assert abs(r2 - amp.R2) <= 1e-10


def test_blocked_sweep_equals_one_block(monkeypatch):
    assert limits.SWEEP_BLOCK >= 2000  # the CLI default is one block
    samples = 2 * limits.SWEEP_BLOCK + 7
    blocked = transmission_sweep(ADJ, 1e-3, 1.0, 60.0, samples)
    monkeypatch.setattr(limits, "SWEEP_BLOCK", samples)
    whole = transmission_sweep(ADJ, 1e-3, 1.0, 60.0, samples)
    np.testing.assert_array_equal(blocked.T2, whole.T2)
    np.testing.assert_array_equal(blocked.R2, whole.R2)
    assert blocked.peaks == whole.peaks


def _stubbed_sweep(lam_min, lam_max, samples, t2=None):
    """transmission_sweep with the transfer kernel and the extraction
    stubbed out, so that only the grid and the peak search run: |T|**2 is
    the row ``t2`` (one block), else zero."""
    def probabilities(lams, *_):
        row = np.zeros(len(lams)) if t2 is None else t2
        return row, 1.0 - row, None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(limits, "_entries", lambda geometry, lam: (lam,) * 4)
        mp.setattr(limits, "_probabilities", probabilities)
        return transmission_sweep(ADJ, 1e-3, lam_min, lam_max, samples)


_GRID_ENDS = st.one_of(st.floats(-1e300, 1e300),
                       st.sampled_from((0.0, -0.0, TINY, -TINY, 1.0)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ends=st.tuples(_GRID_ENDS, _GRID_ENDS),
       samples=st.integers(2, 3 * limits.SWEEP_BLOCK))
@example(ends=(-60.0, -1.0), samples=2000)
@example(ends=(-50.0, 50.0), samples=101)
@example(ends=(-1e300, 1e300), samples=3)
@example(ends=(0.0, 5e-324), samples=3)  # the step underflows to 0
@example(ends=(-0.0, 1.0), samples=2)
@example(ends=(1.0, 60.0), samples=2 * limits.SWEEP_BLOCK + 7)
def test_sweep_grid_is_linspace_bit_for_bit(ends, samples):
    lam_min, lam_max = sorted(ends)
    assume(lam_min < lam_max)
    lams = _stubbed_sweep(lam_min, lam_max, samples).lambdas
    assert lams.tobytes() == np.linspace(lam_min, lam_max, samples).tobytes()


def _numpy_peaks(lams, t2):
    """The parabola refinement as whole-array numpy operations: the
    reference the sweep's Python-float loop matches bit for bit."""
    h = lams[1] - lams[0]
    i = np.flatnonzero((t2[1:-1] > t2[:-2]) & (t2[1:-1] > t2[2:])) + 1
    denom = t2[i - 1] - 2.0 * t2[i] + t2[i + 1]
    off = np.divide(0.5 * h * (t2[i - 1] - t2[i + 1]), denom,
                    out=np.zeros(len(i)), where=denom != 0.0)
    return [(float(lam), float(t)) for lam, t in zip(lams[i] + off, t2[i])]


def _peak_bits(peaks):
    return [(_bits(lam), _bits(t2)) for lam, t2 in peaks]


# |T|**2 rows over few distinct values, so that ties and plateaus are common
_T2_ROWS = st.lists(st.one_of(st.sampled_from((0.0, TINY, 3 * TINY, 0.25,
                                               0.5, 1.0)),
                              st.floats(0.0, 1.0)), min_size=3, max_size=60)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(row=_T2_ROWS, lam_min=st.floats(-1e3, 1e3), span=st.floats(1e-3, 1e3))
@example(row=[0.5, 1.0, 1.0, 0.5, 0.75, 0.25, 0.25, 0.5, 0.0],
         lam_min=-0.0, span=8.0)  # a plateau is no peak
@example(row=[0.0, TINY, 0.0, 2 * TINY, TINY], lam_min=1.0, span=0.1)
def test_sweep_peaks_match_the_numpy_refinement_bit_for_bit(row, lam_min,
                                                              span):
    t2 = np.array(row)
    res = _stubbed_sweep(lam_min, lam_min + span, len(row), t2)
    assert all(type(p.lam) is float and type(p.T2) is float
               for p in res.peaks)
    assert (_peak_bits((p.lam, p.T2) for p in res.peaks)
            == _peak_bits(_numpy_peaks(res.lambdas, t2)))


@pytest.mark.parametrize("spec, l, lam_min, lam_max, E", EXTRACTION_SWEEPS)
def test_kernel_sweep_peaks_match_the_numpy_refinement(spec, l, lam_min,
                                                       lam_max, E):
    res = transmission_sweep(SqueezePath.parse(spec), l, lam_min, lam_max,
                             2000, E)
    assert res.peaks
    assert (_peak_bits((p.lam, p.T2) for p in res.peaks)
            == _peak_bits(_numpy_peaks(res.lambdas, res.T2)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(row=_T2_ROWS, start=st.integers(-1000, 1000), e=st.integers(-8, 8))
def test_sweep_peaks_stay_within_half_a_step(row, start, e):
    # the docstring's claim, on grids of multiples of a power of two, whose
    # points and half-steps are exact, so that it holds with no rounding
    # slack; where the spacing nears the ulp of lam, lam + offset may round
    # half an ulp past the half-step
    h = 2.0 ** e
    n = len(row)
    res = _stubbed_sweep(start * h, (start + n - 1) * h, n, np.array(row))
    lams = res.lambdas
    assert lams[1] - lams[0] == h
    maxima = [j for j in range(1, n - 1) if row[j - 1] < row[j] > row[j + 1]]
    assert len(res.peaks) == len(maxima)
    for j, p in zip(maxima, res.peaks):
        assert abs(p.lam - lams[j]) <= h / 2 and p.T2 == row[j]


def _bits(x):
    return None if x is None else struct.pack("<d", x)


def _full_richardson(values, ratio):
    """Every level of the extrapolation triangle over the whole sequence,
    read at its last element, in the row order of the grid's weight matrix:
    the last two values, then levels 1, 2, ..."""
    prev = [float(v) for v in values]
    levels = prev[-2:]
    for j in range(1, min(len(values), limits._RICHARDSON_DEPTH + 1)):
        f = ratio ** j
        prev = [(f * prev[i] - prev[i - 1]) / (f - 1.0)
                for i in range(1, len(prev))]
        levels.append(prev[-1])
    return levels


def _exact_richardson(values, ratio, m):
    """The levels of :func:`_full_richardson` from an exact triangle on the
    last m values: rational arithmetic on the same doubles, with the same
    float pairs (ratio**j, ratio**j - 1) that build the weight matrix."""
    prev = [Fraction(float(v)) for v in values[-m:]]
    levels = prev[-2:]
    for j in range(1, m):
        f = ratio ** j
        f, f1 = Fraction(f), Fraction(f - 1.0)
        prev = [(f * prev[i] - prev[i - 1]) / f1 for i in range(1, len(prev))]
        levels.append(prev[-1])
    return levels


def _best_index(change):
    """Index of the first smallest change; a NaN change never wins."""
    k = 0
    for i, c in enumerate(change):
        if c < change[k]:
            k = i
    return k


def _grid_maps(ls):
    return limits._width_grid(float(ls[0]), float(ls[-1]), len(ls))[1:3]


def _level_bounds(weights, values):
    """4 eps sum |w| |v| for each row of the weight matrix, plus m units of
    the smallest subnormal per sum |w| for products that underflow."""
    m = weights.shape[1]
    size = np.abs(weights)
    return (4.0 * EPS * (size @ np.abs(values[-m:]))
            + m * TINY * size.sum(axis=1))


def _assert_selection_matches(value, error, levels, bound):
    """The selected (value, error) is a level of the reference triangle, to
    the bound, whose change is smallest within the bounds: the reference's
    own best wherever that beats every other level by more than them."""
    change = np.abs(np.diff(levels))
    slack = bound[1:] + bound[:-1]  # bound on each change
    k = _best_index(change)
    near = set(np.flatnonzero(change <= change[k] + slack + slack[k])) | {k}
    assert any(abs(value - levels[i + 1]) <= bound[i + 1] and
               abs(error - change[i]) <= slack[i] for i in near), \
        (value, error, levels[k + 1], change[k])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(points=st.integers(8, 40), ratio=st.floats(1.05, 4.0),
       coeffs=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
       power=st.floats(0.25, 3.0), zero=st.sampled_from([None, 0, -2, -1]))
@example(points=13, ratio=10 ** 0.25, coeffs=[2.5, 0.0, 0.0], power=1.0,
         zero=None)  # constant
@example(points=8, ratio=2.0, coeffs=[1.0, -3.0, 0.5], power=1.0, zero=-1)
@example(points=8, ratio=2.837873397002703, coeffs=[720.4387309782151, 0.0,
                                                    0.0], power=1.0, zero=-1)
def test_tail_richardson_equals_full_triangle(points, ratio, coeffs, power,
                                              zero):
    # every level of the cached weight matrix against the exact triangle,
    # each to 4 eps sum |w| |v|; the selected (value, error) of classify
    # against that triangle's best level.  A float triangle is no
    # reference: its own rounding is of the same size (at the last
    # example W @ v meets the exact level to 0.70 of the bound and the
    # float triangle to 0.51, with opposite signs)
    ls = np.geomspace(1.0, ratio ** -(points - 1), points)
    ratio = float(ls[0] / ls[1])
    values = coeffs[0] + coeffs[1] * ls ** power + coeffs[2] * ls ** (2 * power)
    if zero is not None:
        values[zero] = 0.0
    _, weights = _grid_maps(ls)
    exact = _exact_richardson(values, ratio, weights.shape[1])
    bound = _level_bounds(weights, values)
    got = weights @ values[-weights.shape[1]:]
    assert all(abs(Fraction(g) - e) <= b for g, e, b in
               zip(got.tolist(), exact, bound.tolist())), (got, exact, bound)
    levels = np.array([float(e) for e in exact])
    tr = limits.LimitTrace(path=ADJ, lam=0.0, E=1.0, l_values=ls,
                           rho_values=np.zeros(points),
                           entries=np.repeat(values[:, None], 4, axis=1))
    v = classify(tr).entries["L11"]
    if v.kind == limits.CONVERGES:
        _assert_selection_matches(v.value, v.error, levels, bound)


def _reference_classify(tr):
    """One entry at a time: the slope as one dot product, the limit from
    the float triangle over the whole sequence.  Each entry maps to (kind,
    exponent, value, error, check): for a divergent entry the bound of its
    exponent, 4 eps sum |x| |y| / (x @ x); for a convergent one its
    triangle levels and their bounds."""
    half = len(tr.l_values) // 2
    x = np.log(tr.l_values[half:])
    x -= x.mean()
    weights = _grid_maps(tr.l_values)[1]
    ratio = float(tr.l_values[0] / tr.l_values[1])
    out = {}
    for j, name in enumerate(limits.ENTRY_NAMES):
        v = tr.entries[:, j]
        vt = v[half:]
        with np.errstate(over="ignore"):  # a product overflows with its sign
            crosses = bool(np.any(vt[:-1] * vt[1:] <= 0.0))
        if not crosses:
            y = np.log(np.abs(vt))
            y -= y.mean()
            slope = float(x @ y / (x @ x))
            if slope <= limits.DIVERGENCE_SLOPE:
                bound = 4.0 * EPS * float(np.abs(x) @ np.abs(y) / (x @ x))
                out[name] = (limits.DIVERGENT, slope, None, None, bound)
                continue
        with np.errstate(over="ignore", invalid="ignore"):
            levels = _full_richardson(v, ratio)
            change = np.abs(np.diff(levels))
            bound = _level_bounds(weights, v)
        k = _best_index(change)
        out[name] = (limits.CONVERGES, None, levels[k + 1], float(change[k]),
                     (levels, bound))
    return out


SEVEN_RULES = ["adjacent", "barrier-first:0.5", "linear:1.3", "quadratic:0.7",
               "power:1.1:0.5", "power:0.9:1.5", "power:2.1:3"]


@pytest.mark.parametrize("spec", SEVEN_RULES)
def test_classify_matches_per_entry_reference_bit_for_bit(spec):
    # entry order and kinds bit for bit; exponent, value and error to the
    # bound of the grid's linear map, 4 eps sum |w| |v|
    path = SqueezePath.parse(spec)
    lams = [0.0, 0.8, 10.0, LAM1, 123.4, 377.7]
    if spec in ("adjacent", "linear:1.3", "quadratic:0.7", "power:2.1:3"):
        lams += [r.lam for r in resonance_set(path, 6)]
    kinds = set()
    for lam in lams:
        for E, points in ((1.0, 13), (0.5, 8), (2.0, 24), (1.0, 40)):
            tr = make_trace(path, lam, E=E, points=points)
            got = classify(tr).entries
            want = _reference_classify(tr)
            assert list(got) == list(want)
            for name, (kind, exponent, _, _, check) in want.items():
                v = got[name]
                kinds.add(kind)
                assert v.kind == kind, (spec, lam, name)
                if kind == limits.DIVERGENT:
                    assert v.value is None and v.error is None
                    assert abs(v.exponent - exponent) <= check, (spec, lam, name)
                else:
                    assert v.exponent is None
                    _assert_selection_matches(v.value, v.error, *check)
    assert kinds == {limits.DIVERGENT, limits.CONVERGES}


# the default grid, one at ratio 2 and one with 40 points
@settings(max_examples=300, deadline=None, derandomize=True)
@given(spec=st.sampled_from(SEVEN_RULES), lam=st.floats(0.0, 400.0),
       E=st.floats(0.01, 10.0))
@example(spec="adjacent", lam=LAM1, E=1.0)
@example(spec="quadratic:0.7", lam=0.0, E=0.5)
def test_trace_on_its_plan_matches_the_kernel_bit_for_bit(spec, lam, E):
    path = SqueezePath.parse(spec)
    ls = np.geomspace(1e-1, 1e-4, 13)
    rho = path.rho_of(ls)
    want = np.array(transfer_entries(ls, rho, lam, E))
    if not (det_residual(*want) <= 1e-10).all():
        with pytest.raises(DeltaPrimeError, match="determinant residual"):
            make_trace(path, lam, E)
        return
    tr = make_trace(path, lam, E)
    assert tr.entries.T.tobytes() == want.tobytes()
    assert tr.rho_values.tobytes() == (np.zeros(13) + rho).tobytes()


@pytest.mark.parametrize("grid", [(1e-1, 1e-4, 13), (1.0, 2.0 ** -7, 8),
                                  (1e-1, 1e-4, 40)])
def test_weights_recover_a_polynomial_against_an_exact_oracle(grid):
    # Level m - 1 removes the powers l, l**2, .., l**(m - 1) of a geometric
    # grid: applied to a polynomial of degree <= m - 1 in l it returns the
    # constant term.  The polynomial, and the error of the float product,
    # are exact rationals, so the check does not lean on the triangle.
    ls = np.geomspace(*grid)
    _, weights = _grid_maps(ls)
    m = weights.shape[1]
    ratio = Fraction(float(ls[0] / ls[1]))
    l_tail = [Fraction(float(ls[-1])) * ratio ** (m - 1 - t) for t in range(m)]
    rng = np.random.default_rng(grid[2])
    for degree in range(m):
        for _ in range(5):
            coeffs = [Fraction(c) for c in rng.uniform(-1.0, 1.0, degree + 1)]
            exact = [sum(c * l ** d for d, c in enumerate(coeffs))
                     for l in l_tail]
            values = np.array([float(v) for v in exact])
            got = Fraction(float(weights[-1] @ values))
            bound = 4.0 * EPS * float(np.abs(weights[-1]) @ np.abs(values))
            assert abs(got - coeffs[0]) <= bound, (degree, got - coeffs[0])
    # each row sums to 1, the degree-0 case, exactly summed
    for row in weights:
        total = sum(Fraction(float(w)) for w in row)
        assert abs(total - 1) <= 4.0 * EPS * np.abs(row).sum(), row


def test_classify_skips_the_levels_that_overflow():
    # one column of 1e307 and 1e308 whose products of neighbours and upper
    # Richardson levels overflow to inf and NaN: classify warns nothing and
    # picks the level that the triangle picks, since a NaN change never wins
    ls = np.geomspace(1e-1, 1e-4, 13)
    big = 1e308 * (-1.0) ** np.arange(13)
    big[-2:] = 0.999e307, 1e307
    entries = np.stack([big, np.full(13, 0.5), 1.0 / ls, np.full(13, 2.0)], 1)
    tr = limits.LimitTrace(path=ADJ, lam=0.0, E=1.0, l_values=ls,
                           rho_values=np.zeros(13), entries=entries)
    weights = _grid_maps(ls)[1]
    with np.errstate(over="ignore", invalid="ignore"):
        levels = weights @ big[-weights.shape[1]:]
        assert np.isnan(np.diff(levels)).any()
        assert np.isnan(np.diff(_full_richardson(big, ls[0] / ls[1]))).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = classify(tr).entries
    kind, _, value, error, _ = _reference_classify(tr)["L11"]
    assert got["L11"].kind == kind == limits.CONVERGES
    assert (got["L11"].value, got["L11"].error) == (value, error)
    assert (value, error) == (1e307, 1e307 - 0.999e307)
    assert got["L21"].kind == limits.DIVERGENT


def test_det_residual_on_arrays_matches_the_scalar_form():
    # arrays take np.maximum, scalars a comparison: both exact, so the two
    # residuals agree bit for bit
    rng = np.random.default_rng(7)
    l11, l12, l21 = rng.standard_normal((3, 2000)) * 10.0 ** rng.uniform(
        -8, 8, (3, 2000))
    l22 = (1.0 + l12 * l21) / l11
    l22[::7] *= 1.0 + 1e-9  # residuals well above rounding too
    entries = [np.append(v, np.nan) for v in (l11, l12, l21, l22)]
    entries[0][-1], entries[2][:3] = 1.0, np.nan
    got = det_residual(*entries)
    want = np.array([det_residual(*(float(v[i]) for v in entries))
                     for i in range(len(got))])
    nan = np.isnan(want)
    assert nan.sum() == 4 and np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan], want[~nan])


def _reference_predict(path, lam):
    """predict with one bracket solve each, and chi and g of the matching
    root from the public chi_linear and g_quadratic, which check it."""
    if not resonance.has_resonances(path):
        return None
    c = resonance._linear_c(path)
    guess = int(math.sqrt(lam) // math.pi)
    for n in (guess, guess + 1):
        if n >= 1:
            sigma = resonance._root(c, n)
            if abs(lam - sigma * sigma) <= resonance._MATCH_TOL:
                quadratic = path.kind == "power" and path.tau == 2.0
                return resonant_matrix(
                    chi_linear(sigma, c),
                    g_quadratic(sigma, path.c) if quadratic else 0.0)
    return None


def _hex(cm):
    return None if cm is None else [float(v).hex() for v in
                                    (cm.l11, cm.l12, cm.l21, cm.l22)]


@pytest.mark.parametrize("spec", SEVEN_RULES)
def test_predict_matches_one_solve_per_bracket_bit_for_bit(spec):
    path = SqueezePath.parse(spec)
    own = path if resonance.has_resonances(path) else ADJ
    lams = [r.lam for r in resonance_set(own, 6)]
    lams += [0.3, 10.0, 37.5, 123.4, 251.0, 377.7]
    hits = 0
    for lam in lams:
        want = _reference_predict(path, lam)
        hits += want is not None
        assert _hex(predict(path, lam)) == _hex(want), (spec, lam)
    assert hits == (6 if own is path else 0)


def test_predict_past_the_resonance_data():
    # past the root table (n = 112) each bracket is solved on its own: a
    # coupling between two roots matches none and forms no chi, a root's
    # own coupling forms it and raises where it overflows
    for lam in (1.3e5, 4e5, 1e6):
        assert predict(ADJ, lam) is None
    sigma = resonance._root(0.0, 114)
    with pytest.raises(DeltaPrimeError,
                       match=r"^chi overflows .*\(n = 114, c = 0\.0\)$"):
        predict(ADJ, sigma ** 2)


@pytest.mark.parametrize("lam, n, residual, sigma", [
    # one ulp of s = 1e10 moves tan(s) by about 2e-6
    (1e20, 3183098861, "9.29e-07", "9999999998.153036"),
    # the bracket (n*pi, n*pi + pi/2) is narrower than one ulp of 1e20
    (1e40, 31830988618379067392, "1.84", "1e+20"),
])
def test_predict_names_the_bracket_no_float_solves(lam, n, residual, sigma):
    # a root exists, but no double in the bracket meets the residual bound
    message = (f"no sigma in bracket n = {n} at c = 0.0 meets |residual| "
               f"<= 1e-10 (residual {residual} at sigma = {sigma})")
    with pytest.raises(NotARootError, match=f"^{re.escape(message)}$"):
        predict(ADJ, lam)


def test_predict_solves_nothing_once_the_shared_table_holds_n(monkeypatch):
    linear = SqueezePath.power_law(0.7, 1.0)
    for path in (ADJ, linear):
        resonance_set(path, 8)  # its table now holds n = 1 .. 8 at least
    calls = []
    solve = resonance._root
    monkeypatch.setattr(resonance, "_root",
                        lambda *a: calls.append(a) or solve(*a))
    for lam in [r.lam for r in resonance_set(QUAD, 6)] + [10.0, 400.0]:
        for path in (ADJ, QUAD, SqueezePath.power_law(2.1, 3.0)):
            predict(path, lam)
    for lam in [r.lam for r in resonance_set(linear, 6)] + [10.0, 400.0]:
        predict(linear, lam)
    assert calls == []
    # the table ends where chi overflows; n past it is solved directly
    with pytest.raises(DeltaPrimeError, match=r"\(n = 113,"):
        resonance_set(ADJ, 113)
    assert len(resonance._table(0.0)[0][0]) == 112
    sigma = resonance._root(0.0, 113)
    del calls[:]
    with pytest.raises(DeltaPrimeError, match=r"\(n = 113,"):
        predict(ADJ, sigma * sigma)
    assert calls == [(0.0, 113)]  # alone: it matches and overflows


def test_traces_and_sweeps_compare_by_value():
    a, b = make_trace(QUAD, LAM1), make_trace(QUAD, LAM1)
    assert a.entries is not b.entries
    assert a == b and not a != b
    entries = b.entries.copy()
    entries[5, 2] = np.nextafter(entries[5, 2], np.inf)
    assert a != dataclasses.replace(b, entries=entries)
    assert a != make_trace(QUAD, LAM1, E=2.0)
    assert a != make_trace(QUAD, LAM1, points=14)
    assert (a == "trace") is False
    s, t = (transmission_sweep(ADJ, 1e-3, 1.0, 60.0, 300) for _ in "st")
    assert s.T2 is not t.T2
    assert s == t and not s != t
    assert s != transmission_sweep(ADJ, 1e-3, 1.0, 60.0, 301)


def _errstate_runs():
    """Results of each array layer, once under the default errstate and once
    under a caller's ``np.errstate(all="raise")``."""
    runs = []
    for state in ("warn", "raise"):
        with np.errstate(all=state):
            tr = make_trace(ADJ, 1.2e5)
            tm = transfer_matrix(RectProfile(0.01, 0.0, 1.2e5), 1.0)
            amp = scattering(tm, 1.0)
            res = resonant_scattering(1e200, 0.0, 1.0)
            runs.append([
                # a sweep whose hypot rescue in amplitudes underflows
                transmission_sweep(ADJ, 0.01, 1.0, 4e5, 50),
                tr, classify(tr), tm, (amp.R2, amp.T2, amp.R, amp.T),
                (res.R2, res.T2, res.R, res.T)])
    return runs


def test_a_callers_errstate_changes_no_result():
    # one warning scope, boundary._quiet, ignores all four kinds; with
    # underflow left to the caller, "raise" made the sweep and
    # resonant_scattering raise FloatingPointError from np.square
    default, raising = _errstate_runs()
    for a, b in zip(default, raising):
        assert a == b


def test_each_public_array_call_enters_one_warning_scope(monkeypatch):
    # the public call enters boundary._quiet once and runs its helpers
    # under it: a sweep of one block or three, a trace on a cold plan and
    # on a warm one, classify, resonant_scattering on arrays and
    # transfer_matrix; scattering(transfer_matrix(...)) is two calls.
    # Reading R and T enters none: they are formed in the call
    entered = []

    class Counting(np.errstate):
        def __enter__(self):
            entered.append(self)
            return super().__enter__()

    def scopes(call, *args):
        entered.clear()
        call(*args)
        return len(entered)

    tr, profile = make_trace(ADJ, LAM1), RectProfile(0.01, 0.3, 30.0)
    limits._width_grid.cache_clear()
    limits._trace_plan.cache_clear()
    monkeypatch.setattr(np, "errstate", Counting)
    counts = [
        scopes(transmission_sweep, ADJ, 1e-3, 1.0, 60.0, 2000),
        scopes(transmission_sweep, ADJ, 1e-3, 1.0, 60.0,
               2 * limits.SWEEP_BLOCK + 7),
        scopes(make_trace, QUAD, LAM1),  # cold: the caches were cleared
        scopes(make_trace, QUAD, LAM1),
        scopes(classify, tr),
        scopes(resonant_scattering, np.array([CHI1, 2.0]),
               np.array([0.0, G1_C1]), 1.0),
        scopes(transfer_matrix, profile, 1.0)]
    assert counts == 7 * [1]

    def read(amp):
        return amp.R, amp.T

    assert scopes(lambda: read(scattering(transfer_matrix(profile, 1.0),
                                          1.0))) == 2
    assert scopes(lambda: read(resonant_scattering(
        np.array([CHI1, 2.0]), np.array([0.0, G1_C1]), 1.0))) == 1


def test_overflow_fronts_on_both_sides():
    # the kernel's products of growing quantities overflow from about
    # lam = 1.267e5 (transfer, trace) and 4.85e5-4.93e5 (a sweep at l from
    # 1e-3 to 0.1, whose amplitudes rescue |Delta|**2 by hypot)
    for l in (1.0, 0.01):
        transfer_matrix(RectProfile(l, 0.0, 1.26e5), 1.0)
        with pytest.raises(InvariantViolation, match="determinant residual"):
            transfer_matrix(RectProfile(l, 0.0, 1.27e5), 1.0)
    make_trace(ADJ, 1.265e5)
    with pytest.raises(InvariantViolation, match="determinant residual"):
        make_trace(ADJ, 1.27e5)
    transmission_sweep(ADJ, 0.01, 1.0, 4.7e5, 50)
    with pytest.raises(InvariantViolation, match="conservation residual"):
        transmission_sweep(ADJ, 0.01, 5.0e5, 5.1e5, 50)
