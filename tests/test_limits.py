import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import eager_amplitudes
from deltaprime import (DeltaPrimeError, PrecisionFloorError, RectProfile,
                        SqueezePath, classify, limits, piecewise_transfer,
                        predict, resonance, resonance_set, resonant_matrix,
                        scattering, trace, transfer_matrix,
                        transmission_sweep)
from deltaprime.transfer import det_residual, transfer_entries

LAM1 = 15.418205716980063
CHI1 = -35.874573920759161
G1_C1 = 276.34588992287415

ADJ = SqueezePath.adjacent()
QUAD = SqueezePath.power_law(1.0, 2.0)


def make_trace(path, lam, E=1.0, l_start=1e-1, l_end=1e-4, points=13):
    return trace(path, lam, E, l_start, l_end, points)


def test_trace_grid_and_path_geometry():
    tr = make_trace(SqueezePath.power_law(2.0, 2.0), LAM1, points=9)
    assert tr.points == 9
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


def test_classify_after_grid_cache_eviction_matches_fresh_trace():
    # the slope design travels with the trace, so a trace whose grid left
    # the cache classifies as a fresh trace on a rebuilt grid does
    first = make_trace(ADJ, LAM1, l_start=0.09, points=11)
    for i in range(limits._GRID_CACHE_SIZE + 1):
        make_trace(ADJ, LAM1, l_start=0.05 + 1e-3 * i, points=9 + i)
    fresh = make_trace(ADJ, LAM1, l_start=0.09, points=11)
    assert fresh.l_values is not first.l_values

    def bits(verdict):
        return [(name, v.kind, _bits(v.exponent), _bits(v.value),
                 _bits(v.error)) for name, v in verdict.entries.items()]

    assert bits(classify(first)) == bits(classify(fresh))


def test_trace_and_sweep_cap_their_sizes():
    cap = limits.MAX_TRACE_POINTS
    with pytest.raises(ValueError, match=f"points = {cap + 1} exceeds"):
        make_trace(ADJ, LAM1, points=cap + 1)
    with pytest.raises(ValueError):
        make_trace(ADJ, LAM1, points=float("nan"))
    assert make_trace(ADJ, LAM1, points=40).points == 40
    cap = limits.MAX_SWEEP_SAMPLES
    assert cap > 1_000_000
    with pytest.raises(ValueError, match=f"samples = {cap + 1} exceeds"):
        transmission_sweep(ADJ, 1e-3, 1.0, 60.0, cap + 1)


def test_trace_rejects_a_grid_whose_richardson_powers_overflow():
    # ratio = (1e308/1e-6)**(1/7) > 1e43, and ratio**8 overflows
    with pytest.raises(ValueError, match="l_start = 1e.308, l_end = 1e-06, "
                                         "points = 8"):
        make_trace(ADJ, 1.0, l_start=1e308, l_end=1e-6, points=8)
    # ratio**8 = 1e235 stays finite: the grid traces
    tr = make_trace(ADJ, 1.0, l_start=1e200, l_end=1e-6, points=8)
    assert tr.points == 8


def test_trace_rows_keep_unit_determinant():
    tr = make_trace(QUAD, LAM1)
    dets = (tr.entries[:, 0] * tr.entries[:, 3]
            - tr.entries[:, 1] * tr.entries[:, 2])
    scale = np.maximum(1.0, np.abs(tr.entries).max(axis=1) ** 2)
    assert (np.abs(dets - 1.0) / scale < 1e-10).all()


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


def _bits(x):
    return None if x is None else struct.pack("<d", x)


def _full_richardson(values, ratio):
    """Every level of the extrapolation triangle over the whole sequence."""
    prev = [float(v) for v in values]
    best = prev[-1]
    best_err = abs(prev[-1] - prev[-2])
    for j in range(1, min(len(values), limits._RICHARDSON_DEPTH + 1)):
        f = ratio ** j
        cur = [(f * prev[i] - prev[i - 1]) / (f - 1.0)
               for i in range(1, len(prev))]
        err = abs(cur[-1] - prev[-1])
        if err < best_err:
            best, best_err = cur[-1], err
        prev = cur
    return best, best_err


@settings(max_examples=300, deadline=None)
@given(points=st.integers(8, 40), ratio=st.floats(1.05, 4.0),
       coeffs=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
       power=st.floats(0.25, 3.0), zero=st.sampled_from([None, 0, -2, -1]))
@example(points=13, ratio=10 ** 0.25, coeffs=[2.5, 0.0, 0.0], power=1.0,
         zero=None)  # constant
@example(points=8, ratio=2.0, coeffs=[1.0, -3.0, 0.5], power=1.0, zero=-1)
def test_tail_richardson_equals_full_triangle(points, ratio, coeffs, power,
                                              zero):
    l = ratio ** -np.arange(points, dtype=float)
    values = coeffs[0] + coeffs[1] * l ** power + coeffs[2] * l ** (2 * power)
    if zero is not None:
        values[zero] = 0.0
    got = limits._richardson(values, limits._powers(ratio))
    want = _full_richardson(values, ratio)
    assert list(map(_bits, got)) == list(map(_bits, want))


def _reference_classify(tr):
    """One entry at a time, with one dot product per entry."""
    half = tr.points // 2
    x = np.log(tr.l_values[half:])
    x -= x.mean()
    out = {}
    for j, name in enumerate(limits.ENTRY_NAMES):
        v = tr.entries[:, j]
        vt = v[half:]
        crosses = bool(np.any(vt[:-1] * vt[1:] <= 0.0))
        if not (np.all(np.abs(vt) < limits._TINY_TAIL) or crosses):
            y = np.log(np.abs(vt))
            slope = float(x @ (y - y.mean()) / (x @ x))
            if slope <= limits.DIVERGENCE_SLOPE:
                out[name] = (limits.DIVERGENT, slope, None, None)
                continue
        ratio = float(tr.l_values[0] / tr.l_values[1])
        est, err = _full_richardson(v, ratio)
        out[name] = (limits.CONVERGES, None, est, err)
    return out


SEVEN_RULES = ["adjacent", "barrier-first:0.5", "linear:1.3", "quadratic:0.7",
               "power:1.1:0.5", "power:0.9:1.5", "power:2.1:3"]


@pytest.mark.parametrize("spec", SEVEN_RULES)
def test_classify_matches_per_entry_reference_bit_for_bit(spec):
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
            for name, (kind, exponent, value, error) in want.items():
                v = got[name]
                kinds.add(kind)
                assert v.kind == kind, (spec, lam, name)
                assert [_bits(v.exponent), _bits(v.value), _bits(v.error)] == \
                    [_bits(exponent), _bits(value), _bits(error)], (spec, lam, name)
    assert kinds == {limits.DIVERGENT, limits.CONVERGES}


def test_det_residual_on_arrays_matches_the_scalar_form():
    # arrays take an exact np.maximum, scalars the plain-arithmetic max,
    # whose scale is off by up to an ulp; with the division's own rounding
    # the two residuals agree to 2 eps relative
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
    assert (got[~nan] != want[~nan]).any()
    np.testing.assert_allclose(got[~nan], want[~nan], rtol=2.0 ** -51, atol=0)


def _reference_predict(path, lam):
    """predict with one bracket solve each and _record of the root alone."""
    if not resonance.has_resonances(path):
        return None
    c = resonance._linear_c(path)
    guess = int(math.sqrt(lam) // math.pi)
    for n in (guess, guess + 1):
        if n >= 1:
            sigma = resonance._root(c, n)
            if abs(lam - sigma * sigma) <= limits._MATCH_TOL:
                r = resonance._record(path, sigma)
                return resonant_matrix(r.chi, r.g)
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


def test_predict_solves_nothing_once_the_shared_table_holds_n(monkeypatch):
    resonance_set(ADJ, 8)  # the table now holds n = 1 .. 8 at least
    calls = []
    solve = resonance._solve_bracketed
    monkeypatch.setattr(resonance, "_solve_bracketed",
                        lambda *a: calls.append(a) or solve(*a))
    for lam in [r.lam for r in resonance_set(QUAD, 6)] + [10.0, 400.0]:
        for path in (ADJ, QUAD, SqueezePath.power_law(2.1, 3.0)):
            predict(path, lam)
    assert calls == []
    # the table ends where chi overflows; n past it is solved directly
    with pytest.raises(DeltaPrimeError, match=r"\(n = 113,"):
        resonance_set(ADJ, 113)
    assert len(resonance._ADJACENT_ROOTS) == resonance._ADJACENT_COUNT
    sigma = resonance._root(0.0, 113)
    del calls[:]
    with pytest.raises(DeltaPrimeError, match=r"\(n = 113,"):
        predict(ADJ, sigma * sigma)
    assert len(calls) == 1  # bracket 113 alone, which matches and overflows


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
