import numpy as np
import pytest

from deltaprime import (PrecisionFloorError, RectProfile, SqueezePath,
                        classify, limits, predict, resonance_set, scattering,
                        trace, transfer_matrix, transmission_sweep)
from deltaprime.transfer import det_residual

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


def test_predict_linear_path_has_own_resonances():
    from deltaprime import solve_linear
    r = solve_linear(1.0, 1)[0]
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


def test_blocked_sweep_equals_one_block(monkeypatch):
    assert limits.SWEEP_BLOCK >= 2000  # the CLI default is one block
    samples = 2 * limits.SWEEP_BLOCK + 7
    blocked = transmission_sweep(ADJ, 1e-3, 1.0, 60.0, samples)
    monkeypatch.setattr(limits, "SWEEP_BLOCK", samples)
    whole = transmission_sweep(ADJ, 1e-3, 1.0, 60.0, samples)
    np.testing.assert_array_equal(blocked.T2, whole.T2)
    np.testing.assert_array_equal(blocked.R2, whole.R2)
    assert blocked.peaks == whole.peaks
