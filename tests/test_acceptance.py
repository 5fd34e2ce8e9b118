"""Acceptance criteria, one test per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line
per criterion.
"""

import math

import numpy as np
import pytest

from conftest import adjacent_root_oracle, g_quadratic_forms
from deltaprime import (ProductParams, RectProfile, SqueezePath,
                        bc_from_product, bound_state, classify,
                        params_from_resonance, piecewise_transfer, predict,
                        resonance_set, resonant_matrix, resonant_scattering,
                        scattering, seba_matrix, trace, transfer_matrix,
                        transmission_sweep)

SIGMA1 = 3.9266023120479188
LAM1 = SIGMA1 ** 2


def report(cid, name, ok, detail=""):
    print(f"[{cid}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{cid} {name} failed {detail}"


def rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


@pytest.fixture(scope="module")
def matrix_pairs(random_quads):
    pairs = []
    for l, rho, lam, E in random_quads:
        profile = RectProfile(l=l, rho=rho, lam=lam)
        pairs.append((transfer_matrix(profile, E),
                      piecewise_transfer(profile, E), E))
    return pairs


def test_c01_determinant_law(matrix_pairs):
    worst = max(max(a.det_residual(), b.det_residual())
                for a, b, _ in matrix_pairs)
    report("C01", "determinant law, both constructions, 1000 samples",
           worst < 1e-12, f"(max residual {worst:.3e})")


def test_c02_conservation(matrix_pairs):
    worst = max(scattering(a, math.sqrt(E)).conservation_residual
                for a, _, E in matrix_pairs)
    report("C02", "flux conservation |R|^2+|T|^2 = 1",
           worst < 1e-10, f"(max residual {worst:.3e})")


def test_c03_oracle_equivalence(matrix_pairs):
    worst = 0.0
    for a, b, _ in matrix_pairs:
        scale = max(1.0, *(abs(v) for m in (a, b)
                            for v in (m.l11, m.l12, m.l21, m.l22)))
        diff = max(abs(a.l11 - b.l11), abs(a.l12 - b.l12),
                   abs(a.l21 - b.l21), abs(a.l22 - b.l22)) / scale
        worst = max(worst, diff)
    report("C03", "closed form vs interface-product oracle",
           worst < 1e-10, f"(max disagreement {worst:.3e})")


def test_c04_resonance_roots():
    rs = resonance_set(SqueezePath.adjacent(), 5)
    worst_f = max(abs(math.tanh(r.sigma) - math.tan(r.sigma)) for r in rs)
    worst_d = max(abs(r.sigma - adjacent_root_oracle(r.n)) for r in rs)
    four_places = abs(rs[0].sigma - 3.9266) < 5e-5
    report("C04", "adjacent resonance roots vs bisection oracle",
           worst_f < 1e-10 and worst_d < 1e-9 and four_places,
           f"(max |f| {worst_f:.3e}, max root diff {worst_d:.3e})")


def test_c05_equality_chains():
    worst = 0.0
    for r in resonance_set(SqueezePath.adjacent(), 10):
        a = math.cosh(r.sigma) / math.cos(r.sigma)
        b = math.sinh(r.sigma) / math.sin(r.sigma)
        c = (-1.0) ** r.n * math.sqrt(math.cosh(2 * r.sigma))
        worst = max(worst, rel(a, b), rel(a, c), rel(b, c))
        direct, signed = g_quadratic_forms(r.sigma, 1.0, r.n)
        worst = max(worst, rel(direct, signed))
        k1 = -direct / (r.chi + 1.0 / r.chi)
        k2 = 0.5 * r.sigma ** 2 * math.tanh(r.sigma) ** 2
        worst = max(worst, rel(k1, k2))
    for r in resonance_set(SqueezePath.power_law(1.0, 1.0), 10):
        u = math.cosh(r.sigma) + r.sigma * math.sinh(r.sigma)
        a = u / math.cos(r.sigma)
        b = math.sinh(r.sigma) / math.sin(r.sigma)
        c = (-1.0) ** r.n * math.sqrt(u * u + math.sinh(r.sigma) ** 2)
        worst = max(worst, rel(a, b), rel(a, c), rel(b, c))
    report("C05", "redundant closed forms agree at first 10 roots",
           worst < 1e-9, f"(max spread {worst:.3e})")


def test_c06_limit_convergence_and_verdicts():
    r = resonance_set(SqueezePath.power_law(1.0, 2.0), 1)[0]
    verdict = classify(trace(r.path, r.lam, 1.0, 1e-1, 1e-4, 13))
    e = verdict.entries
    ok_vals = (verdict.variant == "resonant"
               and abs(e["L11"].value - r.chi) / abs(r.chi) < 1e-3
               and abs(e["L22"].value - 1.0 / r.chi) / abs(1.0 / r.chi) < 1e-3
               and abs(e["L21"].value - r.g) / abs(r.g) < 1e-3
               and abs(e["L12"].value) < 1e-3)

    paths = [SqueezePath.barrier_first(0.5), SqueezePath.adjacent(),
             SqueezePath.power_law(1.0, 0.5), SqueezePath.power_law(1.0, 1.0),
             SqueezePath.power_law(1.0, 1.5), SqueezePath.power_law(1.0, 2.0),
             SqueezePath.power_law(1.0, 3.0)]
    ok_verdicts = True
    for path in paths:
        for lam in (LAM1, 10.0):
            v = classify(trace(path, lam, 1.0, 1e-1, 1e-4, 13))
            expected = predict(path, lam)
            agrees = v.separated if expected is None else v.variant == "resonant"
            ok_verdicts = ok_verdicts and agrees
    report("C06", "quadratic-path limits and verdict/prediction agreement",
           ok_vals and ok_verdicts)


def test_c07_divergence_rate():
    verdict = classify(trace(SqueezePath.adjacent(), 10.0, 1.0,
                             1e-1, 1e-4, 13))
    slope = verdict.entries["L21"].exponent
    ok = slope is not None and abs(slope + 1.0) < 0.05
    report("C07", "off-resonance lower-left entry diverges like 1/l",
           ok, f"(slope {slope})")


def test_c08_scattering_limit():
    amp = scattering(transfer_matrix(
        RectProfile(l=1e-4, rho=0.0, lam=LAM1), 1.0), 1.0)
    target = 1.0 - math.tanh(SIGMA1) ** 4
    ok_t2 = abs(amp.T2 - target) / target < 1e-3

    chi = resonance_set(SqueezePath.adjacent(), 1)[0].chi
    amps = [resonant_scattering(chi, 0.0, k) for k in (0.1, 1.0, 10.0)]
    ok_k = (max(abs(a.R - amps[0].R) for a in amps) < 1e-12
            and max(abs(a.T - amps[0].T) for a in amps) < 1e-12)
    report("C08", "finite-width transmission matches the limit; "
           "g = 0 amplitudes k-independent", ok_t2 and ok_k,
           f"(|T|^2 error {abs(amp.T2 - target) / target:.3e})")


def test_c09_transmission_peaks():
    res = transmission_sweep(SqueezePath.adjacent(), 1e-3, 1.0, 60.0, 2000,
                             E=1.0)
    targets = [r.lam for r in resonance_set(SqueezePath.adjacent(), 2)]
    ok = all(any(abs(p.lam - t) < 0.1 for p in res.peaks) for t in targets)
    report("C09", "transmission peaks sit on the resonance couplings", ok,
           f"(peaks {[round(p.lam, 4) for p in res.peaks]})")


def test_c10_boundary_condition_consistency():
    lams = np.linspace(-9.5, 9.5, 20)
    worst_seba = 0.0
    for lam in lams:
        got = bc_from_product(ProductParams(0.5, 0.0), float(lam))
        ref = seba_matrix(float(lam))
        worst_seba = max(worst_seba,
                         abs(got.l11 - ref.l11), abs(got.l12 - ref.l12),
                         abs(got.l21 - ref.l21), abs(got.l22 - ref.l22))

    worst_rt = 0.0
    for path in (SqueezePath.adjacent(), SqueezePath.power_law(1.0, 2.0)):
        for r in resonance_set(path, 10):
            params = params_from_resonance(r.lam, r.chi, r.g)
            cm = bc_from_product(params, r.lam)
            worst_rt = max(worst_rt, rel(cm.l11, r.chi), rel(cm.l21, r.g))
    report("C10", "product rule matches the symmetrized matrix and "
           "round-trips the resonance fits",
           worst_seba < 1e-12 and worst_rt < 1e-12,
           f"(seba diff {worst_seba:.3e}, round trip {worst_rt:.3e})")


def test_c11_bound_states():
    worst = 0.0
    ok_empty = True
    for c in (0.5, 1.0, 2.0):
        for r in resonance_set(SqueezePath.power_law(c, 2.0), 5):
            kappas = bound_state(resonant_matrix(r.chi, r.g))
            ok_empty = ok_empty and len(kappas) == 1
            k_quad = kappas[0]
            k_closed = -r.g / (r.chi + 1.0 / r.chi)
            k_path = 0.5 * c * r.sigma ** 2 * math.tanh(r.sigma) ** 2
            worst = max(worst, rel(k_quad, k_closed), rel(k_quad, k_path))
        ok_empty = ok_empty and all(
            bound_state(resonant_matrix(r.chi)) == []
            for r in resonance_set(SqueezePath.adjacent(), 5))
    report("C11", "bound-state decay constants agree across all three forms",
           worst < 1e-9 and ok_empty, f"(max spread {worst:.3e})")


def test_c12_alpha_bound():
    ok = True
    detail = []
    for r in resonance_set(SqueezePath.adjacent(), 10):
        alpha = params_from_resonance(r.lam, r.chi, r.g).alpha
        detail.append(round(alpha, 6))
        ok = ok and 0.0 < alpha < 1.0
    report("C12", "fitted side weights satisfy 0 < alpha < 1", ok,
           f"(alphas {detail})")


def test_c13_profile_moments():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(100):
        p = RectProfile(l=rng.uniform(1e-3, 10.0), rho=rng.uniform(0.0, 10.0))
        m0, m1 = p.moments()
        worst = max(worst, abs(m0), abs(m1 + 1.0))
    report("C13", "profile moments are (0, -1) for 100 random shapes",
           worst < 1e-12, f"(max deviation {worst:.3e})")
