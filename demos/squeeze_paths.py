"""One starting profile, different zero-range limits.

Starting from the same barrier-well pair, the zero-range limit depends on
how the gap rho closes relative to the width l.  Tracing the transfer-matrix
entries along each rule and classifying their limits reproduces the analytic
picture: a wall unless the gap closes at least quadratically (or exactly
linearly, with shifted resonances), and on the quadratic rule an extra
delta-like term g survives.
"""

from deltaprime import SqueezePath, classify, predict, resonance_set, trace

LAM1 = resonance_set(SqueezePath.adjacent(), 1)[0].lam

paths = [
    SqueezePath.barrier_first(0.5),
    SqueezePath.power_law(1.0, 0.5),
    SqueezePath.power_law(1.0, 1.0),
    SqueezePath.power_law(1.0, 1.5),
    SqueezePath.power_law(1.0, 2.0),
    SqueezePath.power_law(1.0, 3.0),
    SqueezePath.adjacent(),
]

for lam, label in ((LAM1, "first resonant coupling"),
                   (10.0, "generic coupling")):
    print(f"\n=== lambda = {lam:.6g} ({label}) ===")
    print(f"{'path':>18} {'verdict':>10}   entry limits / growth exponents")
    for path in paths:
        tr = trace(path, lam, E=1.0, l_start=1e-1, l_end=1e-4, points=13)
        verdict = classify(tr)
        # a limit this far below the largest entry is rounding noise around 0
        noise = 1e-12 * abs(tr.entries[-1]).max()
        bits = []
        for name, e in verdict.entries.items():
            if e.is_divergent:
                bits.append(f"{name} ~ l^{e.exponent:.2f}")
            else:
                value = e.value if abs(e.value) >= noise else 0.0
                bits.append(f"{name} -> {value:.4g}")
        expected = predict(path, lam)
        tag = "wall" if expected is None else "transmits"
        agree = verdict.separated == (expected is None)
        print(f"{path.describe():>18} {verdict.variant:>10}   "
              f"{'; '.join(bits)}  [predicted: {tag}"
              f"{'' if agree else ' -- MISMATCH'}]")

print("""
Reading the table:
 * 'separated' rows have a divergent lower-left entry: the point acts as an
   impenetrable wall and the half-lines decouple.
 * On the resonant rows every entry converges; the limits (chi, 1/chi, g)
   define the point-interaction boundary conditions.
 * The quadratic rule is the only one with g != 0 in the limit.""")
