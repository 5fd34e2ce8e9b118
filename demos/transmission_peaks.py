"""Transmission peaks sharpening onto the resonance set.

At finite width the barrier-well pair transmits in narrow windows around
the resonant couplings; as the width shrinks the windows tighten onto
lambda_n = sigma_n**2.  A fixed-gap geometry, by contrast, stays opaque
across the whole coupling range.
"""

import numpy as np

from deltaprime import SqueezePath, resonance_set, transmission_sweep

targets = [r.lam for r in resonance_set(SqueezePath.adjacent(), 2)]
print("resonant couplings:", ", ".join(f"{t:.4f}" for t in targets))

adjacent = SqueezePath.adjacent()
for l in (3e-2, 1e-2, 3e-3, 1e-3):
    res = transmission_sweep(adjacent, l, 1.0, 60.0, 2000, E=1.0)
    peaks = ", ".join(f"{p.lam:.4f} (|T|^2={p.T2:.2e})" for p in res.peaks)
    print(f"l = {l:7.0e}  peaks: {peaks}")

wall = transmission_sweep(SqueezePath.barrier_first(0.5), 1e-3,
                          1.0, 60.0, 2000, E=1.0)
print(f"\nfixed gap rho = 0.5 at l = 1e-3: max |T|^2 = {wall.T2.max():.2e} "
      "(opaque everywhere)")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the figure")
else:
    fig, ax = plt.subplots(figsize=(7, 4))
    for l in (1e-2, 3e-3, 1e-3):
        res = transmission_sweep(adjacent, l, 1.0, 60.0, 4000, E=1.0)
        ax.semilogy(res.lambdas, np.maximum(res.T2, 1e-16), lw=0.8,
                    label=f"l = {l:g}")
    for t in targets:
        ax.axvline(t, color="k", ls=":", lw=0.6)
    ax.set_xlabel("coupling $\\lambda$")
    ax.set_ylabel("$|T|^2$")
    ax.set_title("Transmission across the squeezed pair (adjacent path)")
    ax.legend()
    fig.tight_layout()
    fig.savefig("transmission_peaks.png", dpi=150)
    print("wrote transmission_peaks.png")
