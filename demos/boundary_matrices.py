"""Point-interaction matrices: regularization versus distribution theory.

The symmetrized distributional product gives the diagonal matrix with
A = (2+lambda)/(2-lambda), which disagrees with the chi values produced by
the squeeze limits.  Weighting the product with two free parameters
(alpha, beta) reconciles the two: each resonance triple (lambda_n, chi_n,
g_n) is reproduced exactly by the fitted weights, and every fitted alpha
lands strictly inside (0, 1).
"""

from deltaprime import (SqueezePath, bc_from_product, bound_state,
                        params_from_resonance, resonance_set, scattering,
                        seba_matrix)

print("symmetrized product (alpha = 1/2, beta = 0):")
for lam in (0.5, 1.0, 3.0):
    cm = seba_matrix(lam)
    amp = scattering(cm, k=1.0)
    print(f"  lambda = {lam:4.1f}: A = {cm.l11:8.4f}  "
          f"R = {amp.R.real:8.4f}  T = {amp.T.real:8.4f}")

print("\nresonance fits on the adjacent path:")
print(f"{'n':>2} {'lambda_n':>12} {'chi_n':>14} {'alpha_n':>12} {'residual':>10}")
for r in resonance_set(SqueezePath.adjacent(), 6):
    p = params_from_resonance(r.lam, r.chi, r.g)
    cm = bc_from_product(p, r.lam)
    resid = abs(cm.l11 - r.chi) / abs(r.chi)
    print(f"{r.n:>2} {r.lam:>12.5f} {r.chi:>14.5g} {p.alpha:>12.8f} "
          f"{resid:>10.2e}")

print("\nquadratic path (c = 1) adds the jump weight beta and a bound state:")
print(f"{'n':>2} {'g_n':>12} {'beta_n':>12} {'kappa':>10}")
for r in resonance_set(SqueezePath.power_law(1.0, 2.0), 4):
    p = params_from_resonance(r.lam, r.chi, r.g)
    cm = bc_from_product(p, r.lam)
    kappas = bound_state(cm)
    print(f"{r.n:>2} {r.g:>12.5g} {p.beta:>12.6f} "
          f"{kappas[0] if kappas else float('nan'):>10.5g}")

print("""
The A(lambda) curve of the symmetrized product never passes through the
chi_n values, so no single product rule covers both pictures; the fitted
weights alpha_n (all strictly between 0 and 1) and beta_n select, for each
resonance, the member of the two-parameter family that does.""")
