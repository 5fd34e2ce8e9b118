"""Resonant tunnelling across the derivative-of-delta point interaction.

A numerical library for the one-dimensional Schroedinger equation (units
with hbar**2/2m = 1) with a barrier-well pair squeezing onto the point
potential lam * (d/dx) delta(x): transfer matrices, resonance sets,
zero-range limits along squeeze paths, and the point-interaction
boundary-condition families that reproduce them.
"""

from .boundary import (ConnectionMatrix, ProductParams, bc_from_product,
                       bound_state, delta_prime_delta_matrix,
                       params_from_resonance, resonant_matrix,
                       scattering_from_matrix, seba_matrix)
from .errors import (DeltaPrimeError, InvariantViolation, NotARootError,
                     PrecisionFloorError, SingularParameterError)
from .limits import (EntryVerdict, LimitTrace, LimitVerdict, Peak, SweepResult,
                     classify, predict, trace, transmission_sweep)
from .paths import SqueezePath
from .profile import RectProfile
from .resonance import (Resonance, bound_state_kappa, chi_adjacent,
                        chi_linear, g_quadratic, resonance_set,
                        resonant_scattering, solve_adjacent, solve_linear)
from .transfer import (PRECISION_FLOOR, ScatteringAmplitudes, TransferMatrix,
                       piecewise_transfer, scattering, transfer_matrix)

__version__ = "0.1.0"

__all__ = [
    "ConnectionMatrix", "ProductParams", "bc_from_product", "bound_state",
    "delta_prime_delta_matrix", "params_from_resonance", "resonant_matrix",
    "scattering_from_matrix", "seba_matrix",
    "DeltaPrimeError", "InvariantViolation", "NotARootError",
    "PrecisionFloorError", "SingularParameterError",
    "EntryVerdict", "LimitTrace", "LimitVerdict", "Peak", "SweepResult",
    "classify", "predict", "trace", "transmission_sweep",
    "SqueezePath", "RectProfile",
    "Resonance", "bound_state_kappa", "chi_adjacent", "chi_linear",
    "g_quadratic", "resonance_set", "resonant_scattering", "solve_adjacent",
    "solve_linear",
    "PRECISION_FLOOR", "ScatteringAmplitudes", "TransferMatrix",
    "piecewise_transfer", "scattering", "transfer_matrix",
]
