"""Resonant tunnelling across the derivative-of-delta point interaction.

A numerical library for the one-dimensional Schroedinger equation (units
with hbar**2/2m = 1) with a barrier-well pair squeezing onto the point
potential lam * (d/dx) delta(x): transfer matrices, resonance sets,
zero-range limits along squeeze paths, and the point-interaction
boundary-condition families that reproduce them.
"""

import importlib

from .boundary import (ConnectionMatrix, ProductParams, ScatteringAmplitudes,
                       bc_from_product, bound_state, delta_prime_delta_matrix,
                       params_from_resonance, resonant_matrix, scattering,
                       seba_matrix)
from .errors import (DeltaPrimeError, InvariantViolation, NotARootError,
                     PrecisionFloorError, SingularParameterError)
from .paths import SqueezePath
from .resonance import (Resonance, chi_linear, g_quadratic, predict,
                        resonance_set, resonant_scattering)

# The array layers load numpy, so they are imported on first use (PEP 562):
# name -> defining module; a module's own name stands for the module.
_LAZY = {name: module for module, names in (
    ("limits", ("limits", "EntryVerdict", "LimitTrace", "LimitVerdict",
                "Peak", "SweepResult", "classify", "trace",
                "transmission_sweep")),
    ("profile", ("profile", "RectProfile")),
    ("transfer", ("transfer", "PRECISION_FLOOR", "TransferMatrix",
                  "piecewise_transfer", "transfer_matrix")),
) for name in names}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())


__version__ = "0.1.0"

__all__ = [
    "ConnectionMatrix", "ProductParams", "bc_from_product", "bound_state",
    "delta_prime_delta_matrix", "params_from_resonance", "resonant_matrix",
    "scattering", "seba_matrix",
    "DeltaPrimeError", "InvariantViolation", "NotARootError",
    "PrecisionFloorError", "SingularParameterError",
    "EntryVerdict", "LimitTrace", "LimitVerdict", "Peak", "SweepResult",
    "classify", "trace", "transmission_sweep",
    "SqueezePath", "RectProfile",
    "Resonance", "chi_linear", "g_quadratic", "predict", "resonance_set",
    "resonant_scattering",
    "PRECISION_FLOOR", "ScatteringAmplitudes", "TransferMatrix",
    "piecewise_transfer", "transfer_matrix",
]
