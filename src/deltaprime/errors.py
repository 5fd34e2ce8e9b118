"""Typed errors shared across the library, and the elementwise check that
raises them."""

import sys

__all__ = [
    "DeltaPrimeError",
    "SingularParameterError",
    "PrecisionFloorError",
    "NotARootError",
    "InvariantViolation",
    "holds",
    "require",
]


class DeltaPrimeError(Exception):
    """Base class for all library-specific failures."""


class SingularParameterError(DeltaPrimeError):
    """A boundary-condition formula was evaluated at one of its poles."""


class PrecisionFloorError(DeltaPrimeError):
    """Requested squeeze widths below the validated double-precision floor."""


class NotARootError(DeltaPrimeError):
    """A value passed as a resonance root does not satisfy its equation."""


class InvariantViolation(DeltaPrimeError):
    """A computed result failed one of its built-in consistency checks."""


def holds(ok) -> bool:
    """Whether ``ok``, a boolean scalar or array, holds at every element.

    Scalars are tested directly: reducing a numpy scalar costs more than a
    one-point evaluation of the transfer kernel's arithmetic.  Arrays take
    the ufunc reduction, which skips ``ndarray.all``'s Python wrapper.  No
    array can exist before numpy is loaded, so the scalar paths never load
    it.
    """
    np = sys.modules.get("numpy")
    if np is not None and isinstance(ok, np.ndarray):
        return bool(np.logical_and.reduce(ok, axis=None))
    return bool(ok)


def require(ok, error: type[Exception], message: str, *values) -> None:
    """Raise ``error`` unless ``ok`` holds at every element.

    ``ok`` is a boolean scalar or array; a bound on a computed value is
    written so that NaN fails it (``x <= tol``).  ``message`` is formatted
    with the elements of ``values``, broadcast to the shape of ``ok``, at
    the first position where it fails.
    """
    if holds(ok):
        return
    import numpy as np

    ok = np.asarray(ok)
    i = int(np.argmin(ok))
    raise error(message.format(
        *(np.broadcast_to(v, ok.shape).flat[i].item() for v in values)))
