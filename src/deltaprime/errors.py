"""Typed errors shared across the library, the elementwise check that
raises them, and the intake of integer and real arguments, without numpy."""

import operator
import sys

__all__ = [
    "DeltaPrimeError",
    "SingularParameterError",
    "PrecisionFloorError",
    "NotARootError",
    "InvariantViolation",
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


def require(ok, error: type[Exception], message: str, *values) -> None:
    """Raise ``error`` unless ``ok`` holds at every element.

    ``ok`` is a boolean scalar or array; a bound on a computed value is
    written so that NaN fails it (``x <= tol``).  ``message`` is formatted
    with the elements of ``values``, broadcast to the shape of ``ok``, at
    the first position where it fails.
    """
    np = sys.modules.get("numpy")  # no array exists before numpy is loaded
    if (np.logical_and.reduce(ok, axis=None) if np is not None
            and isinstance(ok, np.ndarray) else ok):  # scalars directly
        return
    import numpy as np

    ok = np.asarray(ok)
    i = int(np.argmin(ok))
    raise error(message.format(
        *(np.broadcast_to(v, ok.shape).flat[i].item() for v in values)))


def _integer(name: str, value, kind: str = "an integer") -> int:
    """``value`` as an int, where it is one (a numpy integer too); else a
    :class:`ValueError` that names it: "``name`` must be ``kind``"."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be {kind}, got {value!r}") from None


def _real(name: str, value) -> float:
    """``value`` as a float where it is one real number (a numpy scalar or
    unmasked 0-d array too, by ``ndim``, ``dtype.kind`` and ``mask``), else
    a ValueError; complex numbers, strings and sequences are none."""
    if type(value) is float:
        return value
    try:
        if (getattr(value, "ndim", hasattr(value, "__len__")) == 0
                and getattr(getattr(value, "dtype", None), "kind", "")
                not in ("c", "S", "U")
                and not getattr(value, "mask", False)
                and not isinstance(value, (str, bytes, complex))):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be one real number, got {value!r}")


def _real_fields(record, *names) -> None:
    """Read the named fields of a frozen ``record`` through :func:`_real`."""
    for name in names:
        value = getattr(record, name)
        if type(value) is not float:
            object.__setattr__(record, name, _real(name, value))
