"""The public functions and constructors that take numbers, over an edge
menu: each real spelled as a float, a numpy scalar and a 0-d array, each
count as an int, a numpy integer and a 0-d integer array.  Every call gives
a finite, checked result or a typed error, never a warning, and the numpy
spellings give the float's result, type for type and bit for bit (of |R|**2
and |T|**2 for scattering amplitudes), or its exception and message; a path
so spelled equals the float path and hashes the same."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltaprime import (ConnectionMatrix, DeltaPrimeError, ProductParams,
                        RectProfile, ScatteringAmplitudes, SqueezePath,
                        TransferMatrix, bc_from_product, bound_state,
                        chi_linear, classify, delta_prime_delta_matrix,
                        g_quadratic, params_from_resonance,
                        piecewise_transfer, predict, resonance_set,
                        resonant_matrix, resonant_scattering, scattering,
                        seba_matrix, trace, transfer_matrix,
                        transmission_sweep)

SIGMA1 = 3.9266023120479185  # first root of tanh(s) = tan(s)
LAM1 = SIGMA1 * SIGMA1
CHI1 = chi_linear(SIGMA1, 0.0)
EDGES = (0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 5e-324, 1e300, math.inf, math.nan,
         SIGMA1, LAM1)
WIDTHS = (0.0, -1.0, 5e-324, 1e-7, 1e-6, 1e-4, 0.1, 1.0, 2.0, 1e300,
          math.inf, math.nan)
COUNTS = (-1, 0, 1, 2, 3, 8, 13)
# argument kind: (edge menu, numpy spellings); "w" is a width
KINDS = {"r": (EDGES, (np.float64, np.array)),
         "w": (WIDTHS, (np.float64, np.array)),
         "n": (COUNTS, (np.int64, np.array))}
PATHS = [SqueezePath.parse(spec) for spec in
         ("adjacent", "linear:0.7", "quadratic:1", "barrier-first:0.5")]


def _profile(fn):
    return lambda l, rho, lam, E: fn(RectProfile(l, rho, lam), E)


def _trace(c, lam, E, l_start, l_end, points):
    return trace(SqueezePath.power_law(c, 2.0), lam, E, l_start, l_end,
                 points)


CALLS = {  # name: (function, argument kinds, an argument tuple that works)
    "resonant_matrix": (resonant_matrix, "rr", (CHI1, 1.0)),
    "seba_matrix": (seba_matrix, "r", (1.0,)),
    "delta_prime_delta_matrix": (delta_prime_delta_matrix, "rr", (1.0, 1.0)),
    "bc_from_product": (lambda a, b, lam: bc_from_product(
        ProductParams(a, b), lam), "rrr", (0.5, 1.0, 1.0)),
    "ProductParams": (lambda a, b, lam_fit: bc_from_product(
        ProductParams(a, b, lam_fit), 1.0), "rrr", (0.5, 1.0, 2.0)),
    "chi_linear": (chi_linear, "rr", (SIGMA1, 0.0)),
    "g_quadratic": (g_quadratic, "rr", (SIGMA1, 1.0)),
    "params_from_resonance": (params_from_resonance, "rrr",
                              (LAM1, CHI1, 1.0)),
    "resonant_scattering": (resonant_scattering, "rrr", (CHI1, 1.0, 2.0)),
    **{f"predict {p.describe()}": (lambda lam, p=p: predict(p, lam), "r",
                                   (LAM1,)) for p in PATHS},
    "bound_state": (lambda a, b, lam: bound_state(bc_from_product(
        ProductParams(a, b), lam)), "rrr", (0.5, -1.0, 1.0)),
    "scattering": (lambda chi, g, k: scattering(resonant_matrix(chi, g), k),
                   "rrr", (CHI1, 1.0, 2.0)),
    "transfer_matrix": (_profile(transfer_matrix), "wwrr",
                        (1e-3, 0.0, LAM1, 1.0)),
    "piecewise_transfer": (_profile(piecewise_transfer), "wwrr",
                           (1e-3, 0.1, LAM1, 1.0)),
    "RectProfile": (RectProfile, "wwr", (1e-3, 0.1, 1.0)),
    "SqueezePath.power_law": (SqueezePath.power_law, "rr", (0.7, 2.0)),
    "SqueezePath.barrier_first": (SqueezePath.barrier_first, "w", (0.5,)),
    "resonance_set": (lambda c, count: resonance_set(
        SqueezePath.power_law(c, 1.0), count), "rn", (0.7, 3)),
    "trace": (_trace, "rrrwwn", (1.0, 37.0, 1.0, 0.1, 1e-4, 13)),
    "classify": (lambda *args: classify(_trace(*args)), "rrrwwn",
                 (1.0, LAM1, 1.0, 0.1, 1e-4, 8)),
    "transmission_sweep": (lambda c, *args: transmission_sweep(
        SqueezePath.power_law(c, 1.0), *args), "rwrrnr",
                           (0.7, 1e-3, 1.0, 60.0, 13, 1.0)),
}


def _flat(x, inf_ok=False):
    """``x`` as nested tuples of type names and float bits, records field by
    field and a path with its hash; each float finite (``inf_ok``: or inf)."""
    if isinstance(x, (list, tuple)):
        return tuple(map(_flat, x))
    if isinstance(x, dict):
        return tuple((key, _flat(v)) for key, v in x.items())
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, _flat(x.tolist())
    if dataclasses.is_dataclass(x):  # a ProductParams' lam_fit may be inf
        fields = tuple(_flat(getattr(x, f.name), f.name == "lam_fit")
                       for f in dataclasses.fields(x))
        return (type(x).__name__, *fields,
                *((x, hash(x)) if isinstance(x, SqueezePath) else ()))
    if isinstance(x, complex):
        return type(x).__name__, _flat(x.real), _flat(x.imag)
    if isinstance(x, float):
        assert math.isfinite(x) or inf_ok and x == math.inf, x
        return type(x).__name__, float.hex(x)
    assert x is None or type(x) in (bool, int, str), type(x)
    return type(x).__name__, x


def _outcome(fn, args):
    """The checked result of ``fn(*args)`` flattened, or its error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = fn(*args)
            if isinstance(got, ScatteringAmplitudes):
                # R and T were checked finite in the call; numpy's complex
                # division rounds them apart from Python's in the last bit
                assert abs(complex(got.R)) + abs(complex(got.T)) < math.inf
                assert got.conservation_residual <= 1e-10
                return _flat((float(got.R2), float(got.T2)))
        except (DeltaPrimeError, ValueError) as exc:
            return type(exc), str(exc)
    if isinstance(got, (ConnectionMatrix, TransferMatrix)):
        assert got.det_residual() <= 1e-12
    return _flat(got)


@st.composite
def _arguments(draw, kinds, base):
    """Each argument the working one or from its kind's edge menu."""
    return [draw(st.one_of(st.just(b), st.sampled_from(KINDS[kind][0])))
            for kind, b in zip(kinds, base)]


@settings(max_examples=1200, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(CALLS)), st.data())
def test_every_spelling_gives_the_float_result_or_error(name, data):
    fn, kinds, base = CALLS[name]
    args = data.draw(_arguments(kinds, base))
    want = _outcome(fn, args)
    for i in range(2):
        spelled = [KINDS[kind][1][i](a) for kind, a in zip(kinds, args)]
        assert _outcome(fn, spelled) == want, (name, spelled)


def test_every_call_works_at_its_base_arguments():
    for name, (fn, _, base) in CALLS.items():
        assert not isinstance(_outcome(fn, base)[0], type), name


@pytest.mark.parametrize("make, message", [
    (lambda: SqueezePath.power_law("1", 2.0), "c must be one real number, "
                                              "got '1'"),
    (lambda: SqueezePath.barrier_first(None), "rho must be one real number, "
                                              "got None"),
    (lambda: RectProfile("0.1", 0.0, 1.0), "l must be one real number, "
                                           "got '0.1'"),
    (lambda: RectProfile(0.1, 0.0, 1j), "lam must be one real number, "
                                        "got 1j"),
])
def test_paths_and_profiles_name_a_field_that_is_no_number(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_a_numpy_path_fills_the_shared_root_table_with_floats():
    c = 0.7000000000000001  # a constant whose table no other test fills
    resonance_set(SqueezePath.power_law(np.float64(c), 1.0), 2)
    roots = resonance_set(SqueezePath.power_law(c, 1.0), 2)
    assert all(type(r.sigma) is float is type(r.chi) for r in roots)
