"""The public scalar functions of ``boundary`` and ``resonance`` over an
edge menu of real numbers, each spelled as a float, a numpy scalar and a
0-d array: every call gives a finite, checked result or a typed error,
never a warning, and the numpy spellings give the float's bits (of |R|**2
and |T|**2 for scattering amplitudes) or its error."""

import math
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from deltaprime import (ConnectionMatrix, DeltaPrimeError, ProductParams,
                        ScatteringAmplitudes, SqueezePath, bc_from_product,
                        chi_linear, delta_prime_delta_matrix, g_quadratic,
                        params_from_resonance, predict, resonant_matrix,
                        resonant_scattering, seba_matrix)

SIGMA1 = 3.9266023120479185  # first root of tanh(s) = tan(s)
EDGES = (0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 5e-324, 1e300, math.inf, math.nan,
         SIGMA1, SIGMA1 * SIGMA1)
PATHS = [SqueezePath.parse(spec) for spec in
         ("adjacent", "linear:0.7", "quadratic:1", "barrier-first:0.5")]
CALLS = {  # name: (function, number of menu arguments)
    "resonant_matrix": (resonant_matrix, 2),
    "seba_matrix": (seba_matrix, 1),
    "delta_prime_delta_matrix": (delta_prime_delta_matrix, 2),
    "bc_from_product": (lambda a, b, lam: bc_from_product(
        ProductParams(a, b), lam), 3),
    "ProductParams": (lambda a, b, lam_fit: bc_from_product(
        ProductParams(a, b, lam_fit), 1.0), 3),
    "chi_linear": (chi_linear, 2),
    "g_quadratic": (g_quadratic, 2),
    "params_from_resonance": (params_from_resonance, 3),
    "resonant_scattering": (resonant_scattering, 3),
    **{f"predict {p.describe()}": (lambda lam, p=p: predict(p, lam), 1)
       for p in PATHS},
}
SPELLINGS = (np.float64, np.array)


def _bits(x: float) -> str:
    assert type(x) is float and math.isfinite(x), x
    return x.hex()


def _outcome(fn, args):
    """The checked result of ``fn(*args)`` as bits, or its error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = fn(*args)
            if isinstance(got, ScatteringAmplitudes):
                # R and T were checked finite in the call; numpy's complex
                # division rounds them apart from Python's in the last bit
                assert abs(complex(got.R)) + abs(complex(got.T)) < math.inf
                assert got.conservation_residual <= 1e-10
                return _bits(float(got.R2)), _bits(float(got.T2))
        except (DeltaPrimeError, ValueError) as exc:
            return type(exc), str(exc)
    if isinstance(got, ConnectionMatrix):
        assert got.det_residual() <= 1e-12
        return tuple(map(_bits, (got.l11, got.l12, got.l21, got.l22)))
    if isinstance(got, ProductParams):  # lam_fit is lam_n, inf included
        assert type(got.lam_fit) is float
        return (*map(_bits, (got.alpha, got.beta, got.offset)),
                got.lam_fit.hex())
    return got if got is None else _bits(got)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(CALLS)), st.data())
def test_every_spelling_gives_the_float_result_or_error(name, data):
    fn, arity = CALLS[name]
    args = data.draw(st.tuples(*[st.sampled_from(EDGES)] * arity))
    want = _outcome(fn, args)
    for spell in SPELLINGS:
        assert _outcome(fn, [spell(a) for a in args]) == want, (name, spell)
