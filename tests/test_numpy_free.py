"""The scalar workflows load no numpy, and the package exports the array
layers lazily.

Each check that inspects ``sys.modules`` runs in a fresh interpreter: this
test process has numpy loaded already (conftest imports it).
"""

import dataclasses
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from deltaprime import ProductParams, SqueezePath, bc_from_product, predict
from deltaprime.boundary import amplitudes

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_scalar_library_and_cli_paths_load_no_numpy():
    _run("""
        import contextlib, io, sys
        import deltaprime, deltaprime.cli
        from deltaprime import (SqueezePath, bc_from_product, bound_state,
                                params_from_resonance, predict, resonance_set,
                                resonant_scattering, scattering)
        from deltaprime.resonance import has_resonances

        ADJACENT = SqueezePath.adjacent()

        for spec in ("adjacent", "linear:0.7", "quadratic:1.3", "power:2:3"):
            for r in resonance_set(SqueezePath.parse(spec), 30):
                params = params_from_resonance(r.lam, r.chi, r.g)
                cm = bc_from_product(params, r.lam)
                bound_state(cm)
                scattering(cm, 1.3)
                resonant_scattering(r.chi, r.g, 0.7)
        # the seven rules of demos/squeeze_paths.py, at lambda_1 of the rule
        # (of the adjacent rule where it has none) and between two resonances
        for path in (SqueezePath.barrier_first(0.5),
                     *(SqueezePath.power_law(1.0, tau)
                       for tau in (0.5, 1.0, 1.5, 2.0, 3.0)), ADJACENT):
            own = has_resonances(path)
            lam1 = resonance_set(path if own else ADJACENT, 1)[0].lam
            assert (predict(path, lam1) is not None) is own
            assert predict(path, 10.0) is None
        for argv in (["bc", "--alpha", "0.5", "--lambda", "1"],
                     ["bc", "--alpha", "0.2", "--beta", "1", "--lambda", "3",
                      "--k", "2", "--format", "json"],
                     ["bc-fit", "--path", "quadratic:1.3", "--n", "3"],
                     ["bc-fit", "--n", "5", "--format", "json"],
                     ["--help"], ["bc", "--help"]):
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = deltaprime.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            assert code == 0, (argv, code)
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
        assert not loaded, loaded
    """)


@pytest.mark.parametrize("value", [
    np.complex64(1.0), np.array(1.0 + 0j), np.str_("3"), np.array([1.0]),
    np.array("3"), np.array(b"3"), np.ma.masked_array(1.0, mask=True),
    np.ma.masked])
def test_predict_rejects_what_is_not_one_real_number(value):
    # a string array and a masked value are no number, with no warning
    with pytest.raises(ValueError, match=re.escape(
            f"lam must be one real number, got {value!r}")):
        predict(SqueezePath.adjacent(), value)


@pytest.mark.parametrize("value", [
    1.5, np.float64(1.5), np.array(1.5), np.ma.masked_array(1.5),
    np.array(1.5, dtype=object), np.float32(1.5), 3 / 2])
def test_an_unmasked_real_number_is_read_as_its_float(value):
    from deltaprime.errors import _real

    got = _real("lam", value)
    assert type(got) is float and got == 1.5


def test_predict_is_one_object_in_every_module():
    import deltaprime as dp
    from deltaprime import errors, limits, resonance

    assert dp.predict is limits.predict is resonance.predict
    assert limits._real is errors._real and "numpy" not in vars(errors)
    from_resonance = [name for name, value in vars(limits).items()
                      if getattr(value, "__module__", "") == resonance.__name__]
    assert from_resonance == ["predict"]


def test_lazy_exports_are_the_defining_objects():
    _run("""
        import importlib, sys
        import deltaprime as dp

        assert "trace" not in vars(dp) and "numpy" not in sys.modules
        assert set(dp.__all__) <= set(dir(dp))
        trace = dp.trace
        assert vars(dp)["trace"] is trace  # cached: the hook runs once
        assert dp.limits is sys.modules["deltaprime.limits"]

        star = {}
        exec("from deltaprime import *", star)
        assert set(dp.__all__) <= set(star)
        for name in dp.__all__:
            homes = [m for m in ("boundary", "errors", "limits", "paths",
                                 "profile", "resonance", "transfer")
                     if name in importlib.import_module(
                         f"deltaprime.{m}").__all__]
            assert homes, name
            for m in homes:
                assert getattr(sys.modules[f"deltaprime.{m}"], name) \\
                    is getattr(dp, name) is star[name], (name, m)
        assert not hasattr(dp, "no_such_name")
    """)


def test_dir_lists_the_lazy_exports_without_loading_numpy():
    _run("""
        import sys
        import deltaprime as dp

        names = dir(dp)
        assert "trace" in names and "RectProfile" in names, names
        assert names == sorted(names) and "numpy" not in sys.modules
    """)


def _point_interactions():
    for alpha in (-1.3, 0.2, 0.5, 0.9, 2.5):
        for beta in (-2.0, 0.0, 0.7):
            for lam in (0.3, 1.7, 15.4, 104.2):
                yield bc_from_product(ProductParams(alpha, beta), lam)


@pytest.mark.parametrize("as_numpy", [False, True])
def test_scalar_phase_factor_rounds_as_numpy(as_numpy):
    # the phase factor of a scalar call is cmath.exp; it must round as
    # np.exp, which forms it on arrays
    cast = np.float64 if as_numpy else float
    for cm in _point_interactions():
        for k in (0.1, 0.9, 1.0, 2.3, 17.0):
            for x0 in (1e-6, 2e-3, 0.31, 1.0, 42.0):
                args = [cast(v) for v in (*dataclasses.astuple(cm), k)]
                T = amplitudes(*args, cast(x0)).T
                ref = amplitudes(*args).T * np.exp(-1j * args[-1] * x0)
                assert [repr(float(v)) for v in (T.real, T.imag)] == \
                    [repr(float(v)) for v in (ref.real, ref.imag)]


def test_python_floats_agree_with_numpy_scalars():
    # not bit for bit: numpy's complex division rounds differently
    for cm in _point_interactions():
        for k, x0 in ((0.1, 0.0), (1.0, 0.3), (2.3, 7.0)):
            plain = amplitudes(*dataclasses.astuple(cm), k, x0)
            wide = amplitudes(*map(np.float64, dataclasses.astuple(cm)),
                              np.float64(k), np.float64(x0))
            assert type(plain.R) is complex and type(plain.T) is complex
            assert abs(plain.R - wide.R) <= 4e-16
            assert abs(plain.T - wide.T) <= 4e-16


def test_array_wavenumber_and_position():
    cm = bc_from_product(ProductParams(0.2, 0.7), 1.7)
    k = np.array([0.1, 0.9, 2.3])
    x0 = np.array([0.0, 0.5, 3.0])
    amp = amplitudes(*dataclasses.astuple(cm), k, x0)
    assert amp.R.shape == amp.T.shape == (3,)
    for i in range(3):
        one = amplitudes(*dataclasses.astuple(cm), float(k[i]), float(x0[i]))
        assert abs(amp.R[i] - one.R) <= 4e-16
        assert abs(amp.T[i] - one.T) <= 4e-16
    entries = dataclasses.astuple(cm)
    moved = amplitudes(*entries, 1.3, x0).T  # the phase moves alone
    assert moved.shape == (3,)
    assert np.allclose(np.abs(moved), abs(amplitudes(*entries, 1.3).T),
                       rtol=1e-15, atol=0.0)
