"""The record contract: every result type is a frozen dataclass, slotted
except ScatteringAmplitudes, whose constructor keeps the dataclass
signature and its __post_init__ checks."""

import copy
import dataclasses
import inspect
import pickle
import weakref

import numpy as np
import pytest

from deltaprime import (ConnectionMatrix, EntryVerdict, InvariantViolation,
                        LimitTrace, LimitVerdict, Peak, ProductParams,
                        RectProfile, Resonance, ScatteringAmplitudes,
                        SqueezePath, SweepResult, TransferMatrix,
                        bc_from_product, classify, params_from_resonance,
                        resonance_set, scattering, trace, transfer_matrix,
                        transmission_sweep)
from deltaprime._record import record


def _samples():
    path = SqueezePath.parse("quadratic:1.3")
    r = resonance_set(path, 2)[1]
    params = params_from_resonance(r.lam, r.chi, r.g)
    cm = bc_from_product(params, r.lam)
    tr = trace(path, r.lam, 1.0, 1e-1, 1e-4, 13)
    verdict = classify(tr)
    sweep = transmission_sweep(path, 1e-2, 1.0, 60.0, 200)
    return {
        Resonance: r,
        ProductParams: params,
        ConnectionMatrix: cm,
        TransferMatrix: transfer_matrix(RectProfile(1e-2, 0.0, r.lam), 1.0),
        LimitTrace: tr,
        EntryVerdict: verdict.entries["L11"],
        LimitVerdict: verdict,
        Peak: sweep.peaks[0],
        SweepResult: sweep,
        SqueezePath: path,
        RectProfile: RectProfile(1e-2, 0.0, r.lam),
        ScatteringAmplitudes: scattering(cm, 1.3),
    }


SAMPLES = _samples()
CLASSES = list(SAMPLES)
SLOTTED = [cls for cls in CLASSES if cls is not ScatteringAmplitudes]


def _ids(cls):
    return cls.__name__


@pytest.mark.parametrize("cls", CLASSES, ids=_ids)
def test_fields_cannot_be_assigned_or_deleted(cls):
    x = SAMPLES[cls]
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, f.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, f.name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        x.extra = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        del x.extra


@pytest.mark.parametrize("cls", SLOTTED, ids=_ids)
def test_records_keep_no_instance_dict(cls):
    x = SAMPLES[cls]
    assert not hasattr(x, "__dict__")
    with pytest.raises(TypeError):
        vars(x)
    with pytest.raises(TypeError):
        weakref.ref(x)


def test_scattering_amplitudes_cache_r_and_t_in_their_dict():
    amp = scattering(SAMPLES[ConnectionMatrix], 0.7)
    assert "_complex" not in vars(amp)
    assert (amp.R, amp.T) == vars(amp)["_complex"]


@pytest.mark.parametrize("cls", CLASSES, ids=_ids)
def test_signature_is_that_of_the_plain_frozen_dataclass(cls):
    plain = dataclasses.make_dataclass(cls.__name__, [
        (f.name, f.type, dataclasses.field(
            default=f.default, default_factory=f.default_factory))
        for f in dataclasses.fields(cls)], frozen=True)
    assert inspect.signature(cls) == inspect.signature(plain)


@pytest.mark.parametrize("cls", CLASSES, ids=_ids)
def test_dataclass_helpers_round_trip(cls):
    x = SAMPLES[cls]
    names = [f.name for f in dataclasses.fields(cls)]
    values = [getattr(x, n) for n in names]
    assert names == list(dataclasses.asdict(x))
    assert len(dataclasses.astuple(x)) == len(names)

    same = dataclasses.replace(x)
    assert type(same) is cls and same is not x and same == x
    assert all(getattr(same, n) is v for n, v in zip(names, values))
    assert cls(*values) == x
    assert cls(**dict(zip(names, values))) == x
    np.testing.assert_equal(dataclasses.astuple(cls(*dataclasses.astuple(x))),
                            dataclasses.astuple(x))
    np.testing.assert_equal(dataclasses.asdict(cls(**dataclasses.asdict(x))),
                            dataclasses.asdict(x))
    for other in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(other) is cls
        np.testing.assert_equal(dataclasses.astuple(other),
                                dataclasses.astuple(x))


def test_defaults_and_default_factory_apply():
    assert SqueezePath("adjacent") == SqueezePath.adjacent()
    assert RectProfile(0.5, 0.0).lam == 1.0
    assert EntryVerdict("converges").value is None
    params = ProductParams(0.25, 1.0)
    assert (params.lam_fit, params.offset) == (float("inf"), 0.25)


def test_default_factory_is_refused():
    # a record field has a plain default or none
    with pytest.raises(TypeError, match="entries"):
        LimitVerdict()
    with pytest.raises(TypeError, match="'items' has a default_factory"):
        @record
        class Holder:
            items: list = dataclasses.field(default_factory=list)


def test_post_init_guards_still_raise():
    cm = SAMPLES[ConnectionMatrix]
    with pytest.raises(InvariantViolation):
        ConnectionMatrix(2.0, 0.0, 0.0, 2.0)
    with pytest.raises(InvariantViolation):
        dataclasses.replace(cm, l11=2.0 * cm.l11)
    for width in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="width l"):
            RectProfile(width, 0.0)
    with pytest.raises(ValueError, match="width l"):
        dataclasses.replace(SAMPLES[RectProfile], l=0.0)
