import numpy as np
import pytest
from hypothesis import given, strategies as st

from deltaprime import SqueezePath


def test_rho_rules():
    assert SqueezePath.barrier_first(0.5).rho_of(1e-3) == 0.5
    assert SqueezePath.adjacent().rho_of(1e-3) == 0.0
    assert SqueezePath.power_law(2.0, 2.0).rho_of(0.1) == pytest.approx(0.02)


@pytest.mark.parametrize("l", [2.0, np.array([1.0, 2.0])])
def test_overflowing_gap_is_a_value_error(l):
    # 2.0**1100 overflows: a float power raises, a numpy one gives inf
    with pytest.raises(ValueError, match=r"gap c\*l\*\*tau = inf is not "
                                         r"finite at l = 2\.0"):
        SqueezePath.power_law(1.0, 1100.0).rho_of(l)


def test_zero_constant_power_law_is_adjacent():
    assert SqueezePath.power_law(0.0, 2.0) == SqueezePath.adjacent()
    # the constructor normalizes too, so the rule has one value
    assert SqueezePath("power", c=-0.0, tau=2.0) == SqueezePath.adjacent()


def test_constructor_validation():
    with pytest.raises(ValueError):
        SqueezePath.barrier_first(0.0)
    with pytest.raises(ValueError):
        SqueezePath.power_law(-1.0, 2.0)
    with pytest.raises(ValueError):
        SqueezePath.power_law(1.0, 0.0)
    with pytest.raises(ValueError, match="exponent tau"):
        SqueezePath.power_law(0.0, 0.0)  # checked before c = 0 is adjacent


@pytest.mark.parametrize("fields, match", [
    (dict(kind="bogus"), "unknown squeeze rule kind 'bogus'"),
    (dict(kind="power", c=-1.0, tau=2.0), "path constant c"),
    (dict(kind="power", c=1.0, tau=0.0), "exponent tau"),
    (dict(kind="barrier-first", rho=-1.0), "separation"),
    # a field the kind does not read
    (dict(kind="adjacent", rho=5.0), r"kind='adjacent', rho=5\.0, c=0\.0, "
                                     r"tau=0\.0\) sets a field its kind does"),
    (dict(kind="adjacent", c=float("nan")), "sets a field"),
    (dict(kind="barrier-first", rho=0.5, tau=3.0), "sets a field"),
    (dict(kind="power", rho=1.0, c=0.0, tau=2.0), "sets a field"),
])
def test_constructor_checks_its_fields(fields, match):
    # the classmethods are not the only way in
    with pytest.raises(ValueError, match=match):
        SqueezePath(**fields)


@pytest.mark.parametrize("build,name", [
    (lambda v: SqueezePath.barrier_first(v), "separation"),
    (lambda v: SqueezePath.power_law(v, 2.0), "path constant c"),
    (lambda v: SqueezePath.power_law(1.0, v), "exponent tau"),
])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_constructor_rejects_non_finite_constants(build, name, value):
    # rho = c*l**inf would silently be the adjacent rule
    with pytest.raises(ValueError, match=name):
        build(value)


@pytest.mark.parametrize("spec,expected", [
    ("adjacent", SqueezePath.adjacent()),
    ("barrier-first:0.5", SqueezePath.barrier_first(0.5)),
    ("linear", SqueezePath.power_law(1.0, 1.0)),
    ("linear:2", SqueezePath.power_law(2.0, 1.0)),
    ("quadratic", SqueezePath.power_law(1.0, 2.0)),
    ("quadratic:0.5", SqueezePath.power_law(0.5, 2.0)),
    ("power:3:1.5", SqueezePath.power_law(3.0, 1.5)),
])
def test_parse_round_trip(spec, expected):
    path = SqueezePath.parse(spec)
    assert path == expected
    assert SqueezePath.parse(path.describe()) == path


@pytest.mark.parametrize("spec", ["bogus", "adjacent:1", "barrier-first",
                                  "power:1", "linear:x", "power:1:2:3"])
def test_parse_rejects_malformed_specs(spec):
    with pytest.raises(ValueError):
        SqueezePath.parse(spec)


def test_describe_keeps_every_digit():
    assert (SqueezePath.barrier_first(0.123456789).describe()
            == "barrier-first:0.123456789")
    assert SqueezePath.power_law(1.0, 0.5).describe() == "power:1:0.5"


_CONSTANTS = st.floats(0.0, 1e300, allow_subnormal=True)


@given(st.one_of(
    st.just(SqueezePath.adjacent()),
    _CONSTANTS.filter(lambda v: v > 0).map(SqueezePath.barrier_first),
    st.builds(SqueezePath.power_law, _CONSTANTS,
              _CONSTANTS.filter(lambda v: v > 0))))
def test_parse_reads_back_every_description(path):
    assert SqueezePath.parse(path.describe()) == path
