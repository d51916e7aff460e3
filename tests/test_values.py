"""Value semantics of the frozen parameter and result classes."""

import copy
import dataclasses
import math
import pickle

import pytest

from casimir1d.cli import RunConfig
from casimir1d.forces import ForceBreakdown
from casimir1d.material import Material
from casimir1d.quadrature import QuadratureSpec
from casimir1d.scattering import (CavityConfig, ModeFunction,
                                  cavity_coefficients)
from casimir1d.states import FieldState
from casimir1d.stress import RegionPoint

MAT = Material(3.0, 2.0, 0.5)
CAV = CavityConfig(1.0, 0.4, MAT, Material(10.0, 10.0, model="static_nd"))
SPEC = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-10)
SSET = cavity_coefficients(CAV, 2.5)

# one instance of every value class, with a change that its checks refuse
# (None where the class has no checks)
CASES = [
    (MAT, {"gamma0": -1.0}),
    (SPEC, {"rel_tol": 0.0}),
    (CAV, {"left": (3.0, 2.0, 0.5, False)}),
    (ModeFunction("phi_greater", SSET), {"kind": "phi_sideways"}),
    (FieldState.squeezed_band(0.5, 3.0), {"sigma": -0.5}),
    (ForceBreakdown(1.5, -0.25, 1.25, 1e-9, 2e-9, 5e-10), None),
    (RunConfig(CAV, FieldState.thermal(5.0), 5.0, 7.0, SPEC, (0.5, 1.0),
               (3.0,), None), None),
    (RegionPoint(0.13, "gap"), None),
]
IDS = [type(v).__name__ for v, _ in CASES]


def _fields(v):
    return tuple(getattr(v, f.name) for f in dataclasses.fields(v))


@pytest.mark.parametrize("value, bad", CASES, ids=IDS)
def test_equal_fields_mean_equal_values(value, bad):
    twin = type(value)(*_fields(value))
    assert twin is not value
    assert twin == value and hash(twin) == hash(value)
    assert value != _fields(value) and _fields(value) != value
    # no iteration or indexing: a value is not a tuple
    with pytest.raises(TypeError):
        iter(value)


@pytest.mark.parametrize("value, bad", CASES, ids=IDS)
def test_values_are_frozen(value, bad):
    name = value.__slots__[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, name, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(value, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.extra = 1


@pytest.mark.parametrize("value, bad", CASES, ids=IDS)
def test_replace_validates_like_a_new_instance(value, bad):
    assert value.replace() == value
    with pytest.raises(TypeError):
        value.replace(no_such_field=1)
    if bad is not None:
        with pytest.raises((TypeError, ValueError)):
            value.replace(**bad)
        with pytest.raises((TypeError, ValueError)):
            dataclasses.replace(value, **bad)


@pytest.mark.parametrize("value, bad", CASES, ids=IDS)
def test_values_survive_pickle_and_copy(value, bad):
    assert copy.copy(value) == value
    restored = pickle.loads(pickle.dumps(value))
    if isinstance(value, ModeFunction):
        # the coefficient set compares by identity; its amplitudes survive
        assert restored.coefficients.Rgt == value.coefficients.Rgt
        restored = restored.replace(coefficients=value.coefficients)
    assert restored == value and hash(restored) == hash(value)


NON_FINITE = [
    (MAT, "omega0", math.inf), (MAT, "omega_pl", math.inf),
    (MAT, "gamma0", math.nan), (SPEC, "rel_tol", math.inf),
    (SPEC, "abs_tol", math.nan), (SPEC, "panel_width", math.inf),
    (CAV, "gap", math.inf), (CAV, "gap", math.nan),
    (FieldState.squeezed_band(0.5, 3.0), "sigma", math.inf),
    (FieldState.squeezed_band(0.5, 3.0), "omega_center", math.nan),
    (FieldState.squeezed_const(0.5), "xi", math.inf)]


@pytest.mark.parametrize("value, field, bad", NON_FINITE, ids=[
    "%s-%s-%r" % (type(v).__name__, f, b) for v, f, b in NON_FINITE])
def test_values_refuse_fields_that_are_not_finite(value, field, bad):
    with pytest.raises(ValueError, match=field):
        value.replace(**{field: bad})


def test_half_spaces_and_zero_temperature_stay_allowed():
    assert CAV.replace(width=math.inf).width == math.inf
    assert FieldState.thermal(math.inf).beta == math.inf


def test_values_of_different_classes_differ():
    assert RegionPoint(1.0, "gap") != ModeFunction("phi_greater", SSET)
    assert QuadratureSpec() != FieldState.vacuum()
    assert MAT.__eq__(SPEC) is NotImplemented


def test_dataclass_functions_accept_the_values():
    # perfbench/make_reference.py derives its specs with dataclasses.replace
    assert dataclasses.replace(SPEC, panel_width=0.25) == \
        SPEC.replace(panel_width=0.25)
    assert [f.name for f in dataclasses.fields(SPEC)] == \
        ["rel_tol", "abs_tol", "panel_width", "max_panels"]
    assert dataclasses.asdict(CAV)["left"] == {
        "omega0": 3.0, "omega_pl": 2.0, "gamma0": 0.5,
        "model": "drude_lorentz"}


def test_breakdown_repr_is_pinned():
    # scripts/write_bench.py compares the reprs of the forces across
    # checkouts
    out = ForceBreakdown(1.5, -0.25, 1.25, 1e-9, 2e-9, 5e-10)
    assert repr(out) == ("ForceBreakdown(ic=1.5, bath=-0.25, total=1.25, "
                         "err_ic=1e-09, err_bath=2e-09, err_total=5e-10)")
    assert repr(Material(1.0, 0.0)) == (
        "Material(omega0=1.0, omega_pl=0.0, gamma0=0.0, "
        "model='drude_lorentz')")
