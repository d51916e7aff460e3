"""Field-state spectral weights."""

import math
import random

import pytest

from casimir1d.errors import DeltaStateWeightError
from casimir1d.states import (
    FieldState,
    band_edges,
    weight,
)


def weight_asymptotics_check(state, sigmas=None):
    """Scan the in-band weight cosh(2/sigma) over a sigma grid.

    Returns a report dict with the sampled weights and three verdicts:
    the weight decreases monotonically with sigma, approaches 1 from above
    for large sigma, and grows without apparent bound for small sigma.
    """
    if state.variant != "squeezed_band":
        raise ValueError("asymptotics check applies to squeezed_band states")
    if sigmas is None:
        # log-spaced 0.02 .. 200, enough range to exhibit both asymptotes
        sigmas = [0.02 * (10.0 ** (4.0 * i / 39.0)) for i in range(40)]
    sigmas = sorted(float(s) for s in sigmas)
    if any(s <= 0.0 for s in sigmas):
        raise ValueError("sigma grid must be positive")
    weights = [math.cosh(2.0 / s) for s in sigmas]
    monotone = all(w1 >= w2 for w1, w2 in zip(weights[:-1], weights[1:]))
    tends_to_one = weights[-1] >= 1.0 and weights[-1] - 1.0 < 1e-3
    diverges_small = weights[0] > 100.0
    return {
        "sigma": sigmas,
        "weight": weights,
        "monotone_decreasing": monotone,
        "tends_to_one": tends_to_one,
        "diverges_at_zero": diverges_small,
    }


def test_validation():
    with pytest.raises(ValueError):
        FieldState.thermal(0.0)
    with pytest.raises(ValueError):
        FieldState.squeezed_band(-1.0, 5.0)
    with pytest.raises(ValueError):
        FieldState.squeezed_band(1.0, 0.0)
    with pytest.raises(ValueError):
        FieldState("chaotic")


def test_vacuum():
    st = FieldState.vacuum()
    for k in (1e-6, 0.1, 3.0, 1e4):
        assert weight(st, k) == 1.0


def test_thermal_small_k_divergence():
    st = FieldState.thermal(2.0)
    # coth(beta k/2) ~ 2/(beta k) as k -> 0
    for k in (1e-4, 1e-6, 1e-8):
        assert weight(st, k) == pytest.approx(2.0 / (2.0 * k), rel=1e-3)


def test_thermal_identity():
    # coth(beta k / 2) against the direct hyperbolic quotient
    rng = random.Random(11)
    for _ in range(100):
        beta = rng.uniform(0.1, 50.0)
        k = rng.uniform(1e-3, 40.0)
        x = beta * k / 2.0
        if x > 300.0:
            continue
        direct = math.cosh(x) / math.sinh(x)
        assert weight(FieldState.thermal(beta), k) == pytest.approx(
            direct, rel=1e-13)


def test_band_weight():
    st = FieldState.squeezed_band(2.0, 5.0)
    inside = math.cosh(1.0)  # 1.5430806348152438
    assert weight(st, 5.0) == pytest.approx(inside, rel=1e-15)
    assert weight(st, 4.0) == pytest.approx(inside, rel=1e-15)  # on the edge
    assert weight(st, 6.0) == pytest.approx(inside, rel=1e-15)
    assert weight(st, 3.999999) == 1.0
    assert weight(st, 6.000001) == 1.0
    assert band_edges(st) == (4.0, 6.0)


def test_band_edges_clip():
    st = FieldState.squeezed_band(20.0, 5.0)
    assert band_edges(st) == (0.0, 15.0)


def test_const_weight():
    st = FieldState.squeezed_const(-0.5)
    for k in (0.1, 1.0, 10.0):
        assert weight(st, k) == pytest.approx(math.cosh(1.0), rel=1e-15)


def test_delta_has_no_weight():
    st = FieldState.squeezed_delta(5.0)
    with pytest.raises(DeltaStateWeightError):
        weight(st, 5.0)


def test_evenness_and_ordering():
    rng = random.Random(99)
    states = [
        FieldState.thermal(3.0),
        FieldState.squeezed_band(1.5, 4.0),
        FieldState.squeezed_const(0.7),
        FieldState.vacuum(),
    ]
    for st in states:
        for _ in range(50):
            k = rng.uniform(1e-3, 30.0)
            w = weight(st, k)
            assert w >= 1.0
            assert weight(st, -k) == w


def test_asymptotics_report():
    st = FieldState.squeezed_band(2.0, 5.0)
    rep = weight_asymptotics_check(st)
    assert rep["monotone_decreasing"]
    assert rep["tends_to_one"]
    assert rep["diverges_at_zero"]
    # hand evaluation on a supplied grid
    rep2 = weight_asymptotics_check(st, sigmas=[2.0, 4.0])
    assert rep2["weight"][0] == pytest.approx(math.cosh(1.0), rel=1e-15)
    assert rep2["weight"][1] == pytest.approx(math.cosh(0.5), rel=1e-15)
    with pytest.raises(ValueError):
        weight_asymptotics_check(FieldState.vacuum())
