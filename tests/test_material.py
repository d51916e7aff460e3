"""Material model: permittivity, index, reflection, absorption weight."""

import cmath
import math
import random

import pytest

from casimir1d.errors import ResonanceSingularityError, SingularEvaluationError
from casimir1d.kernels import core
from casimir1d.material import (
    Material,
    fd_weight,
    permittivity,
    refractive_index,
)

FIG = Material(omega0=10.0, omega_pl=10.0, gamma0=0.1)


def damping_transform(material, s):
    """Laplace-domain oscillator kernel 1/(s^2 + omega0^2 + s gamma0), the
    kernel the permittivity is built from; raises SingularEvaluationError
    on (numerical) pole hits."""
    return core.g2_transform(complex(s), material.omega0, material.gamma0)


def surface_reflection(material, omega):
    """Fresnel amplitude of the bare interface, (1 - n)/(1 + n)."""
    n = refractive_index(material, omega)
    return (1.0 - n) / (1.0 + n)


def test_validation():
    with pytest.raises(ValueError):
        Material(omega0=0.0, omega_pl=1.0)
    with pytest.raises(ValueError):
        Material(omega0=1.0, omega_pl=-1.0)
    with pytest.raises(ValueError):
        Material(omega0=1.0, omega_pl=1.0, gamma0=-0.5)
    with pytest.raises(ValueError):
        Material(omega0=1.0, omega_pl=1.0, model="lorenz")


def test_damping_transform_value():
    # pole structure: at s = -10j with omega0 = gamma0 = 10 the denominator
    # is -100j, so the kernel equals +0.01j  (hand evaluation)
    m = Material(omega0=10.0, omega_pl=1.0, gamma0=10.0)
    assert damping_transform(m, -10j) == pytest.approx(0.01j, rel=1e-14)


def test_damping_transform_pole():
    m = Material(omega0=10.0, omega_pl=1.0, gamma0=0.0)
    with pytest.raises(SingularEvaluationError):
        damping_transform(m, -10j)


def test_permittivity_on_resonance():
    # at omega = omega0 the real part of the denominator cancels exactly:
    # eps = 1 + omega_pl^2/(-i gamma0 omega0) = 1 + 100j for the Fig-style
    # material (omega0 = omega_pl = 10, gamma0 = 0.1)
    eps = permittivity(FIG, 10.0)
    assert eps == pytest.approx(1.0 + 100.0j, rel=1e-13)
    n = refractive_index(FIG, 10.0)
    # mpmath sqrt(1+100j), 20 digits
    assert n.real == pytest.approx(7.1065110945880556, rel=1e-13)
    assert n.imag == pytest.approx(7.0358013003142098, rel=1e-13)


def test_reality_condition():
    rng = random.Random(20260815)
    for _ in range(50):
        om = rng.uniform(0.01, 40.0)
        assert permittivity(FIG, -om) == pytest.approx(
            permittivity(FIG, om).conjugate(), rel=1e-14)
        assert refractive_index(FIG, -om) == pytest.approx(
            refractive_index(FIG, om).conjugate(), rel=1e-14)


def test_index_branch():
    rng = random.Random(7)
    for _ in range(200):
        om = rng.uniform(0.01, 60.0)
        n = refractive_index(FIG, om)
        assert n.real >= 0.0
        assert n.imag >= 0.0


def test_undamped_stop_band():
    m = Material(omega0=10.0, omega_pl=10.0, gamma0=0.0)
    # inside the stop band the permittivity is real negative and the index
    # purely imaginary on the upper branch: eps(12) = 1 - 100/44
    eps = permittivity(m, 12.0)
    assert eps == pytest.approx(1.0 - 100.0 / 44.0, rel=1e-14)
    n = refractive_index(m, 12.0)
    assert n.real == 0.0
    assert n.imag == pytest.approx(1.1281521496355324, rel=1e-13)
    # conjugation rule puts the negative-frequency branch below the axis
    assert refractive_index(m, -12.0).imag == pytest.approx(
        -1.1281521496355324, rel=1e-13)


def test_undamped_resonance_raises():
    m = Material(omega0=10.0, omega_pl=10.0, gamma0=0.0)
    with pytest.raises(ResonanceSingularityError):
        permittivity(m, 10.0)
    with pytest.raises(ResonanceSingularityError):
        refractive_index(m, -10.0)
    # damped material is regular there
    permittivity(FIG, 10.0)


def test_static_model():
    m = Material(omega0=10.0, omega_pl=10.0, model="static_nd")
    for om in (0.1, 1.0, 10.0, 123.0):
        assert permittivity(m, om) == 2.0 + 0.0j
        assert refractive_index(m, om) == pytest.approx(math.sqrt(2.0))
        assert fd_weight(m, om) == 0.0
    # sqrt(2) interface reflection, frozen from a 20-digit evaluation
    assert surface_reflection(m, 5.0) == pytest.approx(
        -0.17157287525380990, rel=1e-14)


def test_fd_weight_identity():
    # absorption weight 2 Re(n) Im(n) equals Im(eps) equals
    # omega_pl^2 * omega * gamma0 * |kernel|^2 (all three forms agree)
    rng = random.Random(42)
    for _ in range(100):
        om = rng.uniform(0.05, 50.0)
        w = fd_weight(FIG, om)
        assert w == pytest.approx(permittivity(FIG, om).imag, rel=1e-12)
        k = damping_transform(FIG, -1j * om)
        assert w == pytest.approx(
            FIG.omega_pl ** 2 * om * FIG.gamma0 * abs(k) ** 2, rel=1e-12)
    # frozen sample at omega = 3 (mpmath, 20 digits)
    assert fd_weight(FIG, 3.0) == pytest.approx(
        0.0036227115029543212, rel=1e-13)


def test_vacuum_material():
    m = Material(omega0=1.0, omega_pl=0.0, gamma0=0.1)
    for om in (0.3, 2.0, 7.7):
        assert permittivity(m, om) == pytest.approx(1.0 + 0.0j, abs=1e-15)
        assert surface_reflection(m, om) == pytest.approx(0.0, abs=1e-15)
        assert fd_weight(m, om) == 0.0


def test_rotated_axis_index():
    # on the imaginary frequency axis the index is real and >= 1,
    # monotonically decreasing towards 1
    prev = None
    for kap in (1e-3, 0.1, 1.0, 5.0, 20.0, 200.0):
        n = core.refractive_rot(kap, *FIG.as_tuple())
        assert n >= 1.0
        if prev is not None:
            assert n <= prev
        prev = n
    # kappa -> 0 approaches the static value sqrt(2)
    assert core.refractive_rot(1e-9, *FIG.as_tuple()) == pytest.approx(
        math.sqrt(2.0), rel=1e-9)


def test_transmitted_flux_identity():
    # single-interface energy split: 1 - |r_n|^2 = 4 Re(n)/|n+1|^2
    rng = random.Random(3)
    for _ in range(100):
        om = rng.uniform(0.05, 50.0)
        n = refractive_index(FIG, om)
        rn = surface_reflection(FIG, om)
        assert 1.0 - abs(rn) ** 2 == pytest.approx(
            4.0 * n.real / abs(1.0 + n) ** 2, rel=1e-12)
