"""Core scalar-kernel identities and the kernel hook point."""

import cmath
import math
import random

import pytest

import casimir1d._core as pure
from casimir1d import forces, kernels, material, scattering, stress
from casimir1d.material import Material, refractive_index
from oracle_modes import bracket_greater_lesser, halfspace_bath_integrand

MILD_L = (3.0, 2.0, 0.5, False)
MILD_R = (2.5, 1.5, 1.0, False)
FIG = (10.0, 10.0, 0.1, False)
STATIC = (10.0, 10.0, 0.0, True)
VAC = (1.0, 0.0, 0.0, False)


def _n(mat, om):
    return refractive_index(Material(mat[0], mat[1], mat[2],
                                     "static_nd" if mat[3] else
                                     "drude_lorentz"), om)


def test_every_module_reaches_the_kernels_through_one_hook_point():
    # tracing wraps the attributes of kernels.core; a module that bound its
    # kernels some other way would run them unwrapped and read zero calls
    assert kernels.core is pure
    for mod in (forces, material, scattering, stress):
        assert mod.core is kernels.core


def test_lossless_slab_unitarity():
    for om in (0.3, 1.7, 5.0, 12.0, 33.3):
        n = _n(STATIC, om)
        parts = pure.slab_parts(om, n, 0.8)
        r, t = parts[3], parts[4]
        assert abs(r) ** 2 + abs(t) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_slab_pairings_consistent():
    rng = random.Random(5)
    for _ in range(50):
        om = rng.uniform(0.1, 30.0)
        n = _n(FIG, om)
        rn, E, F, r, t, tau, tl2, t2a, g, em, em1, e2it = \
            pure.slab_parts(om, n, 1.3)
        assert abs(t) ** 2 == pytest.approx(t2a, rel=1e-12)
        assert tau == pytest.approx(t * cmath.exp(-1j * om * 1.3), rel=1e-12)
        assert tl2 == pytest.approx(t * t, rel=1e-12)
        assert abs(E) == pytest.approx(em, rel=1e-12)
        assert em1 == pytest.approx(1.0 - em, abs=1e-15)
        assert g * em == pytest.approx(t2a, rel=1e-12)


def test_ic_bracket_vs_brute_force():
    # independent 8x8 interface-matching solve, mild opacity
    a, d = 1.0, 0.4
    rng = random.Random(17)
    for _ in range(40):
        om = rng.uniform(0.2, 8.0)
        nL = _n(MILD_L, om)
        nR = _n(MILD_R, om)
        ours = pure.ic_bracket(om, a, d, MILD_L, MILD_R)
        brute = bracket_greater_lesser(om, a, d, nL, nR)
        assert ours == pytest.approx(brute, rel=1e-9, abs=1e-12)


def test_ic_bracket_vacuum_is_zero():
    for om in (0.1, 1.0, 7.3):
        assert pure.ic_bracket(om, 1.0, 2.0, VAC, VAC) == \
            pytest.approx(0.0, abs=1e-13)
        assert pure.bath_integrand(om, 1.0, 2.0, VAC, VAC, 2.0, 3.0) == 0.0


def test_ic_bracket_opaque_limit():
    # d -> infinity: only the front-face reflection survives,
    # bracket -> 1 + |r_n|^2 of the left slab
    for om in (0.8, 3.0, 9.0, 10.0, 15.0):
        nL = _n(FIG, om)
        rn = (1.0 - nL) / (1.0 + nL)
        dbig = 30.0 / (om * min(nL.imag, _n(MILD_R, om).imag))
        val = pure.ic_bracket(om, 1.0, dbig, FIG, MILD_R)
        assert val == pytest.approx(1.0 + abs(rn) ** 2, rel=1e-10)


def test_bath_integrand_opaque_matches_halfspace():
    # thick slabs reduce to the printed half-space integrand, including
    # asymmetric materials and temperatures
    a = 1.0
    for om in (0.5, 2.0, 6.0, 9.5, 11.0, 20.0):
        dbig = 60.0 / (om * min(_n(FIG, om).imag, _n(MILD_R, om).imag))
        full = pure.bath_integrand(om, a, dbig, FIG, MILD_R, 2.0, 7.0)
        half = halfspace_bath_integrand(om, a, FIG, MILD_R, 2.0, 7.0)
        assert full == pytest.approx(half, rel=1e-8)


def test_bath_integrand_static_is_zero():
    for om in (0.4, 5.0, 13.0):
        assert pure.bath_integrand(om, 1.0, 2.0, STATIC, STATIC,
                                   1.0, 3.0) == 0.0


def test_bath_integrand_mixed_absorber():
    # only the absorbing slab's bath radiates, but both terms respond to it
    om, a, d = 4.0, 1.0, 1.5
    mixed = pure.bath_integrand(om, a, d, FIG, STATIC, 2.0, 5.0)
    assert mixed != 0.0
    # the static slab's own temperature must be irrelevant
    other = pure.bath_integrand(om, a, d, FIG, STATIC, 2.0, 0.01)
    assert mixed == other


def test_rotated_route_equality():
    rng = random.Random(23)
    for _ in range(50):
        kap = rng.uniform(1e-3, 40.0)
        da = pure.roundtrip_rot_direct(kap, 1.0, 0.9, STATIC, MILD_L)
        ca = pure.roundtrip_rot_cavity(kap, 1.0, 0.9, STATIC, MILD_L)
        assert da == pytest.approx(ca, rel=1e-12)
        assert 0.0 <= da < 1.0


def test_nodiss_bracket_matches_full():
    # for dissipationless slabs the unitarity-reduced bracket equals the
    # full seven-term assembly
    rng = random.Random(31)
    st2 = (4.0, 3.0, 0.0, True)
    for _ in range(60):
        om = rng.uniform(0.05, 25.0)
        full = pure.ic_bracket(om, 1.0, 0.7, STATIC, st2)
        red = pure.nodiss_bracket(om, 1.0, 0.7, STATIC, st2)
        assert full == pytest.approx(red, rel=1e-9, abs=1e-11)


def test_halfspace_combined_grouping():
    # grouped form == naive pointwise sum at moderate k
    rng = random.Random(41)
    for _ in range(50):
        k = rng.uniform(0.1, 40.0)
        bL, bR, bphi = 2.0, 7.0, 3.0
        naive = (k * pure.coth_half(bphi, k)
                 * (1.0 + abs(pure._surface_refl(k, FIG)) ** 2)
                 + halfspace_bath_integrand(k, 1.0, FIG, MILD_R, bL, bR))
        grouped = pure.halfspace_combined_integrand(
            k, 1.0, FIG, MILD_R, bL, bR, bphi)
        assert grouped == pytest.approx(naive, rel=1e-9, abs=1e-10)


def test_phase_shift_periodicity():
    om, a, d = 2.3, 1.0, 0.8
    base = pure.ic_bracket(om, a, d, FIG, MILD_R)
    shifted = pure.ic_bracket(om, a, d, FIG, MILD_R,
                              sL=2.0 * math.pi, sR=-2.0 * math.pi,
                              sG=2.0 * math.pi)
    assert base == pytest.approx(shifted, rel=1e-12)
    bb = pure.bath_integrand(om, a, d, FIG, MILD_R, 2.0, 3.0)
    bs = pure.bath_integrand(om, a, d, FIG, MILD_R, 2.0, 3.0,
                             sL=2.0 * math.pi, sG=-2.0 * math.pi)
    assert bb == pytest.approx(bs, rel=1e-12)


def test_cavity_resonance_guard():
    from casimir1d.errors import CavityResonanceError
    with pytest.raises(CavityResonanceError):
        pure.cavity_delta(1.0 + 0.0j, 1.0 + 0.0j, 1.0 + 0.0j)


def test_coth_half():
    assert pure.coth_half(2.0, 1.0) == pytest.approx(
        math.cosh(1.0) / math.sinh(1.0), rel=1e-14)
    assert pure.coth_half(1000.0, 1.0) == 1.0
    # small argument ~ 2/(beta k)
    assert pure.coth_half(1.0, 1e-9) == pytest.approx(2e9, rel=1e-6)
    # the occupation diverges at zero argument instead of dividing by zero
    assert pure.coth_half(1.0, 0.0) == math.inf
    assert pure.coth_half(0.0, 3.0) == math.inf


def test_states_share_the_kernel_coth_half():
    from casimir1d import states
    assert states.coth_half is pure.coth_half
