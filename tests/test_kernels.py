"""Core scalar-kernel identities and the kernel hook point."""

import cmath
import itertools
import math
import random
import sys

import pytest

import casimir1d._core as pure
from casimir1d import (forces, kernels, limits, material, modes, scattering,
                       stress)
from casimir1d.material import Material, refractive_index
from oracle_modes import (bracket_greater_lesser, halfspace_bath_integrand,
                          solve_greater)

MILD_L = (3.0, 2.0, 0.5, False)
MILD_R = (2.5, 1.5, 1.0, False)
FIG = (10.0, 10.0, 0.1, False)
STATIC = (10.0, 10.0, 0.0, True)
VAC = (1.0, 0.0, 0.0, False)
WEAK = (10.0, 10.0, 1e-6, False)


def _n(mat, om):
    return refractive_index(Material(mat[0], mat[1], mat[2],
                                     "static_nd" if mat[3] else
                                     "drude_lorentz"), om)


def test_every_module_reaches_the_kernels_through_one_hook_point():
    # tracing wraps the attributes of kernels.core; a module that bound its
    # kernels some other way would run them unwrapped and read zero calls
    assert kernels.core is pure
    for mod in (forces, limits, material, modes, stress):
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


# offset triples (sL, sR, sG): a slab of infinite width has no slab phase,
# so only the gap offsets act
_GAP_OFFSETS = [(0.3, 1.1, 0.0), (0.0, 0.0, 0.7), (2.0, 0.5, 4.1)]


def test_ic_bracket_opaque_limit():
    # d -> infinity: only the front-face reflection survives,
    # bracket -> 1 + |r_n|^2 of the left slab; at d = inf exactly that
    for om in (0.8, 3.0, 9.0, 10.0, 15.0):
        nL = _n(FIG, om)
        rn = (1.0 - nL) / (1.0 + nL)
        dbig = 30.0 / (om * min(nL.imag, _n(MILD_R, om).imag))
        val = pure.ic_bracket(om, 1.0, dbig, FIG, MILD_R)
        assert val == pytest.approx(1.0 + abs(rn) ** 2, rel=1e-10)
        for v in pure.ic_brackets(om, 1.0, math.inf, FIG, MILD_R,
                                  pure.grid((3, 3, 3))):
            assert v == pytest.approx(1.0 + abs(rn) ** 2, rel=1e-14)


def test_bath_integrand_opaque_matches_halfspace():
    # thick slabs and slabs of infinite width reduce to the printed
    # half-space integrand, including asymmetric materials and temperatures
    a = 1.0
    for om in (0.5, 2.0, 6.0, 9.5, 11.0, 20.0):
        dbig = 60.0 / (om * min(_n(FIG, om).imag, _n(MILD_R, om).imag))
        full = pure.bath_integrand(om, a, dbig, FIG, MILD_R, 2.0, 7.0)
        half = halfspace_bath_integrand(om, a, FIG, MILD_R, 2.0, 7.0)
        assert full == pytest.approx(half, rel=1e-8)
        occ = (pure.coth_half(2.0, om), pure.coth_half(7.0, om))
        factors = pure.bath_factors_of(a, math.inf, FIG, MILD_R)
        for o in _GAP_OFFSETS:
            for v in (pure.bath_integrand(om, a, math.inf, FIG, MILD_R, 2.0,
                                          7.0, *o),
                      pure.bath_weigh(factors(om, *o), *occ)):
                assert v == pytest.approx(halfspace_bath_integrand(
                    om, a, FIG, MILD_R, 2.0, 7.0, o[2]), rel=1e-10)


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
    # the slab product against the gap amplitudes of the matching oracle at
    # s = kappa (omega = i kappa): (D>/C>)(D</C<) = rL rR e^{-2 kappa a}
    rng = random.Random(23)
    for _ in range(50):
        kap = rng.uniform(1e-3, 40.0)
        da = pure.roundtrip_rot_direct(kap, 1.0, 0.9, STATIC, MILD_L)
        assert 0.0 <= da < 1.0
        if kap < 8.0:
            nL = pure.refractive_rot(kap, *STATIC)
            nR = pure.refractive_rot(kap, *MILD_L)
            g = solve_greater(1j * kap, 1.0, 0.9, nL, nR)
            l = solve_greater(1j * kap, 1.0, 0.9, nR, nL)
            oracle = (g["D"] / g["C"]) * (l["D"] / l["C"])
            assert da == pytest.approx(oracle.real, rel=1e-9)
            assert abs(oracle.imag) <= 1e-12


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


# (left, right, width, frequencies): the fig, weak and mild pairs, lossless
# and empty slabs, and slabs opaque past the em = 0 cut (2 k Im(n) d > 1400)
# in the fig stop band
_OFFSET_CASES = (
    (FIG, FIG, 100.0, (0.7, 9.95, 16.6, 40.0, 210.0)),
    (WEAK, WEAK, 100.0, (9.4, 9.99, 11.405318, 14.5, 30.0)),
    (MILD_L, MILD_R, 0.4, (0.3, 2.9, 7.0, 55.0)),
    (STATIC, STATIC, 0.7, (0.5, 6.0, 33.0)),
    (VAC, VAC, 2.0, (0.1, 7.3)),
    (FIG, MILD_R, 100.0, (11.0, 12.5, 13.0)),
)
# the unshifted triple, the diagonal of 32 common slab offsets, the
# 4 x 4 x 4 torus and 4 gap offsets alone
_OFFSET_LISTS = tuple(pure.grid(dims)
                      for dims in ((1,), (32,), (4, 4, 4), (4, 1)))


@pytest.mark.parametrize("left,right,d,ks", _OFFSET_CASES)
def test_offset_kernels_equal_the_scalar_kernels(left, right, d, ks):
    # the grid kernel shares its slab and gap work across the offsets,
    # with the scalar kernel's arithmetic: equal to the last bit; the scalar
    # bath integrand at each offset is its composition at coth(beta k/2)
    a = 1.0
    if left == FIG and right == MILD_R:
        for k in ks:
            n = pure.refractive_at(-1j * k, *FIG)
            assert 2.0 * k * n.imag * d > 1400.0
    for k in ks:
        for offsets in _OFFSET_LISTS:
            assert pure.ic_brackets(k, a, d, left, right, offsets) == \
                [pure.ic_bracket(k, a, d, left, right, *o) for o in offsets]
            for bl, br in ((2.0, 7.0), (math.inf, math.inf)):
                occL, occR = pure.coth_half(bl, k), pure.coth_half(br, k)
                assert [pure.bath_integrand(k, a, d, left, right, bl, br, *o)
                        for o in offsets] == \
                    [_composed_bath(k, a, d, left, right, occL, occR, o)
                     for o in offsets]


def test_offset_kernels_raise_at_a_cavity_pole():
    # a nearly lossless stop band reflects totally; the gap that closes the
    # round-trip phase puts the cavity on its pole at offset 0, the leading
    # triple of every grid
    from casimir1d.errors import CavityResonanceError
    mat, k, d = (10.0, 10.0, 1e-20, False), 12.0, 100.0
    n = pure.refractive_at(-1j * k, *mat)
    r = (1.0 - n) / (1.0 + n)
    a = (2.0 * math.pi - cmath.phase(r * r)) / (2.0 * k)
    assert abs(1.0 - r * r * pure.gap_phase(k, a)) < pure.DELTA_FLOOR
    calls = [
        lambda: pure.ic_bracket(k, a, d, mat, mat),
        lambda: pure.bath_integrand(k, a, d, mat, mat, 2.0, 3.0),
        lambda: pure.bath_factors_of(a, d, mat, mat)(k)]
    for dims in ((1,), (2,), (6,), (2, 2), (2, 2, 2)):
        offsets = pure.grid(dims)
        calls += [lambda: pure.ic_brackets(k, a, d, mat, mat, offsets),
                  lambda: pure.vacuum_baths(k, a, d, mat, mat, offsets)]
    for call in calls:
        with pytest.raises(CavityResonanceError):
            call()


# Z's integrand two ways: from the state side with the bracket in
# absorption form (vacuum_baths) and from the bath side at zero temperature
# (bath_integrand).  Each assembly sums terms that cancel, so each carries
# a few ulps of the sum of its terms' moduli.
_Z_PAIRS = {
    "fig": (FIG, FIG, 1.0, 100.0),
    "weak": (WEAK, WEAK, 1.0, 100.0),
    "mild": (MILD_L, MILD_R, 0.5, 0.4),
    "mix": (MILD_L, STATIC, 1.0, 0.4),
}


def _slab_terms(k, mat, d, shift):
    """``(n, slab_fixed, slab_offset, A, R)`` of one slab, with A and R
    the sums of the moduli of the terms of its absorption and of its
    reflection rn (1 - E) / F in ``_core``."""
    n = pure.refractive_at(-1j * k, *mat)
    fixed = pure.slab_fixed(k, n, d)
    part = pure.slab_offset(fixed, shift)
    rn, em, em1 = fixed[0], fixed[5], fixed[6]
    re, im, n2 = n.real, abs(n.imag), abs(1.0 + n) ** 2
    A = ((16.0 * (re * re * em1 + im * im * em)
          + 4.0 * re * abs(1.0 - n) ** 2 * em1 * (1.0 + em)) / (n2 * n2)
         + 8.0 * im * abs(rn * part[1]) / n2) / abs(part[2]) ** 2
    return n, fixed, part, A, abs(rn) * (1.0 + em) / abs(part[2])


def _assembly_rounding(k, a, d, left, right, offset):
    """Sum of the moduli of the terms that each of the two assemblies of
    Z's integrand adds up at k and ``offset``."""
    sL, sR, sG = offset
    nL, (rnL, _, qL, _, _, emL, em1L, _), pL, AL, RL = _slab_terms(
        k, left, d, sL)
    nR, (rnR, _, _, _, _, _, em1R, _), pR, AR, RR = _slab_terms(
        k, right, d, sR)
    e2itL, _, FL, rL, tl2L, t2aL, gL = pL
    e2itR, _, _, rR, _, t2aR, gR = pR
    gap = pure.gap_phase(k, a, sG)
    w = rL * rR * gap
    delta = 1.0 - w
    d2 = abs(delta) ** 2
    aL, aR = abs(rL) ** 2, abs(rR) ** 2
    bL, bR = RL * RL, RR * RR
    state = k * (4.0 * abs(w) * abs(delta)
                 + (RL * abs(delta) + RR * abs(tl2L)) ** 2 + 2.0 * RL * RR
                 + bL + bR + 4.0 * bL * bR + 2.0 * bL * AR + 2.0 * bR * AL
                 + AL * AR) / d2
    rho = rL + tl2L * rR * gap / delta
    P = 1.0 - rnL * rho
    Qt = rnL * (rnL * rnL - 1.0) / FL + rR * gap * qL * qL / (FL * FL * delta)
    near = (nL.real * (abs(P) ** 2 * em1L + abs(Qt) ** 2 * emL * em1L)
            + 2.0 * nL.imag * emL * abs(P * Qt) * abs(1.0 - e2itL)
            + (1.0 + aR) / d2 * (
                nL.real * (gL + t2aL * abs(rnL) ** 2) * em1L
                + 2.0 * nL.imag * t2aL * abs(rnL) * abs(e2itL - 1.0)))
    far = nR.real * gR * em1R + t2aR * (
        nR.real * abs(rnR) ** 2 * em1R
        + 2.0 * nR.imag * abs(rnR) * abs(e2itR - 1.0))
    bath = 0.25 * k * (abs(1.0 + nL) ** 2 / abs(nL) ** 2 * near
                       + abs(1.0 + nR) ** 2 / abs(nR) ** 2
                       * (1.0 + t2aL + aL) / d2 * far)
    return state + bath


@pytest.mark.parametrize("pair", sorted(_Z_PAIRS))
def test_vacuum_baths_match_the_zero_temperature_bath_integrand(pair):
    # from k = 1e-2 to 3e3, at the bound-mode centres k_m and k_m + w of
    # the fig and weak pairs, on the phase grids Z samples: within 8 ulps
    # of the two assemblies' terms (4.3 at most on these points)
    left, right, a, d = _Z_PAIRS[pair]
    ks = [10.0 ** (j / 10.0) for j in range(-20, 35)] + [3e3]
    if left == right:
        slab = Material(*left[:3])
        for km, w, _, _ in forces._gap_modes(
                scattering.CavityConfig(a, d, slab, slab)):
            ks += [km, km + w]
    for k in ks:
        for dims in ((1,), (5,), (4, 4), (3, 3, 3)):
            offsets = pure.grid(dims)
            got = pure.vacuum_baths(k, a, d, left, right, offsets)
            ref = [pure.bath_integrand(k, a, d, left, right, math.inf,
                                       math.inf, *o) for o in offsets]
            for o, v, r in zip(offsets, got, ref):
                assert abs(v - r) <= 8.0 * sys.float_info.epsilon \
                    * _assembly_rounding(k, a, d, left, right, o)


def test_vacuum_baths_hold_the_mild_pair_far_out():
    # frozen mpmath samples of the cavity coefficients at 80 digits, where
    # the bracket's O(1) terms cancel without loss, at k = 1e4 and 2e4,
    # where ic_bracket rounds to 0: Z's integrand, from the grid kernel
    # and from the one-triple form, and the state bracket B that it holds
    a, d = 0.5, 0.4
    for k, z, b in ((1e4, -7.2020418076292926e-13, 1.7383546570322059e-16),
                    (2e4, -9.0013181393678333e-14,
                     -4.4925841872737415e-17)):
        v = pure.vacuum_baths(k, a, d, MILD_L, MILD_R, pure.grid((1,)))[0]
        assert v == pytest.approx(z, rel=1e-10)
        assert pure.vacuum_bath_of(a, d, MILD_L, MILD_R)(k) == \
            pytest.approx(z, rel=1e-10)
        rL = _slab_terms(k, MILD_L, d, 0.0)[2][3]
        rR = _slab_terms(k, MILD_R, d, 0.0)[2][3]
        w, delta = pure.cavity_delta(rL, rR, pure.gap_phase(k, a))
        assert -(v + 4.0 * k * (w / delta).real) / k == pytest.approx(
            b, rel=1e-8)


# The grid kernels and the bath kernel composed from their building
# blocks, one offset at a time, with the kernels' own arithmetic: the
# per-frequency index and slab parts, the per-offset slab parts and gap
# factor and the cavity denominator, each from its public function.
_LEAN_K = (0.05, 0.7, 2.9, 7.3, 9.95, 10.0 + 1e-7, 11.405318, 16.6, 40.0,
           210.0, 2900.0)
_Z_GRIDS = ((1,), (5,), (4, 4), (3, 3, 3))


def _composed(k, a, d, left, right, offset):
    sL, sR, sG = offset
    nL = pure.refractive_at(-1j * k, *left)
    nR = pure.refractive_at(-1j * k, *right)
    fL, fR = pure.slab_fixed(k, nL, d), pure.slab_fixed(k, nR, d)
    pL, pR = pure.slab_offset(fL, sL), pure.slab_offset(fR, sR)
    gap = pure.gap_phase(k, a, sG)
    w, delta = pure.cavity_delta(pL[3], pR[3], gap)
    return nL, nR, fL, fR, pL, pR, gap, w, delta


def _composed_bracket(k, a, d, left, right, offset):
    _, _, _, _, pL, pR, gap, _, delta = _composed(k, a, d, left, right,
                                                  offset)
    rL, tl2L, t2aL = pL[3], pL[4], pL[5]
    rR, t2aR = pR[3], pR[5]
    d2 = abs(delta) ** 2
    rho = rL + rR * tl2L * gap / delta
    return (1.0 + abs(rho) ** 2 + t2aL * t2aR / d2
            - (t2aL * (1.0 + abs(rR) ** 2) + t2aR * (1.0 + abs(rL) ** 2)) / d2)


def _composed_bath(k, a, d, left, right, occL, occR, offset):
    nL, nR, fL, fR, pL, pR, gap, _, delta = _composed(k, a, d, left, right,
                                                      offset)
    e2itL, _, FL, rL, tl2L, t2aL, gL = pL
    e2itR, _, _, rR, _, t2aR, gR = pR
    rnL, _, qL, _, _, emL, em1L, _ = fL
    rnR, _, _, _, _, _, em1R, _ = fR
    d2 = abs(delta) ** 2
    v = 0.0
    if 2.0 * nL.real * nL.imag != 0.0:
        P = 1.0 - rnL * (rL + tl2L * rR * gap / delta)
        Qt = rnL * (rnL * rnL - 1.0) / FL + rR * gap * qL * qL / (
            FL * FL * delta)
        near = nL.real * (abs(P) ** 2 * em1L + abs(Qt) ** 2 * emL * em1L)
        if emL > 0.0:
            near += 2.0 * nL.imag * emL * (P * Qt.conjugate()
                                           * (1.0 - e2itL.conjugate())).imag
        near -= ((1.0 + abs(rR) ** 2) / d2) * (
            nL.real * (gL * em1L + t2aL * abs(rnL) ** 2 * em1L)
            - 2.0 * nL.imag * t2aL * (rnL * (e2itL - 1.0)).imag)
        v += 0.25 * k * (abs(1.0 + nL) ** 2 / abs(nL) ** 2) * occL * near
    if 2.0 * nR.real * nR.imag != 0.0:
        far = nR.real * gR * em1R + t2aR * (
            nR.real * abs(rnR) ** 2 * em1R
            - 2.0 * nR.imag * (rnR * (e2itR - 1.0)).imag)
        v += 0.25 * k * (abs(1.0 + nR) ** 2 / abs(nR) ** 2) * occR * (
            (t2aL - 1.0 - abs(rL) ** 2) / d2) * far
    return v


def _composed_absorption(n, fixed, part):
    """A of one slab, (a0 - a1 Im(rn E)) / |F|^2 as ``_core`` forms it."""
    em, em1 = fixed[5], fixed[6]
    re, im = n.real, n.imag
    p = (1.0 + re) ** 2 + im * im
    m = (1.0 - re) ** 2 + im * im
    a0 = (16.0 * (re * re * em1 - im * im * em)
          + 4.0 * re * m * em1 * (1.0 + em)) / (p * p)
    return (a0 - 8.0 * im / p * (fixed[0] * part[1]).imag) / abs(part[2]) ** 2


def _composed_vacuum(k, a, d, left, right, offset):
    nL, nR, fL, fR, pL, pR, gap, w, delta = _composed(k, a, d, left, right,
                                                      offset)
    rL, tl2L, rR = pL[3], pL[4], pR[3]
    aL, aR = abs(rL) ** 2, abs(rR) ** 2
    AL = _composed_absorption(nL, fL, pL)
    AR = _composed_absorption(nR, fR, pR)
    return -k * (abs(rL * delta + rR * tl2L * gap) ** 2 + 2.0 * w.real - aL
                 - aR + AL * (2.0 * aR + AR) + 2.0 * aL * AR) / abs(delta) ** 2


@pytest.mark.parametrize("pair", sorted(_Z_PAIRS))
def test_lean_offset_kernels_equal_their_composition(pair):
    # the grid kernels form each slab's parts once per offset of its slot;
    # composed from refractive_at, slab_fixed, slab_offset, gap_phase and
    # cavity_delta offset by offset they return the same bits, on the fig,
    # weak, mild and lossy/static pairs and the grids Z samples
    left, right, a, d = _Z_PAIRS[pair]
    for k in _LEAN_K:
        for dims in _Z_GRIDS:
            offsets = pure.grid(dims)
            assert pure.ic_brackets(k, a, d, left, right, offsets) == [
                _composed_bracket(k, a, d, left, right, o) for o in offsets]
            assert pure.vacuum_baths(k, a, d, left, right, offsets) == [
                _composed_vacuum(k, a, d, left, right, o) for o in offsets]


@pytest.mark.parametrize("pair", sorted(_Z_PAIRS))
def test_bound_bath_form_weighs_to_its_composition(pair):
    # the bath kernel bound to the cavity once, at each offset triple of the
    # grids Z samples: its weight-free parts, weighed at positive, zero and
    # negative weights (differences of occupation excesses), give the bits
    # of the kernel composed offset by offset, and a lossless pair weighs
    # to zeros
    left, right, a, d = _Z_PAIRS[pair]
    factors = pure.bath_factors_of(a, d, left, right)
    lossless = pure.bath_factors_of(a, d, STATIC, STATIC)
    for k in _LEAN_K:
        for dims in _Z_GRIDS:
            offsets = pure.grid(dims)
            for occL, occR in ((1.3, 0.7), (0.0, 2.0), (-0.4, 1.1),
                               (2.5, -3.0), (-1e-9, -0.2)):
                assert [pure.bath_weigh(factors(k, *o), occL, occR)
                        for o in offsets] == [
                    _composed_bath(k, a, d, left, right, occL, occR, o)
                    for o in offsets]
            assert [pure.bath_weigh(lossless(k, *o), 1.3, -0.7)
                    for o in offsets] == [0.0] * len(offsets)


def test_lean_offset_kernels_raise_at_an_undamped_pole():
    # the index formed in one step keeps refractive_at's pole test: at
    # omega0 of an undamped slab and within its 1e-12 relative threshold, on
    # either side, every kernel refuses, the grid kernels on three-phase and
    # diagonal grids
    from casimir1d.errors import SingularEvaluationError
    undamped = (10.0, 10.0, 0.0, False)
    for k in (10.0, 10.0 + 1e-12, 10.0 - 1e-12):
        with pytest.raises(SingularEvaluationError):
            pure.refractive_at(-1j * k, *undamped)
        for (left, right), dims in itertools.product(
                ((undamped, undamped), (undamped, MILD_R),
                 (MILD_R, undamped)), ((3, 3, 3), (1,), (6,))):
            offsets = pure.grid(dims)
            for call in (
                    lambda: pure.ic_brackets(k, 1.0, 0.4, left, right,
                                             offsets),
                    lambda: [pure.bath_factors_of(1.0, 0.4, left, right)(
                        k, *o) for o in offsets],
                    lambda: pure.vacuum_baths(k, 1.0, 0.4, left, right,
                                              offsets),
                    lambda: pure.nodiss_bracket(k, 1.0, 0.4, left, right)):
                with pytest.raises(SingularEvaluationError):
                    call()


# The one-triple forms against the grid kernels, and the bath kernel's
# against its composition: identical (fig, weak), different (mild, and fig
# with mild in fig's opaque stop band), static, empty and lossless pairs,
# and a half-space pair
UNDAMPED = (10.0, 10.0, 0.0, False)
_ONE_TRIPLE_PAIRS = {
    "fig": (FIG, FIG, 1.0, 100.0),
    "weak": (WEAK, WEAK, 1.0, 100.0),
    "mild": (MILD_L, MILD_R, 0.5, 0.4),
    "fig_mild": (FIG, MILD_R, 1.0, 100.0),
    "static": (MILD_L, STATIC, 1.0, 0.4),
    "empty": (VAC, MILD_R, 1.0, 0.4),
    "lossless": (UNDAMPED, UNDAMPED, 1.0, 0.7),
    "lossless_mild": (MILD_L, UNDAMPED, 1.0, 0.7),
    "halfspace": (MILD_L, MILD_R, 1.0, math.inf),
}
_DENSE_K = [0.0137 * i + 0.0011 for i in range(1, 3001)] + [210.0, 2900.0,
                                                              1e4, 2e4]
_SHIFTS = ((0.0, 0.0, 0.0), (0.3, 0.3, 0.0), (0.3, 1.1, 2.0), (0.0, 0.0, 4.5))


@pytest.mark.parametrize("pair", sorted(_ONE_TRIPLE_PAIRS))
def test_one_triple_forms_keep_the_bits_of_the_offset_kernels(pair):
    # each one-triple form, bound to the cavity once, returns the grid
    # kernel's value at the unshifted triple to the last bit over dense k
    # (past the opaque cut 2 k Im(n) d > 1400 on fig), the bath factors
    # weigh to the composed bath kernel's, and ic_bracket at any offsets
    # returns the value of the bracket composed offset by offset
    left, right, a, d = _ONE_TRIPLE_PAIRS[pair]
    raw = pure.grid((1,))
    z = pure.vacuum_bath_of(a, d, left, right)
    b = pure.ic_bracket_of(a, d, left, right)
    y = pure.bath_factors_of(a, d, left, right)
    for k in _DENSE_K:
        assert z(k) == pure.vacuum_baths(k, a, d, left, right, raw)[0]
        assert b(k) == pure.ic_brackets(k, a, d, left, right, raw)[0]
        assert pure.bath_weigh(y(k), 1.3, 0.7) == _composed_bath(
            k, a, d, left, right, 1.3, 0.7, raw[0])
    for k in _DENSE_K[::50]:
        for o in _SHIFTS:
            assert pure.ic_bracket(k, a, d, left, right, *o) == \
                _composed_bracket(k, a, d, left, right, o)


def test_one_triple_forms_raise_where_the_offset_kernels_do():
    # at the oscillator pole of an undamped slab, on either side, every
    # form raises the grid kernels' error, and so do Z's and the state
    # bracket's at a bound mode of the undamped pair, where the gap closes
    # the round trip of its totally reflecting stop band (|1 - rL rR
    # e^{2ika}| below DELTA_FLOOR); neither slab absorbs there, so the bath
    # factors are those of no bath
    from casimir1d.errors import CavityResonanceError, SingularEvaluationError
    forms = (pure.vacuum_bath_of, pure.ic_bracket_of, pure.bath_factors_of)
    for k in (10.0, 10.0 + 1e-12, 10.0 - 1e-12):
        for left, right in ((UNDAMPED, UNDAMPED), (UNDAMPED, MILD_R),
                            (MILD_R, UNDAMPED)):
            for form in forms:
                with pytest.raises(SingularEvaluationError):
                    form(1.0, 0.4, left, right)(k)
    k, d = 12.0, 100.0
    r = pure.slab_parts(k, pure.refractive_at(-1j * k, *UNDAMPED), d)[3]
    a = (2.0 * math.pi - cmath.phase(r * r)) / (2.0 * k)
    assert abs(1.0 - r * r * pure.gap_phase(k, a)) < pure.DELTA_FLOOR
    raw = pure.grid((1,))
    for call in (lambda: pure.vacuum_baths(k, a, d, UNDAMPED, UNDAMPED, raw),
                 lambda: pure.ic_brackets(k, a, d, UNDAMPED, UNDAMPED, raw)):
        with pytest.raises(CavityResonanceError):
            call()
    for form in forms[:2]:
        with pytest.raises(CavityResonanceError):
            form(a, d, UNDAMPED, UNDAMPED)(k)
    assert pure.bath_factors_of(a, d, UNDAMPED, UNDAMPED)(k) == \
        (None, None, (None, None, None))


def test_diagonal_loops_raise_where_the_offset_kernels_do():
    # the diagonal grids (n,) go through the same grid kernels as every
    # other grid, and refuse where the one-offset grid does: at the
    # oscillator pole of an undamped slab, on either side, and at a bound
    # mode of the undamped pair (see the test above), for every n
    from casimir1d.errors import CavityResonanceError, SingularEvaluationError
    k, d = 12.0, 100.0
    r = pure.slab_parts(k, pure.refractive_at(-1j * k, *UNDAMPED), d)[3]
    a = (2.0 * math.pi - cmath.phase(r * r)) / (2.0 * k)
    for n in (1, 2, 3, 4, 5, 6):
        for offsets in (pure.grid((1,)), pure.grid((n,))):
            for kernel in (pure.ic_brackets, pure.vacuum_baths):
                for kp in (10.0, 10.0 + 1e-12, 10.0 - 1e-12):
                    with pytest.raises(SingularEvaluationError):
                        kernel(kp, 1.0, 0.4, UNDAMPED, UNDAMPED, offsets)
                with pytest.raises(CavityResonanceError):
                    kernel(k, a, d, UNDAMPED, UNDAMPED, offsets)


# The grid kernels against the one-triple forms on every grid shape the
# four benchmark workloads ask for: the diagonals (2,) to (6,) and the
# grids (4, 4), (3, 5), (5, 5) and (3, 4) of identical slabs, and the
# grids (3, 3, 3) and (2, 2, 2) of different ones; on identical pairs
# (fig, weak, lossless, static and a half-space pair) and on the mild pair
_GRID_PAIRS = {
    "fig": (FIG, FIG, 1.0, 100.0),
    "weak": (WEAK, WEAK, 1.0, 100.0),
    "lossless": (UNDAMPED, UNDAMPED, 1.0, 0.7),
    "static": (STATIC, STATIC, 1.0, 0.7),
    "halfspace": (MILD_L, MILD_L, 1.0, math.inf),
    "mild": (MILD_L, MILD_R, 0.5, 0.4),
}
_TRAFFIC = ((2,), (3,), (4,), (5,), (6,), (4, 4), (3, 5), (5, 5), (3, 4),
            (3, 3, 3), (2, 2, 2))


@pytest.mark.parametrize("pair", sorted(_GRID_PAIRS))
def test_grid_kernels_keep_the_bits_of_the_one_triple_forms(pair):
    # the state bracket's grid kernel returns ic_bracket_of at every triple
    # and Z's returns vacuum_bath_of at the leading (0, 0, 0), bit for bit;
    # Z's grid kernel holds the zero-temperature bath kernel within 8 ulps
    # of the two assemblies' terms at every triple.  A lossless slab in its
    # stop band (n = i kappa) has no slab phase to shift: there the bath
    # side has no bath at any offset, while the state side's absorption of
    # a shifted phase is not 0, so the two are compared at (0, 0, 0) alone
    left, right, a, d = _GRID_PAIRS[pair]
    bracket = pure.ic_bracket_of(a, d, left, right)
    z = pure.vacuum_bath_of(a, d, left, right)
    for dims in _TRAFFIC:
        offsets = pure.grid(dims)
        for k in _DENSE_K[::29]:
            assert pure.ic_brackets(k, a, d, left, right, offsets) == [
                bracket(k, *o) for o in offsets]
            got = pure.vacuum_baths(k, a, d, left, right, offsets)
            assert got[0] == z(k)
            evanescent = any(pure.refractive_at(-1j * k, *m).real == 0.0
                             for m in (left, right))
            for o, v in zip(offsets[:1] if evanescent else offsets, got):
                ref = pure.bath_integrand(k, a, d, left, right, math.inf,
                                          math.inf, *o)
                assert abs(v - ref) <= 8.0 * sys.float_info.epsilon \
                    * _assembly_rounding(k, a, d, left, right, o)


def test_refractive_at_is_the_root_of_the_permittivity():
    # the index formed in one step is sqrt(permittivity_at) to the last bit
    for mat in (FIG, WEAK, MILD_L, MILD_R, STATIC, VAC,
                (10.0, 10.0, 0.0, False)):
        for k in (1e-3, 0.7, 2.5, 3.0, 9.95, 10.0 + 1e-9, 14.142, 40.0,
                  2900.0):
            for s in (-1j * k, complex(0.3 * k, -k), complex(k, 0.0)):
                assert pure.refractive_at(s, *mat) == cmath.sqrt(
                    pure.permittivity_at(s, *mat))
