"""Force integrals: dual routes, equilibrium identities, honest refusals."""

import cmath
import collections
import json
import math
import os
import random
from dataclasses import FrozenInstanceError

import pytest

from casimir1d import forces, oracles
from casimir1d.errors import (
    DeltaStateWeightError,
    NonConvergenceError,
)
from casimir1d.forces import (
    ForceBreakdown,
    band_excess_curve,
    equilibrium_matsubara,
    force_bath,
    force_delta_squeezed,
    force_dissipationless,
    force_ic,
    force_total,
    halfspace_forces,
    lifshitz_matsubara,
)
from casimir1d.kernels import core
from casimir1d.material import Material
from casimir1d.quadrature import (QuadratureSpec, integrate_interval,
                                  integrate_semiinfinite)
from casimir1d.scattering import CavityConfig
from casimir1d.states import FieldState, coth_half

MILD_L = Material(3.0, 2.0, 0.5)
MILD_R = Material(2.5, 1.5, 1.0)
FIG = Material(10.0, 10.0, 0.1)
STATIC = Material(10.0, 10.0, model="static_nd")
STATIC2 = Material(4.0, 3.0, model="static_nd")
STATIC3 = Material(1.0, 1.5, model="static_nd")
VAC_STATIC = Material(1.0, 0.0, model="static_nd")
VACM = Material(1.0, 0.0)
UNDAMPED = Material(10.0, 10.0, 0.0)

CFG = CavityConfig(1.0, 0.4, MILD_L, MILD_R)
FIG_CFG = CavityConfig(1.0, 100.0, FIG, FIG)
MIX_CFG = CavityConfig(1.0, 0.4, MILD_L, STATIC)

SPEC6 = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-10)
SPEC9 = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-13)
# The sigma grid of the docs sweep (docs/reproduce_sweep.md)
DOCS_SIGMAS = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0,
               100.0, 200.0, 400.0, 700.0]


def test_breakdown_is_frozen_and_additive():
    out = force_total(CFG, FieldState.vacuum(), 5.0, 5.0, SPEC6)
    assert isinstance(out, ForceBreakdown)
    assert out.total == out.ic + out.bath
    assert out.err_ic >= 0.0 and out.err_bath >= 0.0
    # the zero-temperature bath integral cancels from the total
    assert 0.0 < out.err_total < min(out.err_ic, out.err_bath)
    with pytest.raises(FrozenInstanceError):
        out.total = 0.0


def test_empty_materials_give_zero_force():
    cfg = CavityConfig(1.0, 0.7, VACM, VACM)
    assert force_ic(cfg, FieldState.vacuum(), SPEC6) == (0.0, 0.0)
    assert force_ic(cfg, FieldState.thermal(3.0), SPEC6) == (0.0, 0.0)
    assert force_bath(cfg, 3.0, 3.0, SPEC6) == (0.0, 0.0)
    scfg = CavityConfig(1.0, 0.7, VAC_STATIC, VAC_STATIC)
    f, err = force_dissipationless(scfg, FieldState.vacuum(), SPEC6)
    assert abs(f) <= 1e-12


def test_delta_state_routes():
    with pytest.raises(DeltaStateWeightError):
        force_ic(FIG_CFG, FieldState.squeezed_delta(5.0), SPEC6)
    with pytest.raises(ValueError):
        force_delta_squeezed(FIG_CFG, 0.0)
    with pytest.raises(ValueError):
        force_delta_squeezed(FIG_CFG, -2.0)
    assert force_delta_squeezed(CavityConfig(1.0, 0.7, VACM, VACM),
                                5.0) == 0.0
    assert force_delta_squeezed(FIG_CFG, 5.0) == pytest.approx(
        4.721274941952149, rel=1e-12)
    assert force_delta_squeezed(CFG, 2.0) == pytest.approx(
        0.426274413721317, rel=1e-12)


def test_delta_matches_narrow_band_mean():
    # the delta-line force is the sigma -> 0 limit of the band excess per
    # unit (cosh(2/sigma) - 1) * sigma: an independent quadrature route
    # (sigma much below 0.003 would overflow the cosh amplification)
    omega = 2.0
    sigma = 0.05
    (exc, _), = band_excess_curve(CFG, omega, [sigma], SPEC6)
    mean = exc / ((math.cosh(2.0 / sigma) - 1.0) * sigma)
    assert mean == pytest.approx(force_delta_squeezed(CFG, omega),
                                 rel=3e-3)


def test_squeezed_const_is_scaled_vacuum():
    f_vac, e_vac = force_ic(CFG, FieldState.vacuum(), SPEC6)
    f_sq, e_sq = force_ic(CFG, FieldState.squeezed_const(0.5), SPEC6)
    assert f_sq == pytest.approx(math.cosh(1.0) * f_vac, rel=1e-13)
    assert e_sq == pytest.approx(math.cosh(1.0) * e_vac, rel=1e-13)


@pytest.mark.parametrize("cfg", [CFG, CavityConfig(1.0, 0.7, STATIC,
                                                   STATIC2)],
                         ids=["absorbing", "lossless"])
def test_vacuum_integral_memo_is_bit_identical(cfg):
    # the zero-temperature bath integral Z is shared by every state force
    # and every bath force of one cavity; lossless pairs have none
    calls = [lambda s=s: force_ic(cfg, s, SPEC6)
             for s in (FieldState.thermal(5.0), FieldState.vacuum(),
                       FieldState.squeezed_const(0.5))]
    calls += [lambda: force_bath(cfg, 3.0, 8.0, SPEC6)]
    cold = []
    for call in calls:
        forces._vacuum_bath.cache_clear()
        cold.append(call())
    forces._vacuum_bath.cache_clear()
    absorbing = cfg is CFG
    for n, (call, want) in enumerate(zip(calls, cold)):
        assert call() == want
        info = forces._vacuum_bath.cache_info()
        assert (info.misses, info.hits) == ((1, n) if absorbing else (0, 0))


def test_vacuum_memo_keys_on_cavity_and_spec():
    vac = FieldState.vacuum()
    force_ic(CFG, vac, SPEC6)
    force_bath(CFG, 5.0, 5.0, SPEC6)
    force_ic(CFG.mirrored(), vac, SPEC6)
    force_ic(CFG, vac, SPEC6.replace(rel_tol=1e-7))
    info = forces._vacuum_bath.cache_info()
    assert (info.misses, info.hits) == (3, 1)


def test_refusals_are_not_memoized():
    # 40 panels of width 0.5 cannot reach the zero-temperature bath
    # integral's switch point; the refusal is raised afresh on every call
    # and leaves nothing behind
    tiny = SPEC6.replace(max_panels=40, panel_width=0.5)
    for _ in range(2):
        with pytest.raises(NonConvergenceError, match="max_panels"):
            force_bath(CFG, 5.0, 5.0, tiny)
        with pytest.raises(NonConvergenceError, match="max_panels"):
            force_ic(CFG, FieldState.vacuum(), tiny)
    info = forces._vacuum_bath.cache_info()
    assert (info.misses, info.hits, info.currsize) == (4, 0, 0)


def test_vacuum_memo_is_bounded():
    maxsize = forces._vacuum_bath.cache_info().maxsize
    assert maxsize is not None
    fast = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-8)
    for i in range(maxsize + 3):
        force_bath(CFG, 5.0, 5.0, fast.replace(abs_tol=1e-8 * (1.0 + i)))
    assert forces._vacuum_bath.cache_info().currsize == maxsize


def test_static_dual_routes_agree():
    for gap in (0.5, 2.0):
        for mat in (STATIC, STATIC2):
            cfg = CavityConfig(gap, 0.8, mat, mat)
            for state in (FieldState.vacuum(), FieldState.thermal(4.0)):
                f_a, _ = force_dissipationless(cfg, state, SPEC9)
                f_b, _ = force_ic(cfg, state, SPEC9)
                assert f_b == pytest.approx(f_a, rel=1e-9)
    asym = CavityConfig(1.3, 0.6, STATIC, STATIC2)
    for state in (FieldState.vacuum(), FieldState.thermal(4.0)):
        f_a, _ = force_dissipationless(asym, state, SPEC9)
        f_b, _ = force_ic(asym, state, SPEC9)
        assert f_b == pytest.approx(f_a, rel=1e-9)


def test_force_dissipationless_rejects_lossy():
    with pytest.raises(ValueError):
        force_dissipationless(CFG, FieldState.vacuum(), SPEC6)


def test_static_bath_short_circuit():
    cfg = CavityConfig(1.0, 0.7, STATIC, STATIC2)
    assert force_bath(cfg, 76.33, 76.33, SPEC6) == (0.0, 0.0)


def test_bath_requires_positive_temperatures():
    with pytest.raises(ValueError):
        force_bath(CFG, 0.0, 5.0, SPEC6)
    with pytest.raises(ValueError):
        force_bath(CFG, 5.0, -1.0, SPEC6)


def test_mixed_pair_matches_real_axis_route():
    # a lossless slab keeps reflecting at every frequency while the lossy
    # one goes transparent; the real-axis route converges only at coarse
    # tolerances, (value, err) pinned at rel_tol 1e-3 and 3e-3
    f, err = force_ic(MIX_CFG, FieldState.vacuum(), SPEC6)
    assert err < 1e-6
    for ref, ref_err in ((0.25034912667086257, 8.04661558390935e-05),
                         (0.2503951000721271, 5.791045356879211e-04)):
        assert abs(f - ref) <= err + ref_err


def test_persistent_reflection_is_detected():
    # on the mixed pair's real-axis state integrand the oscillation
    # amplitude decays only like 1/k: tight budgets are refused, not
    # truncated
    with pytest.raises(NonConvergenceError, match="persistent reflection"):
        oracles.real_axis_ic(MIX_CFG, FieldState.vacuum(), SPEC6)


def test_band_weight_overflow_names_sigma():
    with pytest.raises(NonConvergenceError, match="sigma = 0.001"):
        force_ic(CFG, FieldState.squeezed_band(0.001, 3.0), SPEC6)
    with pytest.raises(NonConvergenceError, match="sigma = 0.001"):
        band_excess_curve(CFG, 3.0, [0.5, 0.001], SPEC6)


def test_default_spec_reaches_the_mild_pair():
    # the three temperatures of the nonequilibrium mild pair, at the
    # default tolerances; the reference is the rotated zero-temperature
    # total plus both thermal excesses at tight tolerance
    cfg = CavityConfig(0.5, 0.4, MILD_L, MILD_R)
    out = force_total(cfg, FieldState.thermal(5.0), 3.0, 8.0,
                      QuadratureSpec())
    assert abs(out.total - 0.005518199379214283) <= out.err_total + 1.4e-14
    assert out.err_total < 1e-10


def test_undamped_dispersive_routes():
    cfg = CavityConfig(1.0, 0.7, UNDAMPED, UNDAMPED)
    f_vac, _ = force_ic(cfg, FieldState.vacuum(), SPEC6)
    assert f_vac == pytest.approx(0.017536209337700195, rel=1e-9)
    f_sq, _ = force_ic(cfg, FieldState.squeezed_const(0.5), SPEC6)
    assert f_sq == pytest.approx(math.cosh(1.0) * f_vac, rel=1e-13)
    # bound cavity modes sit on the real axis: the thermal-excess integral
    # cannot be rotated and is refused
    with pytest.raises(NonConvergenceError):
        force_ic(cfg, FieldState.thermal(10.0), SPEC6)
    assert force_bath(cfg, 10.0, 10.0, SPEC6) == (0.0, 0.0)


def test_pointwise_equilibrium_identity():
    # state part + bath part at a common temperature must reproduce the
    # closed-form equilibrium integrand assembled from the cavity round trip
    beta = 7.6
    cases = [
        (CFG, (0.07, 0.9, 2.3, 5.1, 11.7)),
        (FIG_CFG, (0.3, 4.9, 9.7, 12.0, 14.9, 23.0)),
    ]
    for cfg, ks in cases:
        tl = cfg.left.as_tuple()
        tr = cfg.right.as_tuple()
        a, d = cfg.gap, cfg.width
        for k in ks:
            cth = coth_half(beta, k)
            lhs = (k * cth * core.ic_bracket(k, a, d, tl, tr)
                   + core.bath_integrand(k, a, d, tl, tr, beta, beta))
            s = -1j * k
            rL = core.slab_parts(k, core.refractive_at(s, *tl), d)[3]
            rR = core.slab_parts(k, core.refractive_at(s, *tr), d)[3]
            w, delta = core.cavity_delta(rL, rR, core.gap_phase(k, a))
            rhs = 4.0 * k * cth * (abs(w) ** 2 - w.real) / abs(delta) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_equilibrium_matsubara_canary_mild():
    beta = 5.0
    f_ic, e_ic = force_ic(CFG, FieldState.thermal(beta), SPEC6)
    f_b, e_b = force_bath(CFG, beta, beta, SPEC6)
    canary, e_c = equilibrium_matsubara(CFG, beta, SPEC6)
    assert abs((f_ic + f_b) - canary) <= 5.0 * (e_ic + e_b + e_c) + 1e-9


def test_equilibrium_matsubara_canary_fig():
    beta = 76.3302
    f_ic, e_ic = force_ic(FIG_CFG, FieldState.thermal(beta), SPEC6)
    f_b, e_b = force_bath(FIG_CFG, beta, beta, SPEC6)
    canary, e_c = equilibrium_matsubara(FIG_CFG, beta, SPEC6)
    assert abs((f_ic + f_b) - canary) <= 5.0 * (e_ic + e_b + e_c)
    # the near-cancellation is the point: each part is tens of thousands of
    # times the equilibrium remainder
    assert abs(canary) < 1e-3 * abs(f_ic)


def test_mirror_swap_at_equilibrium():
    beta = 7.6
    cfg = CavityConfig(1.0, 0.6, MILD_L, FIG)
    out = force_total(cfg, FieldState.thermal(beta), beta, beta, SPEC6)
    rev = force_total(cfg.mirrored(), FieldState.thermal(beta), beta, beta,
                      SPEC6)
    budget = 3.0 * (out.err_ic + out.err_bath + rev.err_ic + rev.err_bath)
    assert abs(out.total - rev.total) <= budget
    # the split itself is direction-sensitive out of equilibrium, so do not
    # assert component-wise equality here


def test_lifshitz_trivial_and_beta_doubling():
    assert lifshitz_matsubara(VACM, FIG, 1.0, 10.0, SPEC6) == (0.0, 0.0)
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14)
    vals = {b: lifshitz_matsubara(FIG, FIG, 1.0, b, spec)[0]
            for b in (100.0, 200.0, 400.0, 800.0, 1600.0)}
    d1 = vals[200.0] - vals[100.0]
    d2 = vals[400.0] - vals[200.0]
    d3 = vals[800.0] - vals[400.0]
    assert 3.8 < d1 / d2 < 4.2 and 3.8 < d2 / d3 < 4.2
    t0 = (vals[1600.0] * 1600.0 ** 2 - vals[800.0] * 800.0 ** 2) \
        / (1600.0 ** 2 - 800.0 ** 2)
    # frozen against the independently rotated zero-temperature integral
    assert t0 == pytest.approx(0.029021400056, rel=1e-8)


def test_equilibrium_sum_on_half_spaces_is_the_lifshitz_sum():
    # slabs of infinite width reflect like their surfaces; the value is the
    # surface-reflection pole sum that lifshitz_matsubara evaluated on its own
    cfg = CavityConfig(1.0, math.inf, FIG, FIG)
    assert equilibrium_matsubara(cfg, 10.0, SPEC6)[0] == pytest.approx(
        0.02534697694167194, rel=1e-12)


@pytest.mark.parametrize("slab", [FIG, Material(10.0, 10.0, 0.0)],
                         ids=["absorbing", "lossless"])
def test_entry_points_refuse_infinite_width(slab):
    # bare half-space integrals diverge, so each entry point refuses
    # infinite width and names the grouped route
    cfg = CavityConfig(1.0, math.inf, slab, slab)
    th = FieldState.thermal(5.0)
    for call in (lambda: force_ic(cfg, th, SPEC6),
                 lambda: force_bath(cfg, 5.0, 5.0, SPEC6),
                 lambda: force_total(cfg, th, 5.0, 5.0, SPEC6)):
        with pytest.raises(NonConvergenceError, match="halfspace_forces"):
            call()


def test_halfspace_equal_temperatures_match_lifshitz(monkeypatch):
    # the half-spaces are slabs of infinite width: R plus the thermal
    # excesses, with no real-axis oscillatory integral, is the pole sum
    def refuse(*args, **kwargs):
        raise AssertionError("half-space forces ran _oscillatory_integral")

    monkeypatch.setattr(forces, "_oscillatory_integral", refuse)
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-16)
    for left, right, a, beta in ((FIG, FIG, 1.0, 76.3302),
                                 (FIG, FIG, 0.5, 10.0),
                                 (MILD_L, MILD_R, 1.0, 10.0)):
        f_ic, f_b = halfspace_forces(left, right, a, beta, beta, beta, spec)
        assert f_b == 0.0
        ref, _ = lifshitz_matsubara(left, right, a, beta, spec)
        assert f_ic == pytest.approx(ref, rel=1e-10)


def test_halfspace_out_of_equilibrium_split():
    f_ic, f_b = halfspace_forces(FIG, FIG, 1.0, 60.0, 90.0, 76.3302, SPEC6)
    assert f_b != 0.0 and math.isfinite(f_b)
    # the mismatch part vanishes continuously as the temperatures close up
    f_ic2, f_b2 = halfspace_forces(FIG, FIG, 1.0, 76.0, 76.6, 76.3302, SPEC6)
    assert abs(f_b2) < abs(f_b)


def test_halfspace_requires_absorbing_media():
    with pytest.raises(NonConvergenceError):
        halfspace_forces(STATIC, STATIC, 1.0, 10.0, 10.0, 10.0, SPEC6)


def halfspace_ic_unregularized(matL, a, beta_phi, spec):
    """Unsubtracted half-space state integral.

    The integrand k * coth(beta k / 2) * (1 + |r|^2) tends to k at large k,
    so the improper integral does not exist; the marching quadrature
    exhausts its panel budget and raises NonConvergenceError.  The
    divergence of the standalone state term is why ``halfspace_forces``
    groups it with the bath term.
    """
    tl = matL.as_tuple()

    def f(k):
        n = core.refractive_at(-1j * k, tl[0], tl[1], tl[2], tl[3])
        rn = (1.0 - n) / (1.0 + n)
        return k * coth_half(beta_phi, k) * (1.0 + abs(rn) ** 2)

    return integrate_semiinfinite(f, spec, lower=1e-12)


def test_halfspace_bare_state_integral_diverges():
    spec = SPEC6.replace(max_panels=500)
    with pytest.raises(NonConvergenceError) as exc:
        halfspace_ic_unregularized(FIG, 1.0, 76.3302, spec)
    assert exc.value.partial is not None
    assert exc.value.panels == 500


def test_band_excess_curve_matches_direct_difference():
    omega = 3.0
    f_vac, e_vac = force_ic(CFG, FieldState.vacuum(), SPEC6)
    curve = band_excess_curve(CFG, omega, [0.5, 4.0], SPEC6)
    for (exc, e_exc), sigma in zip(curve, (0.5, 4.0)):
        f_sq, e_sq = force_ic(
            CFG, FieldState.squeezed_band(sigma, omega), SPEC6)
        assert abs((f_vac + exc) - f_sq) <= max(
            5e-9, 3.0 * (e_vac + e_exc + e_sq))


def test_band_excess_curve_preserves_input_order():
    omega = 3.0
    fwd = band_excess_curve(CFG, omega, [0.5, 4.0], SPEC6)
    rev = band_excess_curve(CFG, omega, [4.0, 0.5], SPEC6)
    assert fwd[0][0] == pytest.approx(rev[1][0], rel=1e-12)
    assert fwd[1][0] == pytest.approx(rev[0][0], rel=1e-12)


def bracket_sign_scan(cfg, k_max=60.0, samples=4096):
    """Sign of the state bracket sampled over (0, k_max]: +1 or -1 when
    every sample clear of rounding noise shares one sign, 0 when signs mix
    (or nothing rises above noise)."""
    bracket = forces._bracket(cfg)
    signs = set()
    for i in range(samples):
        v = bracket(k_max * (i + 1) / samples)
        if abs(v) > 1e-13:
            signs.add(1 if v > 0.0 else -1)
    return signs.pop() if len(signs) == 1 else 0


def test_bracket_sign_scan_contract():
    # transparency resonances flip the pointwise bracket sign for every
    # slab pair, lossless or lossy: the scan reports mixed signs (0) while
    # the integrated force stays attractive
    for cfg in (CFG, FIG_CFG,
                CavityConfig(1.0, 0.7, STATIC2, STATIC2)):
        assert bracket_sign_scan(cfg) in (-1, 0, 1)
        assert bracket_sign_scan(cfg) == 0


WEAK = Material(10.0, 10.0, 1e-6)
WEAK_CFG = CavityConfig(1.0, 100.0, WEAK, WEAK)
WEAK_SPEC = QuadratureSpec(rel_tol=3e-4, abs_tol=1e-8)


def test_dense_bands_only_for_sharp_identical_slabs():
    # the fig slabs are opaque wherever their resonances would be sharp,
    # and the mild pair's slabs differ
    for cfg in (FIG_CFG, CavityConfig(0.5, 0.4, MILD_L, MILD_R), CFG):
        bks = forces._breakpoints(cfg.left, cfg.right)
        assert forces._bands(cfg, 1.3 * bks[-1])[0] == ()
    bands = forces._bands(WEAK_CFG, 1.3 * 10.0 * math.sqrt(2.0))[0]
    # below the resonance and just above the stop band
    assert len(bands) == 2
    (lo1, hi1), (lo2, hi2) = bands
    assert 9.0 < lo1 < hi1 < 10.0
    assert 10.0 * math.sqrt(2.0) < lo2 < hi2 < 15.0
    for lo, hi in bands:
        mid = 0.5 * (lo + hi)
        assert forces._kind(WEAK_CFG, mid) == 2
        assert forces._kind(WEAK_CFG, lo - 1e-3) != 2
        assert forces._kind(WEAK_CFG, hi + 1e-3) != 2


def test_slab_mean_settles_geometrically():
    f = forces._bath_integrand(WEAK_CFG, math.inf, math.inf)
    bands = forces._bands(WEAK_CFG, 1.3 * 10.0 * math.sqrt(2.0))[0]
    band_means = [(lo, hi, forces._band_bounds(f, WEAK_CFG, lo, hi)[1])
                  for lo, hi in bands]
    for k in (9.4, 9.8, 9.95, 9.99, 14.15, 14.5):
        # the sized mean of the dense band holding k
        (mean,) = [m for lo, hi, m in band_means if lo < k < hi]
        means = []
        for n in (8, 16, 32, 64, 128, 256, 512):
            means.append(sum(f(k, [(s, s, 0.0) for s in
                                   (2.0 * math.pi * i / n
                                    for i in range(n))])) / n)
        ref = means[-1]
        floor = 1e-12 * abs(ref)
        # the mean for N against 2N: each doubling shrinks the change until
        # it reaches rounding
        diffs = [abs(b - a) for a, b in zip(means[:-1], means[1:])]
        assert all(d2 < d1 or d2 < floor
                   for d1, d2 in zip(diffs[:-1], diffs[1:]))
        assert diffs[-1] < 1e-9 * abs(ref)
        assert mean(k, floor) == pytest.approx(ref, rel=1e-9)


def test_diagonal_mean_for_identical_slabs():
    # the two slab phases of identical slabs are one phase: the tail mean
    # averages the diagonal with 16 offsets, not the 64-point torus, and
    # every mean makes one integrand call per k
    calls = []

    def f(k, offsets):
        calls.append(list(offsets))
        return [math.cos(sL - sR) + math.cos(sG) for sL, sR, sG in offsets]

    assert forces._phase_average(f, 1.0, 2) == pytest.approx(1.0)
    assert len(calls) == 1 and len(calls[0]) == 16
    assert all(sl == sr for sl, sr, _ in calls[0])
    calls.clear()
    assert forces._phase_average(f, 1.0, 3) == pytest.approx(0.0, abs=1e-15)
    assert len(calls) == 1 and len(calls[0]) == 64
    # the harmonics take their diagonal offsets in one call
    calls.clear()
    forces._harmonics(f, FIG_CFG, 1.0, forces._HARM_OFFSETS)
    assert [len(c) for c in calls] == [forces._HARM_OFFSETS]
    assert all(sl == sr and sg == 0.0 for c in calls for sl, sr, sg in c)
    # the switch point reads the phase average and the harmonics at k0 from
    # one call on the average's grid, which leads with the unshifted triple
    calls.clear()
    harm = forces._dft(f(1.0, forces._PHASE_GRIDS[2]), (forces._SHIFTS,) * 2)
    assert len(calls) == 1 and calls[0][0] == (0.0, 0.0, 0.0)
    assert harm[0, 0] == pytest.approx(forces._phase_average(f, 1.0, 2))
    assert harm[1, 0] == pytest.approx(0.5)
    assert abs(harm[0, 1]) == pytest.approx(0.0, abs=1e-15)

    # the real-axis integral reads its phase axes from the cavity: identical
    # slabs are offset only on the diagonal, different slabs also off it
    loose = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-6)
    for cfg, diagonal in ((CavityConfig(1.0, 0.4, MILD_L, MILD_L), True),
                          (CFG, False)):
        calls = []
        bath = forces._bath_integrand(cfg, math.inf, math.inf)

        def rec(k, offsets, bath=bath, calls=calls):
            calls.extend((sL, sR) for sL, sR, _ in offsets)
            return bath(k, offsets)

        forces._real_axis(cfg, loose, rec)
        assert any(c != (0.0, 0.0) for c in calls)
        assert all(sl == sr for sl, sr in calls) == diagonal


def test_bound_gap_modes_located():
    modes = forces._gap_modes(WEAK_CFG)
    assert [round(km, 6) for km, _, _, _ in modes] == [11.405318, 13.462393]
    for km, w, lo, hi in modes:
        assert 1e-7 < w < 3e-7
        assert (lo, hi) == (10.0, pytest.approx(10.0 * math.sqrt(2.0)))
    poles = forces._pole_terms(WEAK_CFG, WEAK_SPEC.panel_width)
    assert [kp for kp, _, _ in poles] == [
        complex(km, -w) for km, w, _, _ in modes]
    for kp, lo, hi in poles:
        assert hi - kp.real == pytest.approx(kp.real - lo)
        assert hi - lo == pytest.approx(2.0 * forces._POLE_WINDOW * -kp.imag)
    # modes wider than a thousandth of a panel are not subtracted
    assert forces._pole_terms(FIG_CFG, WEAK_SPEC.panel_width) == []
    assert forces._pole_terms(CFG, WEAK_SPEC.panel_width) == []


def test_bound_gap_pole_is_a_zero_of_the_denominator():
    # Newton's method from the scan minima lands on the complex zero of
    # D = 1 - rL rR e^{2ika} to rounding; its half width matches |D| / |D'|
    # at the minimum of |D| on the real axis
    tl = WEAK.as_tuple()
    for (km, w, _, _), old in zip(forces._gap_modes(WEAK_CFG),
                                  (1.6608e-7, 2.0408e-7)):
        kp = complex(km, -w)
        d = 1.0 - forces._slab_refl(kp, tl, 100.0) ** 2 * cmath.exp(2j * kp)
        assert abs(d) <= 1e-14
        assert w == pytest.approx(old, rel=1e-3)


def test_gap_mode_search_survives_divergent_steps():
    # from some scan minima of thin or strongly damped slabs Newton's method
    # steps far enough below the real axis to overflow the slab exponential
    # or stalls; those minima hold no mode, and the search goes on
    for a, d, slab in ((0.3, 0.1, Material(1.0, 5.0, 1.0)),
                       (3.0, 0.1, Material(5.0, 1.0, 0.1)),
                       (0.3, 100.0, Material(5.0, 1.0, 3.0))):
        for km, w, lo, hi in forces._gap_modes(CavityConfig(a, d, slab,
                                                            slab)):
            assert lo < km < hi and w > 0.0


def test_pole_term_window_integral_is_exact():
    # the exact integral of the fitted term over its window, spread across
    # the window, matches adaptive quadrature of the term there
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-12, panel_width=1e-4)
    bath = forces._bath_integrand(WEAK_CFG, math.inf, math.inf)

    def raw(k):
        return bath(k, forces._RAW)[0]

    for kp, lo, hi in forces._pole_terms(WEAK_CFG, WEAK_SPEC.panel_width):
        # A from the integrand at k_m and k_m + w, with k_p = k_m - i w
        km, w = kp.real, -kp.imag
        amp = complex(2.0 * w * raw(km + w) - w * raw(km), w * raw(km))
        _, _, g, rounding = forces._pole_window(raw, kp, lo, hi)
        term, _ = integrate_interval(lambda k: (amp / (k - kp)).real, lo, hi,
                                     spec, breakpoints=(kp.real,))
        # g is the integrand less the term plus the exact part's mean
        mean = g(km, None) - raw(km) + (amp / (km - kp)).real
        exact = mean * (hi - lo)
        assert exact == pytest.approx(term, abs=2e-6)
        # on the window k_m +- W the dispersive part integrates to zero and
        # the Lorentzian part to 2 Im A atan(W / w)
        assert exact == pytest.approx(
            2.0 * amp.imag * math.atan(0.5 * (hi - lo) / w), rel=1e-12)
        assert 0.0 < rounding < 1e-12


def test_weak_bath_integral_skips_the_mode_spikes(monkeypatch):
    # the pole terms take the spikes, so refinement does not crowd the
    # modes: under a hundred raw calls fall within 0.1 of either
    near = []
    kernel = core.bath_integrands

    def counting(k, *args):
        if len(args[-1]) == 1 and (11.3 <= k <= 11.5 or 13.4 <= k <= 13.5):
            near.append(k)
        return kernel(k, *args)

    monkeypatch.setattr(core, "bath_integrands", counting)
    forces._vacuum_bath.cache_clear()
    try:
        forces._vacuum_bath(WEAK_CFG, WEAK_SPEC)
    finally:
        forces._vacuum_bath.cache_clear()
    assert 0 < len(near) < 100


@pytest.mark.parametrize("gamma0", [1e-7, 1e-6, 1e-5])
def test_bound_mode_areas_do_not_depend_on_damping(gamma0):
    # pi Im A: the bath feeds each mode through an absorption ~gamma
    # against a denominator ~gamma^2
    slab = Material(10.0, 10.0, gamma0)
    modes = forces._bound_modes(CavityConfig(1.0, 100.0, slab, slab),
                                WEAK_SPEC)
    assert [round(km, 4) for km, _, _ in modes] == [11.4053, 13.4624]
    for (_, area, err), ref in zip(modes, (-47.8579237, -50.0622959)):
        assert area == pytest.approx(ref, rel=1e-6)
        assert 0.0 < err < 1e-6 * abs(area)


def test_weak_pair_bath_integral_matches_direct_route():
    # the direct adaptive route gave -98.46773 +- 0.0302 at this spec
    z, ez = forces._vacuum_bath(WEAK_CFG, WEAK_SPEC)
    assert abs(z - (-98.46773)) <= ez + 0.0302
    assert ez < 0.0302


def test_bound_mode_area_survives_smaller_damping():
    # the bath feeds each bound mode through an absorption ~gamma against a
    # denominator ~gamma^2: the mode area, and Z, do not depend on gamma
    spec = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-8)
    weaker = Material(10.0, 10.0, 1e-8)
    z6, _ = forces._vacuum_bath(WEAK_CFG, spec)
    z8, e8 = forces._vacuum_bath(CavityConfig(1.0, 100.0, weaker, weaker),
                                 spec)
    assert z6 < -90.0
    assert z8 == pytest.approx(z6, rel=1e-2)
    # reference: -97.93326 +- 9.34e-2 by adaptive refinement through
    # breakpoints at k_m and k_m +- 10^j w; with the pole terms Z agrees
    # within both estimates, and its own is the tighter
    assert abs(z8 - (-97.93326)) <= e8 + 9.34e-2 and e8 < 9.34e-2


def test_dense_band_dual_route():
    spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9)
    bath = forces._bath_integrand(WEAK_CFG, math.inf, math.inf)
    dev, est = oracles.band_dual(WEAK_CFG, bath, 9.4, 9.5, spec)
    assert dev <= est
    # the whole upper dense band, whose comb is at its deepest (0.9) on the
    # lower edge, for the bath and the state integrands
    lo, hi = forces._bands(WEAK_CFG, 1.3 * 10.0 * math.sqrt(2.0))[0][1]
    assert forces._comb(WEAK_CFG, lo)[1] == pytest.approx(0.9)
    for f in (bath, forces._state_integrand(WEAK_CFG)):
        dev, est = oracles.band_dual(WEAK_CFG, f, lo, hi, spec)
        assert dev <= est


def test_shallow_band_selected_from_observables():
    # fig: below the stop band the low band runs from k -> 0 to where the
    # slab turns opaque under the resonance (e^{-2 k Im(n) d} = 1e-6);
    # above it the high band starts where the slab stops being opaque and
    # runs to the requested end
    dense, ((lo0, hi0), (lo, hi)) = forces._bands(FIG_CFG, 106.5)
    assert dense == ()
    assert lo0 == 0.0 and hi0 == pytest.approx(7.303, abs=1e-3)
    assert forces._kind(FIG_CFG, 0.5 * hi0) == 1
    assert forces._kind(FIG_CFG, hi0 + 1e-3) == 0
    assert forces._comb(FIG_CFG, hi0 + 1e-3)[0] < forces._CLEAR_MIN
    assert 16.5 < lo < 16.7 and hi == 106.5
    assert forces._kind(FIG_CFG, 0.5 * (lo + hi)) == 1
    assert forces._kind(FIG_CFG, lo - 1e-3) == 0
    assert forces._comb(FIG_CFG, lo - 1e-3)[0] < forces._CLEAR_MIN
    # a low stretch cut short of its opaque edge, which then runs from 0 to
    # k_end with no edge inside the scan, is not a band
    assert forces._bands(FIG_CFG, 5.0) == ((), ())
    # the high band cut 9 or 12 half slab periods past its start holds at
    # none of the scan points, a sixteenth of the gap period apart; it holds
    # at k_end, the last point, so its start is bisected from the point
    # before it
    for periods in (9, 12):
        k_end = lo + periods * forces._half_period(FIG_CFG, lo)
        assert k_end - lo < math.pi / (16.0 * FIG_CFG.gap)
        assert forces._bands(FIG_CFG, k_end)[1][-1] == (
            pytest.approx(lo, abs=1e-9), k_end)
    # weak pair: both shallow stretches abut a dense band, where the slab is
    # clear and its comb deep (the low one runs into it at 9.356), so
    # neither is used, for Z's switch point 1.3 x sqrt(200) or any later one
    for k_end in (1.3 * 10.0 * math.sqrt(2.0), 30.0, 100.0):
        dense, shallow = forces._bands(WEAK_CFG, k_end)
        assert shallow == ()
        start = dense[0][0]
        assert start == pytest.approx(9.356, abs=1e-3)
        assert forces._kind(WEAK_CFG, 0.5 * start) == 1
        assert forces._kind(WEAK_CFG, start - 1e-3) == 1
        assert forces._comb(WEAK_CFG, start - 1e-3)[0] >= forces._CLEAR_MIN
    # mild pairs: different slabs, or identical slabs whose phase is slow
    for cfg in (CFG, CavityConfig(0.5, 0.4, MILD_L, MILD_R),
                CavityConfig(1.0, 0.4, MILD_L, MILD_L)):
        assert forces._bands(cfg, 100.0) == ((), ())


def test_low_shallow_band_dual_route():
    # the whole low band, from k -> 0 to its opaque edge, and the part of it
    # that ends inside the clear comb, for the bath and the state integrands
    lo, hi = forces._bands(FIG_CFG, 30.0)[1][0]
    for f in (forces._bath_integrand(FIG_CFG, math.inf, math.inf),
              forces._state_integrand(FIG_CFG)):
        for x1 in (hi, 3.0):
            dev, est = oracles.band_dual(FIG_CFG, f, lo, x1, SPEC6)
            assert dev <= est


def test_real_axis_error_carries_both_shallow_band_bounds(monkeypatch):
    # fig's Z integrates the mean over both shallow bands, and each band's
    # dropped-oscillation bound joins the error
    bath = forces._bath_integrand(FIG_CFG, math.inf, math.inf)
    z, ez = forces._real_axis(FIG_CFG, SPEC6, bath)
    bounds = forces._band_bounds
    monkeypatch.setattr(forces, "_band_bounds", lambda *args: (
        (1.0,) + bounds(*args)[1:]))
    z1, ez1 = forces._real_axis(FIG_CFG, SPEC6, bath)
    assert z1 == z
    assert ez1 - ez == pytest.approx(2.0, abs=1e-4)


def test_band_excess_ladder_takes_the_low_band(monkeypatch):
    # windows around omega = 5 end inside the clear comb of the low band
    # [0, 7.303]: the strips integrate the slab-phase mean there and each
    # window adds the signed edge terms at its part's ends, so no bare
    # integrand is evaluated inside the band, and the narrowest window's
    # estimate is set by the third-order variation (5.7056e-4 raw)
    state = forces._state_integrand
    lo, hi = forces._bands(FIG_CFG, 355.0)[1][0]
    raw = []

    def recording(cfg):
        f = state(cfg)

        def rec(k, offsets):
            if len(offsets) == 1 and lo < k < hi:
                raw.append(k)
            return f(k, offsets)
        return rec

    monkeypatch.setattr(forces, "_state_integrand", recording)
    out = band_excess_curve(FIG_CFG, 5.0, DOCS_SIGMAS, SPEC6)
    assert raw == []
    assert out[0][1] < 5.7056e-5


def test_band_excess_ladder_is_honest_below_the_resonance():
    # Reference: the window [2.5, 7.5] of k * bracket by integrate_interval
    # on 0.003-wide panels at rel_tol 1e-10 and abs_tol 1e-14
    # (22.016340417216593 +- 2.4e-13).  A raw strip [6.5, 7.5] on pi/2
    # panels aliased about 200 slab half-periods and missed it by 2.34 times
    # the window's estimate
    exc, err = band_excess_curve(FIG_CFG, 5.0, [2.0, 5.0], SPEC6)[-1]
    assert abs(exc - (math.cosh(0.4) - 1.0) * 22.016340417216593) <= err
    # every cell of the docs ladder against the benchmark's reference
    # excesses (the raw strips' worst cell read 0.90 of its estimate)
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "reference.json")
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)["sweep_docs"]
    assert ref["omega_center"] == 5.0 and ref["sigmas"] == DOCS_SIGMAS
    out = band_excess_curve(FIG_CFG, 5.0, DOCS_SIGMAS, SPEC6)
    for (exc, err), (want, _) in zip(out, ref["band_excess"]):
        assert abs(exc - want) <= err


def test_shallow_bound_counts_both_signs_of_each_harmonic():
    # h_-j is the conjugate of h_j: half the bound (one sign of j) does not
    # cover the state integrand's dropped oscillation from the band's start
    # (that the full bound covers it is the verify check
    # shallow_band_dual_pipeline)
    f = forces._state_integrand(FIG_CFG)
    lo = forces._bands(FIG_CFG, 30.0)[1][-1][0]
    dev, _ = oracles.band_dual(FIG_CFG, f, lo, 30.0, SPEC6)
    bound = forces._band_bounds(f, FIG_CFG, lo, 30.0)[0]
    assert dev > 0.5 * bound


def _both_integrands(cfg):
    """The bath and the state integrands of ``cfg``."""
    return (forces._bath_integrand(cfg, math.inf, math.inf),
            forces._state_integrand(cfg))


@pytest.mark.parametrize("cfg, k, rho", [
    (FIG_CFG, 3.0, 0.0866), (WEAK_CFG, 9.45, 0.5244),
    (WEAK_CFG, 9.9, 0.7292)], ids=["fig-3", "weak-9.45", "weak-9.9"])
def test_pole_radius_matches_the_measured_harmonic_decay(cfg, k, rho):
    # sqrt|h_{j+2} / h_j| from 256 diagonal samples, over the harmonics
    # clear of rounding, for the bath and the state integrands
    assert forces._pole_radius(cfg, k) == pytest.approx(rho, abs=1e-4)
    for f in _both_integrands(cfg):
        h = forces._harmonics(f, cfg, k, 256)[1:]
        ratios = [math.sqrt(abs(h[j + 2] / h[j])) for j in range(60)
                  if abs(h[j + 2]) > 2e-12 * k]
        assert len(ratios) >= 8
        assert all(0.85 * rho < r < 1.2 * rho for r in ratios)
        mean_log = math.fsum(map(math.log, ratios)) / len(ratios)
        assert math.exp(mean_log) == pytest.approx(rho, rel=0.06)


def test_harmonic_amplitude_bounds_the_measured_harmonics():
    # on the grids of fig's band bounds, C j rho^j with C read from the
    # sized 2J + 2 samples bounds every harmonic j <= 40 of a 128-sample DFT,
    # up to the rounding floor
    for f in _both_integrands(FIG_CFG):
        for lo, hi in forces._bands(FIG_CFG, 106.5)[1]:
            m = math.ceil(forces._HARM_GRID * (hi - lo) * FIG_CFG.gap
                          / math.pi)
            for i in range(m + 1):
                k = lo + (hi - lo) * i / m
                rho = forces._pole_radius(FIG_CFG, k)
                _, harm, c = forces._sized_harmonics(f, FIG_CFG, k, rho)
                assert 2 * len(harm) + 2 <= forces._HARM_OFFSETS
                floor = forces._MEAN_NOISE * forces._NOISE_EPS * k
                ref = forces._harmonics(f, FIG_CFG, k, 128)[1:]
                assert all(abs(h) <= c * j * rho ** j + 2.0 * floor
                           for j, h in enumerate(ref[:40], 1))


def test_sized_mean_is_within_half_its_tolerance():
    # in both of fig's bands, at Z's tolerance and near the rounding floor,
    # against the mean of 256 offsets
    rng = random.Random(7)
    for f in _both_integrands(FIG_CFG):
        for lo, hi in forces._bands(FIG_CFG, 106.5)[1]:
            mean = forces._band_bounds(f, FIG_CFG, lo, hi)[1]
            for tol in (2e-8, 1e-11):
                for _ in range(30):
                    k = rng.uniform(lo, hi)
                    ref = sum(f(k, forces._diagonal(forces._even(256))))
                    assert abs(mean(k, tol) - ref / 256) <= 0.5 * tol
    # in the weak pair's dense bands, where rho reaches 0.945, against the
    # mean of 4,096 offsets.  Below tol 1e-10 the state integrand's means
    # level off at the rounding of its evaluation, 1e-12 to 7e-12
    for f in _both_integrands(WEAK_CFG):
        for lo, hi in forces._bands(WEAK_CFG,
                                    1.3 * 10.0 * math.sqrt(2.0))[0]:
            mean = forces._band_bounds(f, WEAK_CFG, lo, hi)[1]
            for _ in range(15):
                k = rng.uniform(lo, hi)
                ref = sum(f(k, forces._diagonal(forces._even(4096)))) / 4096
                for tol in (1e-7, 1e-9):
                    assert abs(mean(k, tol) - ref) <= 0.5 * tol


def test_band_route_follows_the_pole_radius():
    calls = []

    def recording(f):
        def rec(k, offsets):
            calls.append(len(offsets))
            return f(k, offsets)
        return rec

    # fig's shallow bands: at most 32 samples per grid point, and one call
    # per mean
    f = forces._bath_integrand(FIG_CFG, math.inf, math.inf)
    for lo, hi in forces._bands(FIG_CFG, 106.5)[1]:
        calls.clear()
        mean = forces._band_bounds(recording(f), FIG_CFG, lo, hi)[1]
        assert max(calls) <= forces._HARM_OFFSETS
        assert min(calls) < forces._HARM_OFFSETS
        calls.clear()
        mean(0.5 * (lo + hi), 1e-10)
        assert len(calls) == 1
        _assert_means_reused(mean, 0.5 * (lo + hi), 1e-10, calls)
    # the weak pair's dense bands have pole radii from 0.28 to 0.94, above
    # _RHO_MAX: 32 samples at every grid point, and one call per mean
    f = forces._bath_integrand(WEAK_CFG, math.inf, math.inf)
    bands = forces._bands(WEAK_CFG, 1.3 * 10.0 * math.sqrt(2.0))[0]
    assert len(bands) == 2
    for lo, hi in bands:
        rhos = [forces._pole_radius(WEAK_CFG, lo + (hi - lo) * i / 64)
                for i in range(65)]
        assert forces._RHO_MAX < min(rhos) and max(rhos) < 1.0
        calls.clear()
        mean = forces._band_bounds(recording(f), WEAK_CFG, lo, hi)[1]
        assert set(calls) == {forces._HARM_OFFSETS}
        calls.clear()
        mean(0.5 * (lo + hi), 1e-9)
        assert len(calls) == 1
        _assert_means_reused(mean, 0.5 * (lo + hi), 1e-9, calls)


def _assert_means_reused(mean, k, tol, calls):
    """After one call ``mean(k, tol)`` recorded in ``calls``: the same mean
    again costs no kernel call, and one at a tighter tolerance that sizes
    more offsets costs exactly one."""
    mean(k, tol)
    assert len(calls) == 1
    while len(calls) == 1:
        tol *= 0.1
        mean(k, tol)
    assert len(calls) == 2 and calls[1] > calls[0]


def _offset_points(monkeypatch, cfg, spec):
    """Bath-integrand offset points of Z for ``cfg`` at ``spec``."""
    points = []
    kernel = core.bath_integrands

    def counting(*args):
        points.append(len(args[-1]))
        return kernel(*args)

    monkeypatch.setattr(core, "bath_integrands", counting)
    forces._vacuum_bath.cache_clear()
    try:
        forces._vacuum_bath(cfg, spec)
    finally:
        forces._vacuum_bath.cache_clear()
    return sum(points)


def test_fig_bath_integral_offset_points(monkeypatch):
    # the sized means and harmonics, the switch point near 40 with its edge
    # terms, and the one-panel mapped tail hold fig's Z to at most 5,000
    # bath-integrand offset points (10,909 with the probe march to 106.5)
    assert _offset_points(monkeypatch, FIG_CFG, SPEC6) <= 5000


def test_fig_switch_point_sits_below_50(monkeypatch):
    # the switch point follows the closed-form decay ratios from k0 = 1.3 x
    # sqrt(200); the probe march put it at 106.5
    seen = []
    switch = forces._switch

    def recording(*args):
        out = switch(*args)
        seen.append(out[0])
        return out

    monkeypatch.setattr(forces, "_switch", recording)
    forces._vacuum_bath.cache_clear()
    try:
        forces._vacuum_bath(FIG_CFG, SPEC6)
    finally:
        forces._vacuum_bath.cache_clear()
    (K,) = seen
    assert 1.3 * 10.0 * math.sqrt(2.0) < K < 50.0


def test_docs_switch_point_is_the_first_rung_that_fits():
    # the docs cavity's state integrand (the sigma ladder's): K is the first
    # rung k0 2^(i/8) whose measured edge error fits the tail's share, here
    # k0 2^(1/2) = 26.0, while its gap harmonic still rises towards k = 32
    f = forces._state_integrand(FIG_CFG)
    axes = forces._phase_axes(FIG_CFG)
    edges = forces._above_edges(f, FIG_CFG, axes)
    K, _, err, budget = forces._switch(f, SPEC6, FIG_CFG, axes, edges)
    share = 0.25 * budget
    assert K == pytest.approx(26.0, abs=1e-9)
    assert err <= share
    k = forces._first_switch(SPEC6, FIG_CFG)
    assert K == pytest.approx(k * 2.0 ** 0.5)
    while k < K:
        assert edges(k)[1] > share
        k *= forces._LADDER
    assert k == K
    # the phase average plus the edge terms from K on matches raw quadrature
    dev, est = oracles.tail_dual(FIG_CFG, f, 106.5, SPEC6)
    assert dev <= est


@pytest.mark.parametrize("cfg, terms", [
    (CavityConfig(1.0, 2.0, STATIC, STATIC),
     {(1, 0): 0.3, (0, 1): 0.2, (1, -1): 0.1, (2, 1): 0.05}),
    (CavityConfig(1.0, 2.0, STATIC, STATIC2),
     {(1, 0, 0): 0.2, (0, 1, -1): 0.1, (1, -1, 1): 0.05, (0, 0, 2): 0.3}),
    (CavityConfig(1.0, 2.0, STATIC3, STATIC3),
     {(1, 0): 0.3, (0, 1): 0.2, (4, 0): 0.1, (0, 4): 0.1, (4, 1): 0.05})],
    ids=["two-axis", "three-axis", "kept-by-the-average"])
def test_edge_terms_match_the_dropped_harmonics(cfg, terms):
    # a mean k^-3 plus harmonics c_j e^{-mu k} cos(j . (phi + s)) on the
    # phase grid (gap and common slab phase of identical slabs; both slab
    # phases and the gap phase of different ones), all linear in k for
    # static slabs: -S(x) is the integral over [x, inf) of the harmonics
    # the phase average drops, those with an index off the multiples of
    # _SHIFTS, sum of c_j Re[e^{(i w_j - mu) x} / (mu - i w_j)],
    # w_j = j . phi'.  STATIC3's phases fall like 0.39 (gap) and 0.29
    # (slab), so the edge terms sample them past the fourth harmonic,
    # which the average keeps.
    axes = forces._phase_axes(cfg)
    mu = 0.1

    def f(k, offsets):
        phases = forces._phases(cfg, axes, k)[0]
        out = []
        for off in offsets:
            shifted = [p + off[slots[0]] for p, (slots, _) in
                       zip(phases, axes)]
            out.append(k ** -3 + sum(
                c * math.exp(-mu * k)
                * math.cos(sum(a * b for a, b in zip(j, shifted)))
                for j, c in terms.items()))
        return out

    rates = forces._phases(cfg, axes, 1.0)[1]
    for x in (20.0, 30.0):
        dropped = 0.0
        for j, c in terms.items():
            if any(i % forces._SHIFTS for i in j):
                w = sum(a * b for a, b in zip(j, rates))
                dropped += c * (cmath.exp(complex(-mu, w) * x)
                                / complex(mu, -w)).real
        s, err, _ = forces._above_edges(f, cfg, axes)(x)
        assert abs(s - dropped) <= err
        assert err < 0.02 * abs(dropped)


def test_edge_terms_cover_a_rising_last_order():
    # one gap harmonic c g(k) cos(w k + s), g = k^4 e^{-mu k}, of a cavity
    # of vacuum slabs (the integrand ignores the slab phase): at x = 62 its
    # last order sigma_2 = h'' / (i w)^3, h = c g / 2, is near a zero of g''
    # and rises to a peak near k = 85 before it falls, so its variation
    # past x, c / w^3 times the variation of g'', is over five times
    # 2 |sigma_2(x)|; the error of S takes the variation along the ladder
    # past x and covers it to within the ladder's sampling of the peak
    cfg = CavityConfig(1.0, 0.5, VACM, VACM)
    axes = forces._phase_axes(cfg)
    mu, c, w, x = 0.1, 1e-4, 2.0, 62.0

    def f(k, offsets):
        return [k ** -3 + c * k ** 4 * math.exp(-mu * k) * math.cos(w * k + sg)
                for _, _, sg in offsets]

    def g2(k):
        return k * k * math.exp(-mu * k) * (12.0 - 8.0 * mu * k
                                            + (mu * k) ** 2)

    a = complex(-mu, w)
    dropped = -c * (cmath.exp(a * x) * sum(
        (-1) ** n * math.factorial(4) / math.factorial(4 - n)
        * x ** (4 - n) / a ** (n + 1) for n in range(5))).real
    ks = [x + 0.05 * i for i in range(20000)]
    variation = c / w ** 3 * sum(abs(g2(k1) - g2(k0))
                                 for k0, k1 in zip(ks, ks[1:]))
    s, err, _ = forces._above_edges(f, cfg, axes)(x)
    assert variation > 5.0 * c * abs(g2(x)) / w ** 3
    assert abs(s - dropped) <= err
    assert err >= 0.9 * variation


def test_weak_bath_integral_builds_each_dense_band_once(monkeypatch):
    # both passes integrate the sized means of one bound per dense band,
    # the coarse pass at its own target, holding weak Z to at most 10,000
    # bath-integrand offset points; the bands are found once, at the
    # switch point k0 = K = 1.3 x sqrt(200), while fig Z, whose switch
    # point lies past k0, finds them again at K
    points, built, scans = [], [], []
    kernel, bounds, bands = (core.bath_integrands, forces._band_bounds,
                             forces._bands)

    def counting(*args):
        points.append(len(args[-1]))
        return kernel(*args)

    def building(*args):
        built.append(args[2:])
        return bounds(*args)

    def scanning(cfg, k_end, kinds):
        scans.append(k_end)
        return bands(cfg, k_end, kinds)

    monkeypatch.setattr(core, "bath_integrands", counting)
    monkeypatch.setattr(forces, "_band_bounds", building)
    monkeypatch.setattr(forces, "_bands", scanning)
    forces._vacuum_bath.cache_clear()
    try:
        forces._vacuum_bath(WEAK_CFG, WEAK_SPEC)
        assert sum(points) <= 10000
        k0 = 1.3 * 10.0 * math.sqrt(2.0)
        assert scans == [pytest.approx(k0)]
        assert built == list(bands(WEAK_CFG, k0)[0])
        scans.clear()
        forces._vacuum_bath(FIG_CFG, SPEC6)
        assert len(scans) == 2 and scans[0] < scans[1]
    finally:
        forces._vacuum_bath.cache_clear()


def test_fig_bath_integral_classifies_each_point_once(monkeypatch):
    # fig Z's switch point lies past k0, so it scans its bands again up
    # to K; that scan reuses the grid points and edges of the scan to k0,
    # classifying no point twice, and finds the bands a fresh scan finds
    kind, seen = forces._kind, []

    def classifying(cfg, k):
        seen.append(k)
        return kind(cfg, k)

    monkeypatch.setattr(forces, "_kind", classifying)
    forces._vacuum_bath.cache_clear()
    try:
        forces._vacuum_bath(FIG_CFG, SPEC6)
    finally:
        forces._vacuum_bath.cache_clear()
    assert seen and len(seen) == len(set(seen))
    kinds = {}
    k0 = 1.3 * 10.0 * math.sqrt(2.0)
    assert forces._bands(FIG_CFG, k0, kinds) == forces._bands(FIG_CFG, k0)
    assert forces._bands(FIG_CFG, 106.5, kinds) == forces._bands(FIG_CFG,
                                                                 106.5)


@pytest.mark.parametrize("gamma0, width", [(1e-3, 40.0), (1e-4, 100.0)])
def test_low_shallow_band_ends_where_the_slab_turns_opaque(gamma0, width):
    # at gap 0.5 the slabs of these pairs turn opaque just below omega0 =
    # 10; a low shallow band run on to omega0, where the pole radius is 0,
    # made the band bound divide by zero.  The force matches the Matsubara
    # sum within its estimate
    mat = Material(10.0, 10.0, gamma0)
    cfg = CavityConfig(0.5, width, mat, mat)
    beta = 76.3302
    out = force_total(cfg, FieldState.thermal(beta), beta, beta, WEAK_SPEC)
    ref, _ = equilibrium_matsubara(cfg, beta, WEAK_SPEC)
    assert math.isfinite(out.total)
    assert abs(out.total - ref) <= out.err_ic + out.err_bath
    lo, hi = forces._bands(cfg, 1.3 * 10.0 * math.sqrt(2.0))[1][0]
    assert lo == 0.0 and hi < 10.0
    assert forces._pole_radius(cfg, lo) > 0.0
    assert forces._pole_radius(cfg, hi) > 0.0
    if gamma0 == 1e-3:
        assert hi == pytest.approx(9.8999, abs=1e-4)


@pytest.mark.parametrize("sigmas", [
    (100.0,), (20.0, 50.0, 100.0),
    tuple(10.0 * i for i in range(1, 11))])
def test_band_excess_strips_are_honest_in_the_shallow_band(sigmas):
    # Reference: the window integral of k * bracket over [0, 55] by
    # integrate_interval on 0.01-wide panels (a third of a slab period) with
    # abs_tol 1e-14, at rel_tol 1e-8 (713.5062306920 +- 1.4e-6) and 1e-10
    # (713.5062306920 +- 7.0e-8).  Raw strips on pi/2 panels alias about 50
    # slab periods per panel; the ladder's strip [30, 55] then missed the
    # reference by 1.1e-3 against an estimate of 6.5e-4.
    ref = 713.5062306920
    fac = math.cosh(2.0 / 100.0) - 1.0
    exc, err = band_excess_curve(FIG_CFG, 5.0, list(sigmas), SPEC6)[-1]
    assert abs(exc / fac - ref) <= err / fac


NONEQ_CFG = CavityConfig(0.5, 0.4, MILD_L, MILD_R)
NONEQ_SPEC = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12)


@pytest.mark.parametrize("cfg, spec", [
    (FIG_CFG, SPEC6), (WEAK_CFG, WEAK_SPEC), (NONEQ_CFG, NONEQ_SPEC)],
    ids=["fig", "weak", "mild"])
def test_bath_integral_evaluates_each_point_once(monkeypatch, cfg, spec):
    # the direct pass below the switch point reuses every raw value and
    # every sized band mean of the coarse pass, so no kernel call repeats
    # a (k, offsets) pair; that holds weak Z, whose direct pass repeated
    # 2,620 of its 8,742 offset points, to at most 6,500
    seen = collections.Counter()
    kernel = core.bath_integrands

    def counting(*args):
        seen[args[0], tuple(args[-1])] += 1
        return kernel(*args)

    monkeypatch.setattr(core, "bath_integrands", counting)
    forces._vacuum_bath.cache_clear()
    try:
        forces._vacuum_bath(cfg, spec)
    finally:
        forces._vacuum_bath.cache_clear()
    assert seen and max(seen.values()) == 1
    if cfg is WEAK_CFG:
        assert sum(len(offsets) for _, offsets in seen) <= 6500


def test_mild_bath_integral_offset_points(monkeypatch):
    # k0 = 4 gap periods rather than 1.3 (omega0 + 100 gamma0), the switch
    # point near 50 rather than 213 and the mapped tail's 15 phase averages
    # of 64 offsets hold mild's Z to at most 3,000 offset points (7,712
    # with the probe march)
    assert _offset_points(monkeypatch, NONEQ_CFG, NONEQ_SPEC) <= 3000


def _recorded_tail(monkeypatch, run):
    """``(averaged, K, spec, (value, err), ks)`` of the one averaged tail
    that ``run()`` integrates, with ``ks`` the k at which it evaluated the
    phase average."""
    seen = []
    tail = forces._averaged_tail

    def recording(averaged, K, spec):
        ks = []

        def traced(k):
            ks.append(k)
            return averaged(k)
        out = tail(traced, K, spec)
        seen.append((averaged, K, spec, out, ks))
        return out

    monkeypatch.setattr(forces, "_averaged_tail", recording)
    forces._vacuum_bath.cache_clear()
    try:
        run()
    finally:
        forces._vacuum_bath.cache_clear()
    (rec,) = seen
    return rec


def _tail_reference(averaged, K, k_end, abs_tol, noisy):
    """Integral of ``averaged`` over [K, inf) and its error: panels
    doubling in k up to ``k_end`` at rel_tol 1e-12 or ``abs_tol`` each,
    plus C / (2 k^2) past k_end with C = k^3 averaged(k) measured there.  A
    ``noisy`` integrand floors each panel's tolerance at, and adds to the
    error, its rounding noise _NOISE_EPS * k summed over the panel."""
    val = err = 0.0
    lo = K
    while lo < k_end:
        hi = min(2.0 * lo, k_end)
        noise = forces._NOISE_EPS * hi * (hi - lo) if noisy else 0.0
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=max(noise, abs_tol),
                              panel_width=0.5 * (hi - lo), max_panels=4000)
        v, e = forces.integrate_interval(averaged, lo, hi, spec)
        val += v
        err += e + noise
        lo = hi
    return val + 0.5 * averaged(k_end) * k_end, err


# Each averaged tail, the depth of its reference and whether the reference
# must allow for rounding noise.  The bath integrands' noise is far below
# _NOISE_EPS * k; the state integrand's is close to it, since its O(1)
# bracket terms cancel, and swamps its k^-3 mean past a few 1e4 (the mean
# reads exactly 0 by k = 1e6), so its reference stops at 2e4.
_TAILS = {
    "fig-bath": (lambda: forces._vacuum_bath(FIG_CFG, SPEC6), 1e6, False),
    "mild-bath": (lambda: forces._vacuum_bath(NONEQ_CFG, NONEQ_SPEC), 1e6,
                  False),
    "weak-bath": (lambda: forces._vacuum_bath(WEAK_CFG, WEAK_SPEC), 1e6,
                  False),
    "fig-state": (lambda: forces._real_axis(
        FIG_CFG, SPEC6, forces._state_integrand(FIG_CFG)), 2e4, True),
}


@pytest.mark.parametrize("name", sorted(_TAILS))
def test_mapped_tail_matches_geometric_panels(monkeypatch, name):
    # one Gauss-Kronrod panel on t = (K/k)^2: 15 phase averages, the deepest
    # at about 15 K, within its estimate of a reference that integrates the
    # average on k itself, each of its panels to a thousandth of the tail's
    # tolerance
    run, k_end, noisy = _TAILS[name]
    averaged, K, spec, (v, e), ks = _recorded_tail(monkeypatch, run)
    assert len(ks) == 15
    assert K < min(ks) and max(ks) < 16.0 * K
    ref, ref_err = _tail_reference(averaged, K, k_end, 1e-3 * spec.abs_tol,
                                   noisy)
    assert abs(v - ref) <= e + ref_err


def test_tail_noise_model_holds_where_the_tail_samples(monkeypatch):
    # the noise of the phase-averaged bath and state integrands, estimated
    # from fourth differences at step 1e-7 k (the stencil multiplies
    # independent errors of size s by sqrt(70) in the rms), stays within
    # _NOISE_EPS * k up to the deepest k the mapped tail samples
    for cfg, spec, naxes in ((FIG_CFG, SPEC6, 2),
                             (NONEQ_CFG, NONEQ_SPEC, 3)):
        *_, ks = _recorded_tail(monkeypatch,
                                lambda: forces._vacuum_bath(cfg, spec))
        monkeypatch.undo()
        for f in _both_integrands(cfg):
            for k in (1e2, 1e3, max(ks)):
                h = 1e-7 * k
                d4 = []
                for j in range(8):
                    x = k * (1.0 + 1e-5 * j)
                    v = [forces._phase_average(f, x + i * h, naxes)
                         for i in range(-2, 3)]
                    d4.append(v[0] - 4.0 * v[1] + 6.0 * v[2] - 4.0 * v[3]
                              + v[4])
                noise = math.sqrt(math.fsum(y * y for y in d4) / (70.0 * 8))
                assert noise <= forces._NOISE_EPS * k


@pytest.mark.parametrize("cfg, spec, z_old, ez_old", [
    (FIG_CFG, SPEC6, -865.1878674367014, 9.671569699974061e-4),
    (NONEQ_CFG, NONEQ_SPEC, -1.8082571305446087, 6.234011840429912e-09),
    (WEAK_CFG, WEAK_SPEC, -98.46362958677915, 0.02890165749915292)],
    ids=["fig", "mild", "weak"])
def test_bath_integral_moves_within_its_estimate(cfg, spec, z_old, ez_old):
    # Z with the probe-marched switch point and the first-order bound on the
    # oscillation dropped there: the switch point from the decay ratios,
    # with the signed edge terms, moves it only within its estimate, and
    # the estimate does not rise
    forces._vacuum_bath.cache_clear()
    z, ez = forces._vacuum_bath(cfg, spec)
    forces._vacuum_bath.cache_clear()
    assert ez <= ez_old
    assert abs(z - z_old) <= ez


def test_failing_tail_names_its_stage():
    # a mean decaying like 1/k maps to 1/(2t) on t = (K/k)^2, whose integral
    # diverges logarithmically; the tail gives up within its panel cap and
    # carries the integral below K
    def slow(k, offsets):
        return [1.0 / (1.0 + k)] * len(offsets)

    with pytest.raises(NonConvergenceError,
                       match="averaged tail past K = ") as exc:
        forces._oscillatory_integral(slow, SPEC6, (),
                                     CavityConfig(1.0, 0.5, VACM, VACM))
    assert exc.value.panels <= forces._MAX_TAIL_PANELS
    assert exc.value.partial > 0.0


def test_bath_excess_takes_one_kernel_pass(monkeypatch):
    # the bath integrand is linear in the occupations, so the excess over
    # its zero-temperature value is one weighted kernel call per node (and
    # one for the endpoint check), with Z memoized
    forces._vacuum_bath(NONEQ_CFG, NONEQ_SPEC)
    calls, nodes = [], []
    weighted, interval = core.bath_weighted, forces.integrate_interval

    def counting(*args):
        calls.append(args[0])
        return weighted(*args)

    def tracing(f, *args, **kw):
        def g(k):
            nodes.append(k)
            return f(k)
        return interval(g, *args, **kw)

    monkeypatch.setattr(core, "bath_weighted", counting)
    monkeypatch.setattr(forces, "integrate_interval", tracing)
    forces._bath_parts(NONEQ_CFG, 3.0, 8.0, NONEQ_SPEC)
    assert nodes and len(calls) == len(nodes) + 1


def test_bath_excess_matches_hot_minus_cold():
    # the excess weights 2 / (e^{beta k} - 1) against the difference of two
    # full evaluations where that still resolves them, and past beta k ~ 37,
    # where coth(beta k / 2) rounds to 1 and the difference to zero
    a, d = NONEQ_CFG.gap, NONEQ_CFG.width
    tl, tr = MILD_L.as_tuple(), MILD_R.as_tuple()

    def excess(k, bl, br):
        return core.bath_weighted(k, a, d, tl, tr,
                                  core.occupation_excess(bl, k),
                                  core.occupation_excess(br, k),
                                  forces._RAW)[0]

    for bl, br in ((3.0, 8.0), (8.0, 3.0), (5.0, 5.0)):
        for k in (0.01, 0.3, 1.0, 1.7, 2.9, 3.6):
            if max(bl, br) * k >= 30.0:
                continue
            hot = core.bath_integrand(k, a, d, tl, tr, bl, br)
            cold = core.bath_integrand(k, a, d, tl, tr, math.inf, math.inf)
            assert abs(excess(k, bl, br) - (hot - cold)) <= 1e-13 * abs(hot)
    k = 40.0 / 5.0
    hot = core.bath_integrand(k, a, d, tl, tr, 5.0, 5.0)
    assert hot == core.bath_integrand(k, a, d, tl, tr, math.inf, math.inf)
    assert excess(k, 5.0, 5.0) != 0.0


@pytest.mark.parametrize("cfg, beta_state, baths, spec", [
    (FIG_CFG, 76.3302, (76.3302, 76.3302), SPEC6),
    (NONEQ_CFG, 5.0, (3.0, 8.0), NONEQ_SPEC)], ids=["fig", "mild"])
def test_total_keeps_only_the_rounding_of_z(monkeypatch, cfg, beta_state,
                                           baths, spec):
    # Z enters the state part with a minus sign and the bath part with a
    # plus sign, so a shift of Z by 1e-9 |Z| moves the total by no more than
    # the rounding allowance that err_total carries for it
    state = FieldState.thermal(beta_state)
    base = force_total(cfg, state, *baths, spec).total
    z, ez = forces._vacuum_bath(cfg, spec)
    for shift in (1e-9, -1e-9):
        moved = (z + shift * abs(z), ez)
        monkeypatch.setattr(forces, "_vacuum_bath", lambda c, s: moved)
        total = force_total(cfg, state, *baths, spec).total
        assert abs(total - base) <= forces._CANCEL_ROUNDING * abs(z)
