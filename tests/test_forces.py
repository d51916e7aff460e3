"""Force integrals: dual routes, equilibrium identities, honest refusals."""

import cmath
import collections
import itertools
import json
import math
import os
import random
from dataclasses import FrozenInstanceError

import pytest

from casimir1d import forces, oracles
from casimir1d.errors import (
    DeltaStateWeightError,
    NaNIntegrandError,
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
_RAW = ((0.0, 0.0, 0.0),)


def _count_points(monkeypatch, name, record):
    """Wrap the one-triple form ``core.<name>`` (``vacuum_bath_of``,
    ``ic_bracket_of`` or ``bath_factors_of``) so that each point that a
    cavity bound through it evaluates first calls ``record(k)``."""
    bind = getattr(core, name)

    def binding(*cavity):
        point = bind(*cavity)

        def counted(k, *shifts):
            record(k)
            return point(k, *shifts)
        return counted
    monkeypatch.setattr(core, name, binding)


def _count_z_points(monkeypatch, record):
    """Wrap Z's kernels, the offset kernel ``core.vacuum_baths`` and its
    one-triple form ``core.vacuum_bath_of``, so that each of their calls
    first calls ``record(k, offsets)``, with the one triple (0, 0, 0) for a
    single point."""
    kernel = core.vacuum_baths

    def counting(k, *args):
        record(k, args[-1])
        return kernel(k, *args)
    monkeypatch.setattr(core, "vacuum_baths", counting)
    _count_points(monkeypatch, "vacuum_bath_of", lambda k: record(k, _RAW))


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


def test_rotated_total_and_state_excess_are_memoized(monkeypatch):
    # the mild pair's two force_total calls share the field state: the
    # second computes only the bath excess, bit-identically, and a state
    # excess that raises is refused afresh and not memoized
    state = FieldState.thermal(5.0)
    first = force_total(NONEQ_CFG, state, 3.0, 8.0, NONEQ_SPEC)
    calls = collections.Counter()
    kernel = core.roundtrip_rot_direct

    def counted(*args):
        calls["roundtrip_rot_direct"] += 1
        return kernel(*args)
    monkeypatch.setattr(core, "roundtrip_rot_direct", counted)
    _count_points(monkeypatch, "ic_bracket_of",
                  lambda k: calls.update(["ic_bracket_of"]))
    again = force_total(NONEQ_CFG, state, 3.0, 8.0, NONEQ_SPEC)
    swapped = force_total(NONEQ_CFG, state, 8.0, 3.0, NONEQ_SPEC)
    assert again == first
    assert swapped.ic == first.ic and swapped.err_ic == first.err_ic
    assert not calls
    for memo in (forces._rotated_vacuum, forces._cavity_excess):
        assert memo.cache_info().currsize == 1
    narrow = FieldState.squeezed_band(0.001, 3.0)
    for _ in range(2):
        with pytest.raises(NonConvergenceError, match="sigma = 0.001"):
            force_ic(NONEQ_CFG, narrow, NONEQ_SPEC)
    assert forces._cavity_excess.cache_info().currsize == 1


def _clear_memos():
    for memo in (forces._vacuum_bath, forces._rotated_vacuum,
                 forces._cavity_excess, forces._bath_factors):
        memo.cache_clear()


def test_bath_excesses_share_the_kernel_parts_of_a_cavity(monkeypatch):
    # the mild pair at baths (3, 8) and then swapped: the bath kernel's
    # weight-free parts are memoized per cavity and k, so a bath excess
    # calls the kernel only at k that no earlier one sampled.  Both take
    # the window of beta = 3, and the second samples no new k: 339 calls
    # in all, against 648 with every memo cleared before each call.  Each
    # total has the bits of a cold run
    calls = []
    _count_points(monkeypatch, "bath_factors_of", calls.append)
    state = FieldState.thermal(5.0)
    runs = ((3.0, 8.0), (8.0, 3.0))
    cold = []
    for baths in runs:
        _clear_memos()
        cold.append(force_total(NONEQ_CFG, state, *baths, NONEQ_SPEC))
    assert len(calls) == 648
    _clear_memos()
    del calls[:]
    warm = [force_total(NONEQ_CFG, state, *runs[0], NONEQ_SPEC)]
    assert len(calls) == len(set(calls)) == 339
    warm.append(force_total(NONEQ_CFG, state, *runs[1], NONEQ_SPEC))
    assert len(calls) == 339
    assert warm == cold
    info = forces._bath_factors.cache_info()
    assert (info.currsize, info.maxsize) == (1, forces._VACUUM_CACHE_SIZE)


@pytest.mark.parametrize("baths, shared", [((80.0, 90.0), True),
                                           ((60.0, 90.0), False)],
                         ids=["colder_baths", "hotter_bath"])
def test_halfspace_forces_keep_their_bits_with_the_memo(baths, shared):
    # the field-state group takes a bath excess at beta_phi and the
    # mismatch group one at the bath temperatures, both on one cavity.
    # With the baths colder than the field both take the window of
    # beta_phi, so the second reads all of the first's kernel parts; with
    # a hotter bath its window and nodes differ.  Either way the forces
    # have the bits of groups computed with empty memos
    args = (FIG, FIG, 1.0) + baths + (76.3302, SPEC6)
    cfg = CavityConfig(1.0, math.inf, FIG, FIG)
    mismatch = forces._bath_excess(cfg, *baths, SPEC6, 76.3302)
    _clear_memos()
    got = halfspace_forces(*args)
    info = forces._bath_factors(cfg).cache_info()
    assert (info.hits == info.misses) is shared
    assert got[1] == mismatch[0]
    _clear_memos()
    field = forces._halfspace_parts(FIG, FIG, 1.0, 76.3302, 76.3302,
                                    76.3302, SPEC6)[0]
    assert got[0] == field[0]
    assert halfspace_forces(*args) == got


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


def test_inverse_temperatures_must_be_positive():
    with pytest.raises(ValueError, match="beta must be positive"):
        equilibrium_matsubara(CFG, 0.0, SPEC6)
    assert equilibrium_matsubara(CavityConfig(1.0, 0.7, VACM, VACM), 5.0,
                                 SPEC6) == (0.0, 0.0)
    with pytest.raises(ValueError, match="inverse temperatures"):
        halfspace_forces(FIG, FIG, 1.0, 10.0, 0.0, 10.0, SPEC6)


def test_thermal_window_refuses_a_non_finite_start():
    # the integrand is checked just above k = 0 before any panel is laid
    with pytest.raises(NaNIntegrandError) as exc:
        forces._thermal_window(lambda k: math.nan, 1.0, SPEC6, ())
    assert exc.value.abscissa == 1e-8


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
    # the ladder against raw quadrature of k times the bracket over the
    # whole window (forces._state_excess), which shares no band mean, no
    # phase average and no edge term with it
    omega = 3.0
    f_vac, e_vac = force_ic(CFG, FieldState.vacuum(), SPEC6)
    curve = band_excess_curve(CFG, omega, [0.5, 4.0], SPEC6)
    for (exc, e_exc), sigma in zip(curve, (0.5, 4.0)):
        x, e_x = forces._state_excess(
            forces._bracket(CFG), FieldState.squeezed_band(sigma, omega),
            SPEC6, forces._breakpoints(CFG.left, CFG.right))
        f_sq, e_sq = f_vac + x, e_vac + e_x
        assert abs((f_vac + exc) - f_sq) <= max(
            5e-9, 3.0 * (e_vac + e_exc + e_sq))


def test_band_excess_curve_preserves_input_order():
    omega = 3.0
    fwd = band_excess_curve(CFG, omega, [0.5, 4.0], SPEC6)
    rev = band_excess_curve(CFG, omega, [4.0, 0.5], SPEC6)
    assert fwd[0][0] == pytest.approx(rev[1][0], rel=1e-12)
    assert fwd[1][0] == pytest.approx(rev[0][0], rel=1e-12)


def test_slab_means_stop_at_the_rounding_floor(monkeypatch):
    # the docs ladder's shallow-band means: each strip holds them to a
    # hundredth of its own tolerance, rel_tol times their modulus over it,
    # or to _mean_tol's rounding floor, 8 _NOISE_EPS k at the strip's top,
    # where that is larger; rel_tol sets every strip's here, so abs_tol
    # 1e-12 and 1e-300 size the same offsets and give the same bits.  No
    # call takes more than the (5, 5) grid past K
    points = []
    kernel, diagonal = core.ic_brackets, core.diagonal_ic_brackets

    def counting(k, *args):
        points.append(len(args[-1]))
        return kernel(k, *args)

    def counting_diagonal(k, *args):
        points.append(args[-1])
        return diagonal(k, *args)

    monkeypatch.setattr(core, "ic_brackets", counting)
    monkeypatch.setattr(core, "diagonal_ic_brackets", counting_diagonal)
    _count_points(monkeypatch, "ic_bracket_of", lambda k: points.append(1))
    runs = []
    for abs_tol in (1e-12, 1e-300):
        del points[:]
        out = band_excess_curve(FIG_CFG, 5.0, DOCS_SIGMAS,
                                SPEC6.replace(abs_tol=abs_tol))
        runs.append((out, sum(points), max(points)))
    assert runs[0] == runs[1]
    assert runs[0][2] <= 25


def _ladder_strips(monkeypatch, sigmas):
    """``[(lo, hi, value, tol, parts, means)]``: each strip of the docs
    ladder at ``sigmas`` that holds a band part, with its value, its means'
    tolerance, its band parts (x0, x1) and the number of means it took."""
    strips, means = [], [0]
    bounds, banded = forces._band_bounds, forces._banded
    integrate = forces.integrate_interval

    def counted_bounds(*args):
        mean, size, edges = bounds(*args)

        def counted(k, tol):
            means[0] += 1
            return mean(k, tol)
        return counted, size, edges

    def recorded(raw, parts, tol):
        strips.append([tol, [p[:2] for p in parts]])
        means[0] = 0
        return banded(raw, parts, tol)

    def integrated(f, lo, hi, spec, breakpoints=()):
        v, e = integrate(f, lo, hi, spec, breakpoints)
        if strips and len(strips[-1]) == 2:
            strips[-1][:0] = [lo, hi, v]
            strips[-1].append(means[0])
        return v, e

    monkeypatch.setattr(forces, "_band_bounds", counted_bounds)
    monkeypatch.setattr(forces, "_banded", recorded)
    monkeypatch.setattr(forces, "integrate_interval", integrated)
    band_excess_curve(FIG_CFG, 5.0, sigmas, SPEC6)
    return [tuple(s) for s in strips if s[4]]


def test_ladder_strips_hold_their_means_to_a_hundredth_of_their_tolerance(
        monkeypatch):
    # each strip charges its means tol times the width of its band parts,
    # a hundredth of rel_tol times their modulus over it from the band
    # grid's trapezoid, which lies up to 3% above the quadrature of the
    # strip's |integrand| (on [0, 2.5], where the mean rises from -0.02),
    # and at least 0.75% of it
    strips = _ladder_strips(monkeypatch, DOCS_SIGMAS)
    assert len(strips) == 13
    g = forces._state_integrand(FIG_CFG)
    for lo, hi, _, tol, parts, _ in strips:
        size = integrate_interval(lambda k: abs(g(k, _RAW)[0]), lo, hi,
                                  SPEC6, breakpoints=sum(parts, ()))[0]
        allowance = tol * sum(x1 - x0 for x0, x1 in parts)
        assert allowance <= 0.0105 * max(SPEC6.abs_tol, SPEC6.rel_tol * size)
        assert allowance >= 0.0075 * SPEC6.rel_tol * size


def test_narrow_windows_take_one_strip(monkeypatch):
    # a window no wider than one panel (pi / 2 here) is one strip over the
    # whole window, one Gauss-Kronrod panel of 15 means, where the strips
    # on either side of the narrower window would take two; the wider
    # windows add their strips past the last narrow one
    strips = _ladder_strips(monkeypatch, DOCS_SIGMAS)
    narrow = [s for s in DOCS_SIGMAS if s <= 0.5 * math.pi]
    assert narrow == [0.25, 0.5, 0.75, 1.0, 1.5]
    assert [(lo, hi, n) for lo, hi, _, _, _, n in strips[:5]] == [
        (5.0 - 0.5 * s, 5.0 + 0.5 * s, 15) for s in narrow]
    assert [(lo, hi) for lo, hi, *_ in strips[5:7]] == [(4.0, 4.25),
                                                        (5.75, 6.0)]


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


def test_slab_rate_is_the_derivative_of_the_slab_phase():
    # against a fine central difference of the phase 2 k Re(n) d, with
    # step 1e-9 max(k, 1) and the five-point stencil: within gamma0 = 1e-6
    # of the weak resonance the two-point one is itself 2.5e-4 off at
    # k = 10, the five-point one 2e-7.  The former rate, a two-point
    # difference of step 1e-6 max(k, 1), read -5.27e10 at k = 10 - 5e-6,
    # where the rate is +1.963e11, and was 1.5% off at 10.0001
    d = 100.0

    def phase(mat, k):
        return 2.0 * k * forces._index(mat, k).real * d

    ks = (0.0, 0.3, 7.3, 14.2, 40.0, 1e3, 10.0 - 5e-6, 10.0, 10.0001, 9.99,
          9.95)
    for mat in (FIG, WEAK, MILD_L, MILD_R, STATIC, VACM):
        for k in ks:
            h = 1e-9 * max(k, 1.0)
            fine = (8.0 * (phase(mat, k + h) - phase(mat, k - h))
                    - phase(mat, k + 2.0 * h) + phase(mat, k - 2.0 * h)) / (
                        12.0 * h)
            near = not mat.static and abs(k - mat.omega0) <= 1e-4
            assert forces._slab_rate(mat, d, k) == pytest.approx(
                fine, rel=1e-4 if near else 1e-6)
    # a static slab, or one of zero oscillator strength, has a fixed index
    for mat, n in ((STATIC, math.sqrt(2.0)), (VACM, 1.0)):
        assert forces._slab_rate(mat, d, 7.3) == pytest.approx(2.0 * d * n,
                                                               rel=1e-15)


def test_bands_keep_their_edges():
    # the dense and shallow bands of the fig (docs) and weak cavities, as
    # the band scan finds them with the closed-form slab rate
    for cfg, k_end, want in (
            (FIG_CFG, 106.5,
             ((), ((0.0, 7.303316925017076), (16.564050929055593, 106.5)))),
            (WEAK_CFG, 1.3 * 10.0 * math.sqrt(2.0),
             (((9.356021603182356, 9.990539275102783),
               (14.144220561670322, 14.5770557108945)), ()))):
        got = forces._bands(cfg, k_end)
        assert [len(kind) for kind in got] == [len(kind) for kind in want]
        for kind, ref in zip(got, want):
            for band, edges in zip(kind, ref):
                assert band == pytest.approx(edges, abs=1e-12)


def test_slab_mean_settles_geometrically():
    f = forces._zero_bath_integrand(WEAK_CFG)
    bands = forces._bands(WEAK_CFG, 1.3 * 10.0 * math.sqrt(2.0))[0]
    band_means = [(lo, hi, forces._band_bounds(f, WEAK_CFG, lo, hi)[0])
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
    # the two slab phases of identical slabs are one phase: a (4, 4) tail
    # grid averages the diagonal with 16 offsets, not the 64-point torus,
    # and every mean makes one integrand call per k
    calls = []

    def f(k, offsets):
        calls.append(list(offsets))
        return [math.cos(sL - sR) + math.cos(sG) for sL, sR, sG in offsets]

    assert forces._phase_average(f, 1.0, (4, 4)) == pytest.approx(1.0)
    assert len(calls) == 1 and len(calls[0]) == 16
    assert all(sl == sr for sl, sr, _ in calls[0])
    calls.clear()
    assert forces._phase_average(f, 1.0, (4, 4, 4)) == pytest.approx(
        0.0, abs=1e-15)
    assert len(calls) == 1 and len(calls[0]) == 64
    # each point of a band grid takes its six diagonal offsets in one call
    calls.clear()
    forces._band_bounds(f, FIG_CFG, 1.0, 1.1)
    assert [len(c) for c in calls] == [6] * 3
    assert all(sl == sr and sg == 0.0 for c in calls for sl, sr, sg in c)
    # the switch point reads the phase average and the harmonics at k0 from
    # one call on its grid, which leads with the unshifted triple
    calls.clear()
    harm = forces._dft(f(1.0, forces._grid((4, 4))), (4, 4))
    assert len(calls) == 1 and calls[0][0] == (0.0, 0.0, 0.0)
    assert harm[0, 0] == pytest.approx(forces._phase_average(f, 1.0, (4, 4)))
    assert harm[1, 0] == pytest.approx(0.5)
    assert abs(harm[0, 1]) == pytest.approx(0.0, abs=1e-15)

    # the real-axis integral reads its phase axes from the cavity: identical
    # slabs are offset only on the diagonal, different slabs also off it
    loose = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-6)
    for cfg, diagonal in ((CavityConfig(1.0, 0.4, MILD_L, MILD_L), True),
                          (CFG, False)):
        calls = []
        bath = forces._zero_bath_integrand(cfg)

        def rec(k, offsets, bath=bath, calls=calls):
            calls.extend((sL, sR) for sL, sR, _ in offsets)
            return bath(k, offsets)

        forces._oscillatory_integral(oracles._raw(bath), rec, loose, cfg)
        assert any(c != (0.0, 0.0) for c in calls)
        assert all(sl == sr for sl, sr in calls) == diagonal


def test_dft_reads_odd_grids():
    # a trigonometric polynomial with harmonics |j_a| <= 1 on each of three
    # phases, sampled on the (3, 3, 3) grid: the DFT returns each leading
    # harmonic to rounding (an odd count reads +-1, as an even one
    # below 2 (n - 1) does)
    rng = random.Random(3)
    coef = {}
    for j in itertools.product((-1, 0, 1), repeat=3):
        if forces._leads(j):
            coef[j] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    mean = 0.7
    vals = [mean + sum(2.0 * (c * cmath.exp(1j * sum(
        a * b for a, b in zip(j, off)))).real for j, c in coef.items())
        for off in forces._grid((3, 3, 3))]
    harm = forces._dft(vals, (3, 3, 3))
    assert harm[0, 0, 0] == pytest.approx(mean, abs=1e-14)
    for j, c in coef.items():
        assert abs(harm[j] - c) <= 1e-14
    assert all(abs(i) <= 1 for j in harm for i in j)


def test_dft_matches_a_direct_double_sum():
    # every harmonic j (|j_a| < n_a / 2 and j_0 >= 0) of random samples on
    # 1-D grids of 2 to 33 offsets
    # and on product grids, against the sum over the grid of the samples
    # times e^{-2 pi i sum_a j_a l_a / n_a}, within 1e-15 of sum |v|; and
    # every twiddle of the one ring against e^{-2 pi i j l / n}, its angle
    # reduced exactly to j l mod n (unreduced, the angle of j = -11, l = 17
    # at n = 23 alone rounds by 1e-14)
    rng = random.Random(11)
    grids = [(n,) for n in range(2, 34)] + [(3, 5), (5, 5), (3, 3, 3)]
    for dims in grids:
        vals = [rng.uniform(-1.0, 1.0) for _ in range(math.prod(dims))]
        points = list(itertools.product(*(range(n) for n in dims)))
        tops = [(n - 1) // 2 for n in dims]
        want = {}
        for j in itertools.product(*(range(-t, t + 1) for t in tops)):
            if j[0] < 0:
                continue
            want[j] = sum(v * cmath.exp(-2j * math.pi * sum(
                a * b / n for a, b, n in zip(j, ls, dims)))
                          for v, ls in zip(vals, points)) / len(vals)
        got = forces._dft(vals, dims)
        assert set(got) == set(want)
        scale = sum(map(abs, vals))
        for j, c in want.items():
            assert abs(got[j] - c) <= 1e-15 * scale
    for n in range(2, 34):
        roots = forces._roots(n)
        assert [j for j, _ in roots] == list(range(-((n - 1) // 2),
                                                   (n - 1) // 2 + 1))
        for j, tw in roots:
            assert len(tw) == n
            for l, t in enumerate(tw):
                x = 2.0 * math.pi * (j * l % n) / n
                assert abs(t - complex(math.cos(x), -math.sin(x))) <= 1e-14


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


def test_pole_windows_stay_inside_the_stop_band():
    # at gamma0 = 1e-3 the weak pair's 13.462 mode is 2.04e-4 wide, so
    # 1e4 half widths would reach past the stop band's top sqrt(200); its
    # window is half the distance to that edge instead
    slab = Material(10.0, 10.0, 1e-3)
    poles = forces._pole_terms(CavityConfig(1.0, 100.0, slab, slab),
                               WEAK_SPEC.panel_width)
    kp, lo, hi = poles[-1]
    assert kp.real == pytest.approx(13.462, abs=1e-3)
    assert -kp.imag * forces._POLE_WINDOW == pytest.approx(2.04, abs=1e-2)
    assert hi - kp.real == pytest.approx(0.340, abs=1e-3)
    assert kp.real - lo == pytest.approx(0.340, abs=1e-3)
    for kp, lo, hi in poles:
        assert 10.0 < lo < kp.real < hi < 10.0 * math.sqrt(2.0)


def test_first_switch_keeps_eight_panels_below_it():
    # at gap 2 four gap periods end at 2 pi, and the mild slab's response
    # top sqrt(13) sets 1.3 sqrt(13) = 4.69, so eight default panels of
    # pi / 2 set the first candidate k0 = 4 pi
    cfg = CavityConfig(2.0, 0.4, MILD_L, MILD_L)
    spec = QuadratureSpec()
    assert 1.3 * forces._response_top(cfg) < 4.0 * math.pi / cfg.gap
    assert forces._first_switch(spec, cfg) == pytest.approx(4.0 * math.pi)


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
    raw = core.vacuum_bath_of(*forces._args(WEAK_CFG))
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

    def counting(k, offsets):
        if len(offsets) == 1 and (11.3 <= k <= 11.5 or 13.4 <= k <= 13.5):
            near.append(k)

    _count_z_points(monkeypatch, counting)
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
    bath = forces._zero_bath_integrand(WEAK_CFG)
    dev, est = oracles.band_dual(WEAK_CFG, bath, 9.4, 9.5, spec)
    assert dev <= est
    # the whole upper dense band, whose comb is at its deepest (0.9) on the
    # lower edge, for the bath and the state integrands
    lo, hi = forces._bands(WEAK_CFG, 1.3 * 10.0 * math.sqrt(2.0))[0][1]
    _, rn, clear = forces._surface(WEAK_CFG.left, WEAK_CFG.width, lo)
    assert abs(rn) ** 2 * clear == pytest.approx(0.9)
    for f in (bath, forces._state_integrand(WEAK_CFG)):
        dev, est = oracles.band_dual(WEAK_CFG, f, lo, hi, spec)
        assert dev <= est


def test_band_edges_within_one_grid_step():
    # a ladder window inside one grid step of fig's high shallow band,
    # where the edge terms' variation is the chord of the last order
    # between the window's ends; against raw quadrature on half-slab-period
    # panels
    lo, hi = forces._bands(FIG_CFG, 55.0)[1][1]
    m = math.ceil(forces._HARM_GRID * (hi - lo) * FIG_CFG.gap / math.pi)
    step = (hi - lo) / m
    dev, est = oracles.band_dual(
        FIG_CFG, forces._state_integrand(FIG_CFG), lo, hi, SPEC6,
        window=(lo + 3.2 * step, lo + 3.7 * step))
    assert dev <= est


def test_tail_edges_within_the_first_ladder_step():
    # edges(K, x1) with x1 = 1.05 K, short of the first ladder step
    # K 2^(1/8): the variation is the chord of the last order between K and
    # x1.  Fig Z against raw quadrature on half-slab-period panels
    f = forces._zero_bath_integrand(FIG_CFG)
    K = forces._switch(f, SPEC6, FIG_CFG, forces._phase_axes(FIG_CFG))[0]
    assert 1.05 < forces._LADDER
    dev, est = oracles.tail_dual(FIG_CFG, f, 1.05 * K, SPEC6)
    assert dev <= est


def test_band_ladder_without_a_switch_point_stays_raw(monkeypatch):
    # identical lossless static slabs reflect persistently, so the state
    # integrand has no switch point and the ladder's window, which reaches
    # past k0, stays on the raw integrand there; it matches raw quadrature
    # over the whole window within both estimates.  The refusal reads the
    # probe at k0 and the edge terms' stencil at K = k0 alone: the
    # variation walk past K, 840 grids, would come to nothing
    cfg = CavityConfig(1.0, 0.7, STATIC, STATIC)
    spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12)
    grids = []
    kernel = core.ic_brackets

    def counted(k, *args):
        grids.append(k)
        return kernel(k, *args)
    monkeypatch.setattr(core, "ic_brackets", counted)
    with pytest.raises(NonConvergenceError, match="persistent reflection") \
            as refused:
        forces._switch(forces._state_integrand(cfg), spec, cfg,
                       forces._phase_axes(cfg))
    # the harmonic grows like k: the exponent carries its own sign
    assert str(refused.value).endswith("goes like k^1.00")
    assert "k^-" not in str(refused.value).split(":")[1]
    assert len(grids) == 1 + len(forces._STENCIL_NODES[0])
    assert 5.0 + 30.0 > forces._first_switch(spec, cfg)
    (x, ex), = band_excess_curve(cfg, 5.0, [60.0], spec)
    raw, eraw = forces._state_excess(
        forces._bracket(cfg), FieldState.squeezed_band(60.0, 5.0), spec,
        forces._breakpoints(cfg.left, cfg.right))
    assert abs(x - raw) <= ex + eraw
    assert x == pytest.approx(-2.4470379673824616e-4, abs=ex)


def _clear(cfg, k):
    """The slab's internal transmission e^{-2 k Im(n) d} at k."""
    return forces._surface(cfg.left, cfg.width, k)[2]


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
    assert _clear(FIG_CFG, hi0 + 1e-3) < forces._CLEAR_MIN
    assert 16.5 < lo < 16.7 and hi == 106.5
    assert forces._kind(FIG_CFG, 0.5 * (lo + hi)) == 1
    assert forces._kind(FIG_CFG, lo - 1e-3) == 0
    assert _clear(FIG_CFG, lo - 1e-3) < forces._CLEAR_MIN
    # a low stretch cut short of its opaque edge, which then runs from 0 to
    # k_end with no edge inside the scan, is not a band
    assert forces._bands(FIG_CFG, 5.0) == ((), ())
    # the high band cut 9 or 12 half slab periods past its start holds at
    # none of the scan points, a sixteenth of the gap period apart; it holds
    # at k_end, the last point, so its start is bisected from the point
    # before it
    for periods in (9, 12):
        k_end = lo + periods * math.pi / forces._slab_rate(
            FIG_CFG.left, FIG_CFG.width, lo)
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
        assert _clear(WEAK_CFG, start - 1e-3) >= forces._CLEAR_MIN
    # mild pairs: different slabs, or identical slabs whose phase is slow
    for cfg in (CFG, CavityConfig(0.5, 0.4, MILD_L, MILD_R),
                CavityConfig(1.0, 0.4, MILD_L, MILD_L)):
        assert forces._bands(cfg, 100.0) == ((), ())


def test_low_shallow_band_dual_route():
    # the whole low band, from k -> 0 to its opaque edge, and the part of it
    # that ends inside the clear comb, for the bath and the state integrands
    lo, hi = forces._bands(FIG_CFG, 30.0)[1][0]
    for f in (forces._zero_bath_integrand(FIG_CFG),
              forces._state_integrand(FIG_CFG)):
        for x1 in (hi, 3.0):
            dev, est = oracles.band_dual(FIG_CFG, f, lo, x1, SPEC6)
            assert dev <= est


def test_real_axis_integral_adds_each_band_edge_terms(monkeypatch):
    # fig's Z integrates the mean over both shallow bands, [0, 7.30] and
    # [16.56, K], and adds each band's edges(lo, hi), value and error, once
    bath = forces._zero_bath_integrand(FIG_CFG)
    z, ez = forces._oscillatory_integral(oracles._raw(bath), bath, SPEC6,
                                          FIG_CFG)
    bounds, asked = forces._band_bounds, []

    def moved(*args):
        mean, size, edges = bounds(*args)

        def plus_one(x0, x1):
            asked.append((args[2:], (x0, x1)))
            dv, de = edges(x0, x1)
            return dv + 1.0, de + 1.0
        return mean, size, plus_one

    monkeypatch.setattr(forces, "_band_bounds", moved)
    z1, ez1 = forces._oscillatory_integral(oracles._raw(bath), bath, SPEC6,
                                          FIG_CFG)
    assert len(asked) == 2
    assert all(band == window for band, window in asked)
    assert z1 - z == pytest.approx(2.0, abs=1e-9)
    assert ez1 - ez == pytest.approx(2.0, abs=1e-9)


def _signed_ends(f, lo, hi):
    """The ends of the band [lo, hi] of fig at which ``edges(lo, hi)`` of
    the integrand ``f`` takes the signed terms S: those it samples a
    stencil around (the band's grid and stencil centres are shared)."""
    seen = []

    def rec(k, offsets):
        seen.append(k)
        return f(k, offsets)

    edges = forces._band_bounds(rec, FIG_CFG, lo, hi)[2]
    seen.clear()
    edges(lo, hi)
    reach = 7.0 * forces._FD_STEP
    return {x for x in (lo, hi) if any(0.0 < abs(k - x) < reach
                                         for k in seen)}


def test_band_ends_take_the_signed_terms_past_the_grid_variation(
        monkeypatch):
    # a band end takes the signed terms S unless it is the band's own end
    # and the absolute terms the grid holds there are no larger than the
    # band's variation.  fig Z's bath integrand keeps the absolute terms at
    # 0, 7.30 and 16.56 and takes S at its switch point K, where its
    # absolute term (9.0e-5) exceeds the band's variation; the sigma
    # ladder's state integrand takes S at k = 0, where its absolute term is
    # 5.1e-6 against a variation of 3.3e-7
    built, bounds = [], forces._band_bounds
    monkeypatch.setattr(forces, "_band_bounds",
                        lambda *args: built.append(args[2:]) or bounds(*args))
    forces._vacuum_bath.cache_clear()
    try:
        forces._vacuum_bath(FIG_CFG, SPEC6)
    finally:
        forces._vacuum_bath.cache_clear()
    (low, (start, K)) = built
    assert low == (0.0, pytest.approx(7.303, abs=1e-3))
    assert 16.5 < start < 16.7 and 40.0 < K < 40.2
    bath, state = _both_integrands(FIG_CFG)
    assert _signed_ends(bath, *low) == set()
    assert _signed_ends(bath, start, K) == {K}
    assert _signed_ends(state, *low) == {0.0}


def test_window_ends_snap_to_the_band_grid():
    # a window end one ulp either side of a grid point of fig's low band
    # lies on it up to rounding; it counts the grid steps on either side as
    # the grid point itself does.  With an exact snap, the end one ulp
    # above the grid point skips the next step's variation and the error
    # of [x, hi] falls by 8.7%
    f = forces._state_integrand(FIG_CFG)
    (lo, hi), _ = forces._bands(FIG_CFG, 106.5)[1]
    m = math.ceil(forces._HARM_GRID * (hi - lo) * FIG_CFG.gap / math.pi)
    step = (hi - lo) / m
    x = lo + step * 15
    ends = (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))
    assert len({(y - lo) / step for y in ends}) == 3
    edges = forces._band_bounds(f, FIG_CFG, lo, hi)[2]
    for window in (lambda y: (y, hi), lambda y: (lo, y)):
        (dv, de), *rest = [edges(*window(y)) for y in ends]
        for v, e in rest:
            assert v == pytest.approx(dv, rel=1e-6)
            assert e == pytest.approx(de, rel=1e-6)


def test_fig_bath_integral_matches_the_rotated_route():
    # Z = R - f_vac, with f_vac the docs cavity's vacuum state force in
    # perfbench/reference.json (rel_tol 1e-12).  Z reads 9.9e-6 from it;
    # with the absolute end term at K in place of S(K) it read 5.1e-5, and
    # its estimate fell from 3.80e-4 to 2.90e-4
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "reference.json")
    with open(path, encoding="utf-8") as fh:
        f_vac = json.load(fh)["sweep_docs"]["f_vac"][0]
    z, ez = forces._vacuum_bath(FIG_CFG, SPEC6)
    r, _ = forces._rotated_vacuum(FIG_CFG, SPEC6)
    assert abs(z - (r - f_vac)) <= 2e-5
    assert ez <= 3.0e-4


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


def test_dense_band_terms_count_both_signs_of_each_harmonic():
    # h_-j is the conjugate of h_j: half of a dense band's edge-term error
    # (one sign of j) does not cover its dropped oscillation, for the bath
    # and the state integrands on the window of dense_band_dual_pipeline
    # (dev 0.64 and 0.66 of the whole error); that the whole error covers
    # it is that verify check
    spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9)
    for f in _both_integrands(WEAK_CFG):
        dev, _ = oracles.band_dual(WEAK_CFG, f, 9.4, 9.6, spec)
        assert dev > 0.5 * forces._band_bounds(f, WEAK_CFG, 9.4, 9.6)[2](
            9.4, 9.6)[1]


def _both_integrands(cfg):
    """The bath and the state integrands of ``cfg``."""
    return (forces._zero_bath_integrand(cfg),
            forces._state_integrand(cfg))


@pytest.mark.parametrize("cfg, k, rho", [
    (FIG_CFG, 3.0, 0.0866), (WEAK_CFG, 9.45, 0.5244),
    (WEAK_CFG, 9.9, 0.7292)], ids=["fig-3", "weak-9.45", "weak-9.9"])
def test_pole_radius_matches_the_measured_harmonic_decay(cfg, k, rho):
    # sqrt|h_{j+2} / h_j| from 256 diagonal samples, over the harmonics
    # clear of rounding, for the bath and the state integrands
    assert forces._pole_parts(cfg, k)[4] == pytest.approx(rho, abs=1e-4)
    for f in _both_integrands(cfg):
        c = forces._dft(f(k, forces._grid((256,))), (256,))
        h = [c[j, ] for j in range(1, 128)]
        ratios = [math.sqrt(abs(h[j + 2] / h[j])) for j in range(60)
                  if abs(h[j + 2]) > 2e-12 * k]
        assert len(ratios) >= 8
        assert all(0.85 * rho < r < 1.2 * rho for r in ratios)
        mean_log = math.fsum(map(math.log, ratios)) / len(ratios)
        assert math.exp(mean_log) == pytest.approx(rho, rel=0.06)


def _pole_form(f, cfg, k, charge=True):
    """``forces._pole_form`` of the integrand ``f`` of the identical slabs
    of ``cfg`` at k, on its six diagonal samples, charged by default."""
    return forces._pole_form(f(k, forces._grid((6,))), cfg.width, k,
                             forces._pole_parts(cfg, k), charge)


def test_harmonic_amplitude_bounds_the_measured_harmonics():
    # on the grids of fig's band bounds, the sum over the two poles of
    # |a_p| rho_p^(j - 1), read from six samples, bounds every harmonic
    # j <= 40 of a 128-sample DFT, up to the rounding floor
    for f in _both_integrands(FIG_CFG):
        for lo, hi in forces._bands(FIG_CFG, 106.5)[1]:
            m = math.ceil(forces._HARM_GRID * (hi - lo) * FIG_CFG.gap
                          / math.pi)
            for i in range(m + 1):
                k = lo + (hi - lo) * i / m
                poles = _pole_form(f, FIG_CFG, k)[1]
                assert len(poles) == 2
                floor = forces._MEAN_NOISE * forces._NOISE_EPS * k
                ref = forces._dft(f(k, forces._grid((128,))), (128,))
                assert all(abs(ref[j, ]) <= sum(abs(a) * abs(y) ** (j - 1)
                                                for a, y in poles)
                           + 2.0 * floor for j in range(1, 41))


@pytest.mark.parametrize("cfg, k", [
    (WEAK_CFG, 14.146), (WEAK_CFG, 14.155), (FIG_CFG, 3.0)],
    ids=["weak-14.146", "weak-14.155", "fig-3"])
def test_pole_form_matches_a_fine_dft(cfg, k):
    # the mean and the harmonics h_1 .. h_20 from six samples and the two
    # cavity poles, against a 4,096-sample DFT, for the bath and the state
    # integrands; the weak points lie where rho >= 0.88 and the plain
    # six-sample average is off by up to 1.1
    if cfg is WEAK_CFG:
        assert forces._pole_parts(cfg, k)[4] >= 0.88
    turn = cmath.exp(2j * k * forces._index(cfg.left, k).real * cfg.width)
    ring = [cmath.exp(-2j * math.pi * i / 4096) for i in range(4096)]
    for f in _both_integrands(cfg):
        vals = f(k, forces._grid((4096,)))
        c = [sum(v * ring[j * i % 4096] for i, v in enumerate(vals)) / 4096
             for j in range(21)]
        h0, poles, _ = _pole_form(f, cfg, k)
        assert h0 == pytest.approx(c[0].real, abs=1e-10)
        for j in range(1, 21):
            h = sum(a * y ** (j - 1) for a, y in poles)
            assert abs(h - c[j] / turn ** j) <= 1e-10


def _dft_pole_form(vals, cfg, k):
    """The pole form's ``(h0, poles, err)`` from the six samples ``vals``
    at k as ``_dft`` reads P's coefficients, with the cavity poles and the
    charge computed from the cavity at every call: the formula that
    ``forces._pole_form`` keeps bit for bit."""
    n, rn, e0 = forces._surface(cfg.left, cfg.width, k)
    if e0 == 0.0:
        return sum(vals) / 6.0, [(0j, 0j)] * 2, 0.0
    v = cmath.exp(1j * k * cfg.gap)
    turn = cmath.exp(2j * k * n.real * cfg.width)
    xs = [turn * e0 * rn * (rn - s * v) / (1.0 - s * rn * v) for s in (1, -1)]
    qs = [abs((1.0 - z * xs[0]) * (1.0 - z * xs[1])) ** 2
          for z in forces._roots(6)[1][1]]
    ps = [r * q for r, q in zip(vals, qs)]
    p0, p1, p2 = forces._dft(ps, (6,)).values()
    amps = [(p2 + x * (p1 + x * (p0 + x * (p1.conjugate()
                                           + x * p2.conjugate()))))
            / ((1.0 - abs(x) ** 2) * (x - q) * (1.0 - q.conjugate() * x))
            for x, q in (xs, xs[::-1])]
    h0 = sum(vals) / 6.0 - 2.0 * sum((a * x ** 5 / (1.0 - x ** 6)).real
                                     for a, x in zip(amps, xs))
    r1, r2 = abs(xs[0]), abs(xs[1])
    gain = 1.0 + 2.0 * (1.0 + r1) * (1.0 + r2) / (
        abs(xs[0] - xs[1]) * abs(1.0 - xs[1].conjugate() * xs[0])) * sum(
        r ** 5 * (1.0 + s) * (1.0 + r ** 5) / ((1.0 - r * r) * (1.0 - r ** 6))
        for r, s in ((r1, r2), (r2, r1)))
    noise = max(forces._NOISE_EPS * k,
                abs(sum(ps[::2]) - sum(ps[1::2])) / sum(qs))
    return h0, [(a / turn, x / turn) for a, x in zip(amps, xs)], gain * noise


@pytest.mark.parametrize("cfg, band, t", [
    (cfg, band, t) for cfg, band in ((FIG_CFG, 0), (WEAK_CFG, 1))
    for t in (0.1, 0.5, 0.9)],
    ids=["%s-%s" % (c, t) for c in ("fig", "weak") for t in (0.1, 0.5, 0.9)])
def test_pole_form_keeps_the_bits_of_the_dft_route(cfg, band, t):
    # at three points of fig's lower shallow band and of weak's upper dense
    # band, the pole form's mean, poles and charge equal, bit for bit, what
    # the DFT route gives on the same six samples; uncharged, its mean and
    # poles are the same and its charge is 0
    dense, shallow = forces._bands(cfg, 1.3 * 10.0 * math.sqrt(2.0))
    lo, hi = (shallow if cfg is FIG_CFG else dense)[band]
    k = lo + t * (hi - lo)
    assert forces._pole_parts(cfg, k)[4] > 0.0
    for f in _both_integrands(cfg):
        vals = f(k, forces._grid((6,)))
        want = _dft_pole_form(vals, cfg, k)
        parts = forces._pole_parts(cfg, k)
        # the shortest reprs of two floats agree only where their bits do
        assert repr(forces._pole_form(vals, cfg.width, k, parts,
                                      True)) == repr(want)
        assert repr(forces._pole_form(vals, cfg.width, k, parts)) == repr(
            (want[0], want[1], 0.0))


def test_band_mean_leaves_the_pole_form_below_its_rounding():
    # at weak k = 14.15 (rho = 0.906) the pole form bounds the gain of its
    # division by Q on the six samples' rounding at 8,100: its mean is off
    # by 1.0e-12 against a 4,096-offset mean, within its charge of 2.3e-11.
    # At tol 1e-9 the mean is the pole form's; at tol 1e-12 it takes plain
    # offsets sized by the aliasing bound, in one call, and meets tol / 2
    f = forces._zero_bath_integrand(WEAK_CFG)
    k = 14.15
    (lo, hi), = [b for b in forces._bands(WEAK_CFG,
                                          1.3 * 10.0 * math.sqrt(2.0))[0]
                 if b[0] < k < b[1]]
    calls = []

    def rec(x, offsets):
        calls.append(len(offsets))
        return f(x, offsets)
    mean = forces._band_bounds(rec, WEAK_CFG, lo, hi)[0]
    ref = sum(f(k, forces._grid((4096,)))) / 4096
    h0, _, err = _pole_form(f, WEAK_CFG, k)
    assert 0.5e-12 < abs(h0 - ref) <= err
    calls.clear()
    assert mean(k, 1e-9) == h0
    assert calls == [6]
    assert abs(mean(k, 1e-12) - ref) <= 0.5e-12
    assert len(calls) == 2 and calls[1] > 6


def test_pole_form_charges_what_its_nyquist_term_shows():
    # an integrand off the two-pole form by 1e-9 cos(3 s), which the six
    # samples see only in P's Nyquist term c_3: at weak k = 14.15 the pole
    # form's mean is then off by 3.3e-7, which its charge covers; the
    # evaluation noise alone would charge 2.3e-11
    f = forces._zero_bath_integrand(WEAK_CFG)

    def g(x, offsets):
        return [v + 1e-9 * math.cos(3.0 * s[0])
                for v, s in zip(f(x, offsets), offsets)]
    k = 14.15
    ref = sum(g(k, forces._grid((4096,)))) / 4096
    h0, _, err = _pole_form(g, WEAK_CFG, k)
    assert 1e-7 < abs(h0 - ref) <= err


def test_pole_radius_keeps_its_bits_without_the_slab_pole():
    # the ratio E0 |rn|^2 of the slab pole never exceeds the larger gap
    # pole's, so the two-term radius equals the three-term one bit for bit
    for cfg, top in ((FIG_CFG, 40.0), (WEAK_CFG, 18.0)):
        for i in range(1, 2001):
            k = top * i / 2000
            _, rn, e0 = forces._surface(cfg.left, cfg.width, k)
            u = cmath.exp(1j * k * cfg.gap)
            three = e0 * abs(rn) * max(abs(rn - u) / abs(1.0 - rn * u),
                                       abs(rn + u) / abs(1.0 + rn * u),
                                       abs(rn))
            assert forces._pole_parts(cfg, k)[4] == three


def test_sized_mean_is_within_half_its_tolerance():
    # in both of fig's bands, at Z's tolerance and near the rounding floor,
    # against the mean of 256 offsets
    rng = random.Random(7)
    for f in _both_integrands(FIG_CFG):
        for lo, hi in forces._bands(FIG_CFG, 106.5)[1]:
            mean = forces._band_bounds(f, FIG_CFG, lo, hi)[0]
            for tol in (2e-8, 1e-11):
                for _ in range(30):
                    k = rng.uniform(lo, hi)
                    ref = sum(f(k, forces._grid((256,))))
                    assert abs(mean(k, tol) - ref / 256) <= 0.5 * tol
    # in the weak pair's dense bands, where rho reaches 0.945, against the
    # mean of 4,096 offsets.  Below tol 1e-10 the state integrand's means
    # level off at the rounding of its evaluation, 1e-12 to 7e-12
    for f in _both_integrands(WEAK_CFG):
        for lo, hi in forces._bands(WEAK_CFG,
                                    1.3 * 10.0 * math.sqrt(2.0))[0]:
            mean = forces._band_bounds(f, WEAK_CFG, lo, hi)[0]
            for _ in range(15):
                k = rng.uniform(lo, hi)
                ref = sum(f(k, forces._grid((4096,)))) / 4096
                for tol in (1e-7, 1e-9):
                    assert abs(mean(k, tol) - ref) <= 0.5 * tol


def test_band_route_follows_the_pole_radius():
    calls = []

    def recording(f):
        def rec(k, offsets):
            calls.append(len(offsets))
            return f(k, offsets)
        return rec

    # fig's shallow bands: six samples per grid point, and one call of at
    # most six per mean
    f = forces._zero_bath_integrand(FIG_CFG)
    for lo, hi in forces._bands(FIG_CFG, 106.5)[1]:
        calls.clear()
        mean = forces._band_bounds(recording(f), FIG_CFG, lo, hi)[0]
        assert set(calls) == {6}
        calls.clear()
        mean(0.5 * (lo + hi), 1e-10)
        assert len(calls) == 1 and calls[0] <= 6
        _assert_means_reused(mean, 0.5 * (lo + hi), 1e-10, calls)
    # the weak pair's dense bands have pole radii from 0.28 to 0.94, above
    # _RHO_MAX: six samples at every grid point, and one call per mean
    f = forces._zero_bath_integrand(WEAK_CFG)
    bands = forces._bands(WEAK_CFG, 1.3 * 10.0 * math.sqrt(2.0))[0]
    assert len(bands) == 2
    for lo, hi in bands:
        rhos = [forces._pole_parts(WEAK_CFG, lo + (hi - lo) * i / 64)[4]
                for i in range(65)]
        assert forces._RHO_MAX < min(rhos) and max(rhos) < 1.0
        calls.clear()
        mean = forces._band_bounds(recording(f), WEAK_CFG, lo, hi)[0]
        assert set(calls) == {6}
        # off the grid, a mean takes the six-sample pole form; the same
        # mean again and one at a tighter tolerance the pole form still
        # meets make no kernel call, and one below its rounding takes more
        # plain offsets in one call
        k = 0.5 * (lo + hi) + 1e-3
        calls.clear()
        mean(k, 1e-9)
        assert calls == [6]
        mean(k, 1e-11)
        assert calls == [6]
        _assert_means_reused(mean, k, 1e-9, calls)


def _assert_means_reused(mean, k, tol, calls):
    """After one call ``mean(k, tol)`` recorded in ``calls``: the same mean
    again costs no kernel call, and one at a tighter tolerance that sizes
    more offsets costs exactly one.  Tightening stops, failing, past
    1e-30, so a mean that never sizes more offsets fails here."""
    mean(k, tol)
    assert len(calls) == 1
    while len(calls) == 1:
        assert tol > 1e-30, "no tolerance down to 1e-30 sized more offsets"
        tol *= 0.1
        mean(k, tol)
    assert len(calls) == 2 and calls[1] > calls[0]


def _offset_points(monkeypatch, cfg, spec):
    """Bath-integrand offset points of Z for ``cfg`` at ``spec``, single
    points included."""
    points = []
    _count_z_points(monkeypatch, lambda k, offsets: points.append(
        len(offsets)))
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


def test_weak_bath_integral_offset_points(monkeypatch):
    # six samples per band grid point and stencil node and at most six per
    # mean hold weak's Z, whose dense bands reach a pole radius of 0.94, to
    # at most 2,000 offset points (1,098; 3,343 with means of up to 135
    # offsets sized by a C j rho^j amplitude model)
    assert _offset_points(monkeypatch, WEAK_CFG, WEAK_SPEC) <= 2000


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
    K, _, err, budget, _, _ = forces._switch(f, SPEC6, FIG_CFG, axes)
    share = 0.25 * budget
    edges = forces._above_edges(forces._sampler(f), FIG_CFG, axes,
                                share)
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


def test_edge_grid_reads_the_slab_head(monkeypatch):
    # on the docs cavity's state integrand the harmonics of the first gap
    # order span slab indices 0, 1 and 2 at comparable size (1.0e-3, 1.9e-3
    # and 9.2e-4 at k = 105, where the slab ratio is 2.1e-3), since both
    # slab reflections of the round trip turn with the one slab phase: the
    # edge grid reads that head, so S(105) matches S on a (9, 13) grid
    # within its error (a grid of 3 slab offsets misses it by 4.5e-6)
    f = forces._state_integrand(FIG_CFG)
    axes = forces._phase_axes(FIG_CFG)
    _, _, _, budget, edges, keep = forces._switch(f, SPEC6, FIG_CFG, axes)
    s, err = edges(105.0)[:2]
    monkeypatch.setattr(forces, "_phase_dims",
                        lambda *args: ((9, 13), forces._decay_ratios(
                            FIG_CFG, axes, args[3])))
    ref = forces._above_edges(forces._sampler(f), FIG_CFG, axes,
                              0.25 * budget)(105.0, keep=keep)[0]
    assert abs(s - ref) <= err < 1e-6


@pytest.mark.parametrize("cfg, terms, tail", [
    (CavityConfig(1.0, 2.0, STATIC, STATIC),
     {(1, 0): 0.3, (0, 1): 0.2, (1, -1): 0.1, (2, 1): 0.05}, None),
    (CavityConfig(1.0, 2.0, STATIC, STATIC2),
     {(1, 0, 0): 0.2, (0, 1, -1): 0.1, (1, -1, 1): 0.05, (0, 0, 2): 0.3},
     None),
    (CavityConfig(1.0, 2.0, STATIC3, STATIC3),
     {(1, 0): 0.3, (0, 1): 0.2, (4, 0): 0.1, (0, 4): 0.1, (4, 1): 0.05},
     (4, 4)),
    (CavityConfig(1.0, 2.0, STATIC3, STATIC3),
     {(1, 0): 0.3, (0, 1): 0.2, (2, 0): 0.1, (0, 2): 0.1, (2, 1): 0.05},
     (2, 4))],
    ids=["two-axis", "three-axis", "kept-by-the-average",
         "kept-by-a-two-offset-average"])
def test_edge_terms_match_the_dropped_harmonics(cfg, terms, tail):
    # a mean k^-3 plus harmonics c_j e^{-mu k} cos(j . (phi + s)) on the
    # phase grid (gap and common slab phase of identical slabs; both slab
    # phases and the gap phase of different ones), all linear in k for
    # static slabs: -S(x) is the integral over [x, inf) of the harmonics
    # the phase average drops, those with an index off the multiples of
    # the tail grid keep, sum of c_j Re[e^{(i w_j - mu) x} / (mu - i w_j)],
    # w_j = j . phi'.  The tail grid is the one the rule sizes at x, or one
    # given for STATIC3, whose phases fall like 0.39 (gap) and 0.29 (slab):
    # the edge terms sample them past the fourth harmonic, and a (4, 4)
    # average keeps (4, 0) and (0, 4), a (2, 4) average (2, 0) alone.
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
    edges = forces._above_edges(forces._sampler(f), cfg, axes, 1e-6)
    for x in (20.0, 30.0):
        s, err, _, keep = edges(x, keep=tail)
        dropped = 0.0
        for j, c in terms.items():
            if any(i % n for i, n in zip(j, keep)):
                w = sum(a * b for a, b in zip(j, rates))
                dropped += c * (cmath.exp(complex(-mu, w) * x)
                                / complex(mu, -w)).real
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
    s, err = forces._above_edges(forces._sampler(f), cfg, axes,
                                 1e-6)(x)[:2]
    assert variation > 5.0 * c * abs(g2(x)) / w ** 3
    assert abs(s - dropped) <= err
    assert err >= 0.9 * variation


def test_edge_terms_bound_a_slow_harmonic_by_its_modulus():
    # one harmonic k^-6 cos(phi_L - phi_R + sL - sR) of the mild pair's
    # slabs, whose phase difference runs at w = 2.9e-4 at x = 50: it is
    # slow, so S leaves it out, and it decays like k^-p with p = 6, so the
    # integral of its modulus past x, 2 |h| x / (p - 1) = 6.4e-10, bounds
    # it, 700 times below its first order 4 |h / w|
    axes = forces._phase_axes(CFG)
    x = 50.0

    def f(k, offsets):
        left, right = forces._phases(CFG, axes, k)[0][:2]
        return [k ** -6 * math.cos(left - right + sl - sr)
                for sl, sr, _ in offsets]

    s, err, terms, keep = forces._above_edges(forces._sampler(f), CFG, axes,
                                              1e-6)(x)
    h, dh, w, s2 = terms[1, -1, 0]
    assert s2 is None and keep[0] > 1 and s == 0.0
    p = -x * (dh / h).real
    assert p == pytest.approx(6.0, rel=1e-9)
    bound = 2.0 * abs(h) * x / (p - 1.0)
    assert bound < 2e-3 * abs(4.0 * h / w)
    dropped = integrate_interval(oracles._raw(f), x, 2000.0,
                                 SPEC9)[0]
    assert abs(dropped) <= err <= 1.001 * bound


def test_weak_bath_integral_builds_each_dense_band_once(monkeypatch):
    # both passes integrate the sized means of one bound per dense band,
    # the coarse pass at its own target, holding weak Z to at most 10,000
    # bath-integrand offset points; the bands are found at the first
    # candidate k0 = 1.3 x sqrt(200) for the coarse pass and again at the
    # switch point, for weak Z K = k0 itself, where the scan classifies no
    # point anew; fig Z's switch point lies past k0
    points, built, scans = [], [], []
    bounds, bands = forces._band_bounds, forces._bands

    def building(*args):
        built.append(args[2:])
        return bounds(*args)

    def scanning(cfg, k_end):
        scans.append(k_end)
        return bands(cfg, k_end)

    _count_z_points(monkeypatch, lambda k, offsets: points.append(
        len(offsets)))
    monkeypatch.setattr(forces, "_band_bounds", building)
    monkeypatch.setattr(forces, "_bands", scanning)
    forces._vacuum_bath.cache_clear()
    try:
        forces._vacuum_bath(WEAK_CFG, WEAK_SPEC)
        assert sum(points) <= 10000
        k0 = 1.3 * 10.0 * math.sqrt(2.0)
        assert scans == [pytest.approx(k0)] * 2
        assert built == list(bands(WEAK_CFG, k0)[0])
        scans.clear()
        forces._vacuum_bath(FIG_CFG, SPEC6)
        assert len(scans) == 2 and scans[0] < scans[1]
    finally:
        forces._vacuum_bath.cache_clear()


def _cold_bands(cfg, k_end):
    """``_bands(cfg, k_end)`` from a scan that classifies every point anew,
    leaving the scan memo as it found it."""
    kinds = dict(forces._kinds(cfg))
    forces._kinds.cache_clear()
    try:
        return forces._bands(cfg, k_end)
    finally:
        forces._kinds.cache_clear()
        forces._kinds(cfg).update(kinds)


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
    forces._kinds.cache_clear()
    try:
        forces._vacuum_bath(FIG_CFG, SPEC6)
    finally:
        forces._vacuum_bath.cache_clear()
    assert seen and len(seen) == len(set(seen))
    forces._kinds.cache_clear()
    k0 = 1.3 * 10.0 * math.sqrt(2.0)
    warm = forces._bands(FIG_CFG, k0)
    assert warm == _cold_bands(FIG_CFG, k0)
    assert forces._bands(FIG_CFG, 106.5) == _cold_bands(FIG_CFG, 106.5)


def test_band_ladder_reuses_the_scan_of_the_bath_integral(monkeypatch):
    # on the docs cavity the sigma ladder scans its shallow bands up to its
    # own switch point after Z scanned up to Z's; it classifies only the
    # point its scan end adds (213 before the scan memo) and finds the
    # bands a cold scan finds
    forces._vacuum_bath(FIG_CFG, SPEC6)
    kind, seen, scans = forces._kind, [], []
    bands = forces._bands

    def classifying(cfg, k):
        seen.append(k)
        return kind(cfg, k)

    def scanning(cfg, k_end):
        got = bands(cfg, k_end)
        scans.append((k_end, got))
        return got

    monkeypatch.setattr(forces, "_kind", classifying)
    monkeypatch.setattr(forces, "_bands", scanning)
    band_excess_curve(FIG_CFG, 5.0, DOCS_SIGMAS, SPEC6)
    (k_end, got), = scans
    assert seen == [k_end]
    assert got == _cold_bands(FIG_CFG, k_end)


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
    assert forces._pole_parts(cfg, lo)[4] > 0.0
    assert forces._pole_parts(cfg, hi)[4] > 0.0
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


@pytest.mark.parametrize("cfg, omega, spec", [
    (FIG_CFG, 5.0, SPEC6), (NONEQ_CFG, 3.0, NONEQ_SPEC)],
    ids=["docs", "mild"])
def test_force_ic_takes_the_band_excess_from_the_ladder(cfg, omega, spec):
    # one route for the band excess: force_ic of a band state is the
    # vacuum force plus the sweep-sigma ladder's excess at its one width,
    # bit for bit in value and error
    vacuum = force_ic(cfg, FieldState.vacuum(), spec)
    for sigma in (0.5, 20.0, 200.0):
        (x, ex), = band_excess_curve(cfg, omega, [sigma], spec)
        assert force_ic(cfg, FieldState.squeezed_band(sigma, omega),
                        spec) == (vacuum[0] + x, vacuum[1] + ex)


@pytest.mark.parametrize("cfg, spec", [
    (FIG_CFG, SPEC6), (WEAK_CFG, WEAK_SPEC), (NONEQ_CFG, NONEQ_SPEC)],
    ids=["fig", "weak", "mild"])
def test_bath_integral_evaluates_each_point_once(monkeypatch, cfg, spec):
    # the direct pass below the switch point reuses every raw value and
    # every sized band mean of the coarse pass, so no kernel call repeats
    # a (k, offsets) pair; that holds weak Z, whose direct pass repeated
    # 2,620 of its 8,742 offset points, to at most 6,500
    seen = collections.Counter()

    def counting(k, offsets):
        seen[k, tuple(offsets)] += 1

    _count_z_points(monkeypatch, counting)
    forces._vacuum_bath.cache_clear()
    try:
        forces._vacuum_bath(cfg, spec)
    finally:
        forces._vacuum_bath.cache_clear()
    assert seen and max(seen.values()) == 1
    if cfg is WEAK_CFG:
        assert sum(len(offsets) for _, offsets in seen) <= 6500


@pytest.mark.parametrize("cfg, spec, tail", [
    (NONEQ_CFG, NONEQ_SPEC, (2, 2, 2)), (FIG_CFG, SPEC6, (4, 4)),
    (WEAK_CFG, WEAK_SPEC, (3, 4))],
    ids=["mild", "fig", "weak"])
def test_tail_grid_follows_the_decay_ratios(monkeypatch, cfg, spec, tail):
    # past the switch point the mild pair's ratios are below 1e-5, so its
    # tail averages 2 offsets per phase (was 4); the docs cavity's gap
    # phase, whose first harmonic is 1.2e-2 at a ratio of 6.5e-4, keeps 4;
    # the weak pair's first orders fit the share on the probe's one grid at
    # k0 = 1.3 x sqrt(200), so it switches there with no edge terms
    seen = []
    switch = forces._switch

    def recording(*args):
        out = switch(*args)
        seen.append(out)
        return out

    monkeypatch.setattr(forces, "_switch", recording)
    forces._vacuum_bath(cfg, spec)
    assert [out[5] for out in seen] == [tail]
    if cfg is WEAK_CFG:
        K, s_K = seen[0][:2]
        assert K == forces._first_switch(spec, cfg) == pytest.approx(
            18.385, abs=1e-3)
        assert s_K == 0.0


def test_mild_bath_integral_offset_points(monkeypatch):
    # k0 = 4 gap periods rather than 1.3 (omega0 + 100 gamma0), the switch
    # point near 50 rather than 213 (7,712 points with the probe march),
    # and phase grids sized by the decay ratios past k0 (2,701 points with
    # 4 offsets on every phase): 2 offsets per phase in the tail's 15
    # averages and 3 in the edge terms hold mild's Z to at most 1,620
    assert _offset_points(monkeypatch, NONEQ_CFG, NONEQ_SPEC) <= 1620


def test_direct_pass_reuses_every_coarse_node(monkeypatch):
    # the coarse pass over [0, k0] ends its last panel at k0, which no band
    # of the mild pair holds, so k0 is a breakpoint of the direct pass over
    # [0, K] too: its panels there are the coarse pass's and it reuses all
    # 375 of its nodes (135 were left unused with K closing the last panel)
    passes = []
    interval = forces.integrate_interval

    def tracing(f, *args, **kw):
        nodes = set()
        passes.append(nodes)

        def g(k):
            nodes.add(k)
            return f(k)
        return interval(g, *args, **kw)

    monkeypatch.setattr(forces, "integrate_interval", tracing)
    forces._vacuum_bath(NONEQ_CFG, NONEQ_SPEC)
    coarse, direct = passes[:2]
    assert len(coarse) == 375
    assert coarse <= direct


@pytest.mark.parametrize("cfg, spec, state, baths", [
    (FIG_CFG, SPEC6, FieldState.thermal(76.3302), (76.3302, 76.3302)),
    (NONEQ_CFG, NONEQ_SPEC, FieldState.thermal(5.0), (3.0, 8.0))],
    ids=["fig", "mild"])
def test_zero_temperature_bath_integral_cancels_from_the_total(
        monkeypatch, cfg, spec, state, baths):
    # Z enters the state part with a minus sign and the bath part with a
    # plus sign, so moving the memoized Z by an ulp or by 1e-6 |Z| moves the
    # total only by the rounding that err_total allows for it
    z, ez = forces._vacuum_bath(cfg, spec)
    out = force_total(cfg, state, *baths, spec)
    for moved in (math.nextafter(z, math.inf), math.nextafter(z, -math.inf),
                  z + 1e-6 * abs(z), z - 1e-6 * abs(z)):
        monkeypatch.setattr(forces, "_vacuum_bath",
                            lambda c, s, moved=moved: (moved, ez))
        shifted = force_total(cfg, state, *baths, spec)
        assert abs(shifted.total - out.total) <= \
            forces._CANCEL_ROUNDING * abs(z)
        if abs(moved - z) > 1e-7 * abs(z):
            # each part moves with Z
            assert shifted.bath - out.bath == pytest.approx(moved - z,
                                                            rel=1e-6)
            assert shifted.ic - out.ic == pytest.approx(z - moved, rel=1e-6)


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
    "fig-state": (lambda: oracles.real_axis_ic(FIG_CFG, FieldState.vacuum(),
                                               SPEC6), 2e4, True),
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
    # _NOISE_EPS * k up to the deepest k the mapped tail samples, on the
    # tail grid Z takes
    for cfg, spec in ((FIG_CFG, SPEC6), (NONEQ_CFG, NONEQ_SPEC)):
        grids = set()
        average = forces._phase_average

        def recording(f, k, dims):
            grids.add(dims)
            return average(f, k, dims)

        monkeypatch.setattr(forces, "_phase_average", recording)
        *_, ks = _recorded_tail(monkeypatch,
                                lambda: forces._vacuum_bath(cfg, spec))
        monkeypatch.undo()
        (dims,) = grids
        for f in _both_integrands(cfg):
            for k in (1e2, 1e3, max(ks)):
                h = 1e-7 * k
                d4 = []
                for j in range(8):
                    x = k * (1.0 + 1e-5 * j)
                    v = [forces._phase_average(f, x + i * h, dims)
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
        forces._oscillatory_integral(oracles._raw(slow), slow, SPEC6,
                                     CavityConfig(1.0, 0.5, VACM, VACM))
    assert exc.value.panels <= forces._MAX_TAIL_PANELS
    assert exc.value.partial > 0.0


def test_direct_pass_stops_at_the_evaluation_noise():
    # at rel_tol 1e-14 the mild pair's Z switches at K = 478, where the
    # quarter budget (4.5e-15) lies below the evaluation noise summed over
    # [0, K]; the direct pass's absolute tolerance takes the floor
    # 0.5 _NOISE_EPS K^2 (2.3e-11) instead and converges within 2,000
    # panels.  Without the floor it chases rounding and runs out of panels
    spec = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-17, max_panels=2000)
    v, e = force_bath(NONEQ_CFG, 3.0, 8.0, spec)
    ref, ref_err = force_bath(NONEQ_CFG, 3.0, 8.0, NONEQ_SPEC)
    assert abs(v - ref) <= e + ref_err


def test_bath_excess_takes_one_kernel_pass(monkeypatch):
    # the bath integrand is linear in the occupations, so the excess over
    # its zero-temperature value is one weighted kernel call per node with
    # beta k <= 40 (and one for the endpoint check), with Z memoized; past
    # beta k = 40 the weights' tail is below rounding and the nodes of
    # [0, 120 / beta] call no kernel
    forces._vacuum_bath(NONEQ_CFG, NONEQ_SPEC)
    calls, nodes = [], []
    interval = forces.integrate_interval

    def tracing(f, *args, **kw):
        def g(k):
            nodes.append(k)
            return f(k)
        return interval(g, *args, **kw)

    _count_points(monkeypatch, "bath_factors_of", calls.append)
    monkeypatch.setattr(forces, "integrate_interval", tracing)
    forces._bath_parts(NONEQ_CFG, 3.0, 8.0, NONEQ_SPEC)
    inside = [k for k in nodes if 3.0 * k <= 40.0]
    assert inside and len(inside) < len(nodes)
    assert len(calls) == len(inside) + 1
    assert max(calls) <= 40.0 / 3.0


@pytest.mark.parametrize("cfg, spec, beta, baths, same", [
    (FIG_CFG, SPEC6, 76.3302, (76.3302, 76.3302), True),
    (WEAK_CFG, WEAK_SPEC, 76.3302, (76.3302, 76.3302), True),
    (NONEQ_CFG, NONEQ_SPEC, 5.0, (3.0, 8.0), True),
    (WEAK_CFG, WEAK_SPEC, 5.0, (4.0, 12.0), False)],
    ids=["fig", "weak", "mild", "weak_hot"])
def test_excesses_skip_only_what_rounding_hides(monkeypatch, cfg, spec,
                                                beta, baths, same):
    # the state and bath excesses against the same integrands without the
    # cut at beta k = _WEIGHT_CUT, on the same panels over [0, 120 / beta]:
    # within their estimates everywhere, and forces bit-identical on the
    # three workload cavities (on the hot weak pair resonances and bound
    # gap modes lie between 40 / beta and 120 / beta)
    def run():
        x = forces._thermal_excess(forces._bracket(cfg), beta, spec,
                                   forces._breakpoints(cfg.left, cfg.right))
        y = forces._bath_excess(cfg, *baths, spec)
        out = force_total(cfg, FieldState.thermal(beta), *baths, spec)
        return x, y, out

    x, y, out = run()
    monkeypatch.setattr(forces, "_WEIGHT_CUT", math.inf)
    # a fresh state excess, or out0 would read the memo of the first run
    forces._cavity_excess.cache_clear()
    x0, y0, out0 = run()
    for (v, e), (v0, _) in ((x, x0), (y, y0)):
        assert abs(v - v0) <= e
    if same:
        assert (out.ic, out.bath, out.total) == (out0.ic, out0.bath,
                                                 out0.total)


def test_bath_excess_matches_hot_minus_cold():
    # the excess weights 2 / (e^{beta k} - 1) against the difference of two
    # full evaluations where that still resolves them, and past beta k ~ 37,
    # where coth(beta k / 2) rounds to 1 and the difference to zero
    a, d = NONEQ_CFG.gap, NONEQ_CFG.width
    tl, tr = MILD_L.as_tuple(), MILD_R.as_tuple()
    factors = core.bath_factors_of(a, d, tl, tr)

    def excess(k, bl, br):
        return core.bath_weigh(factors(k), core.occupation_excess(bl, k),
                               core.occupation_excess(br, k))

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
