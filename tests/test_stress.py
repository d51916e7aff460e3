"""Pointwise stress integrands against closed forms and brute integration."""

import math
import random

import numpy as np
import pytest

from casimir1d.errors import RegionUnsupportedError
from casimir1d.kernels import core
from casimir1d.material import Material, fd_weight
from casimir1d.modes import green_function
from casimir1d.scattering import CavityConfig
from casimir1d.states import FieldState
from casimir1d.stress import (
    RegionPoint,
    pressure_difference,
    slab_mod_integral,
    txx_bath_integrand,
    txx_ic_integrand,
)

MILD_L = Material(3.0, 2.0, 0.5)
MILD_R = Material(2.5, 1.5, 1.0)
FIG = Material(10.0, 10.0, 0.1)
STATIC = Material(10.0, 10.0, model="static_nd")
STATIC2 = Material(4.0, 3.0, model="static_nd")
VACM = Material(1.0, 0.0)

CFG = CavityConfig(1.0, 0.4, MILD_L, MILD_R)
FIG_CFG = CavityConfig(1.0, 100.0, FIG, FIG)

EXT_PT = RegionPoint(-1.31, "exterior_left")
GAP_PT = RegionPoint(0.13, "gap")


def test_region_point_validation():
    p = RegionPoint.locate(CFG, -2.0)
    assert p.region == "exterior_left"
    with pytest.raises(RegionUnsupportedError):
        txx_bath_integrand(CFG, (1.0, 1.0), RegionPoint(-0.7, "gap"), 1.0)
    with pytest.raises(RegionUnsupportedError):
        txx_bath_integrand(CFG, (1.0, 1.0), RegionPoint.locate(CFG, -0.7), 1.0)
    with pytest.raises(RegionUnsupportedError):
        txx_ic_integrand(CFG, FieldState.vacuum(), RegionPoint(0.6, "gap"),
                         1.0)
    with pytest.raises(ValueError):
        txx_bath_integrand(CFG, (1.0, 1.0), EXT_PT, -2.0)
    with pytest.raises(ValueError):
        txx_ic_integrand(CFG, FieldState.vacuum(), EXT_PT, 1.0,
                         component="xy")
    with pytest.raises(ValueError, match="unknown component 'xy'"):
        txx_bath_integrand(CFG, (1.0, 1.0), EXT_PT, 1.0, component="xy")
    for k in (0.0, -1.5, math.nan):
        with pytest.raises(ValueError, match="k must be positive"):
            txx_ic_integrand(CFG, FieldState.vacuum(), EXT_PT, k)


def test_slab_mod_integral_brute():
    # closed form == numerical integral of the anchored two-wave modulus
    nodes, wts = np.polynomial.legendre.leggauss(120)
    rng = random.Random(42)
    for _ in range(12):
        om = rng.uniform(0.3, 6.0)
        d = rng.uniform(0.1, 2.5)
        n = complex(rng.uniform(0.0, 2.5), rng.uniform(0.0, 1.5))
        P = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        Q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        s = -1j * om
        u = 0.5 * d * (nodes + 1.0)
        f = P * np.exp(-s * n * u) + Q * np.exp(s * n * (u - 2.0 * d))
        brute = 0.5 * d * np.sum(wts * np.abs(f) ** 2)
        assert slab_mod_integral(P, Q, n, d, om) == pytest.approx(
            brute, rel=1e-11)


def test_slab_mod_integral_limits():
    # real index: pure-phase waves, average modulus (|P|^2+|Q|^2) d + cross
    val = slab_mod_integral(1.0, 0.5, complex(2.0, 0.0), 0.7, 1.3)
    nodes, wts = np.polynomial.legendre.leggauss(80)
    u = 0.35 * (nodes + 1.0)
    f = np.exp(1.3j * 2.0 * u) + 0.5 * np.exp(-1.3j * 2.0 * (u - 1.4))
    assert val == pytest.approx(0.35 * np.sum(wts * np.abs(f) ** 2),
                                rel=1e-12)
    # stop band (Re n = 0): evanescent waves only
    val = slab_mod_integral(1.0 + 0.2j, 0.4j, complex(0.0, 1.5), 0.6, 2.0)
    u = 0.3 * (nodes + 1.0)
    f = ((1.0 + 0.2j) * np.exp(2j * 1.5j * u)
         + 0.4j * np.exp(-2j * 1.5j * (u - 1.2)))
    assert val == pytest.approx(0.3 * np.sum(wts * np.abs(f) ** 2),
                                rel=1e-12)
    # opaque: the growing-exponent pairing must not overflow
    assert math.isfinite(slab_mod_integral(1.0, 0.3, complex(1.0, 7.0),
                                           100.0, 10.0))


def test_bath_zero_sources():
    cfg = CavityConfig(1.0, 0.4, VACM, VACM)
    for om in (0.5, 3.0):
        assert txx_bath_integrand(cfg, (1.0, 2.0), EXT_PT, om) == 0.0
    cfg = CavityConfig(1.0, 0.4, STATIC, STATIC2)
    for om in (0.5, 3.0, 11.0):
        assert txx_bath_integrand(cfg, (1.0, 2.0), GAP_PT, om) == 0.0


def test_positivity_of_spectral_factor():
    rng = random.Random(7)
    for _ in range(50):
        om = rng.uniform(1e-3, 30.0)
        for mat in (MILD_L, MILD_R, FIG):
            assert fd_weight(mat, om) >= 0.0
            assert fd_weight(mat, om) * core.coth_half(2.0, om) >= 0.0


def test_gap_x_independence():
    temps = (2.0, 5.0)
    st = FieldState.thermal(3.0)
    for om in (0.9, 4.2):
        bvals = []
        ivals = []
        for i in range(10):
            x = -0.45 + 0.9 * i / 9.0
            p = RegionPoint(x, "gap")
            bvals.append(txx_bath_integrand(CFG, temps, p, om))
            ivals.append(txx_ic_integrand(CFG, st, p, om))
        assert max(bvals) - min(bvals) <= 1e-10 * abs(bvals[0])
        assert max(ivals) - min(ivals) <= 1e-10 * abs(ivals[0])


def test_exterior_x_independence():
    st = FieldState.thermal(3.0)
    vals = [txx_ic_integrand(CFG, st, RegionPoint(x, "exterior_left"), 2.2)
            for x in (-5.0, -2.4, -1.1, -0.93)]
    assert max(vals) - min(vals) <= 1e-10 * abs(vals[0])
    vals = [txx_ic_integrand(CFG, st, RegionPoint(x, "exterior_right"), 2.2)
            for x in (0.91, 1.5, 4.0)]
    assert max(vals) - min(vals) <= 1e-10 * abs(vals[0])


def test_bath_brute_force_source_integration():
    # fully numerical oracle: integrate the Green bilinears over the source
    # coordinate in each slab (Gauss-Legendre) with finite-difference d_x
    nodes, wts = np.polynomial.legendre.leggauss(80)
    h = 1e-5
    temps = (2.0, 7.0)
    x1, x2, x3, x4 = CFG.interfaces

    def brute(x, om):
        total = 0.0
        for mat, beta, (lo, hi) in ((MILD_L, temps[0], (x1, x2)),
                                    (MILD_R, temps[1], (x3, x4))):
            fw = fd_weight(mat, om)
            acc = 0.0
            for t, wq in zip(nodes, wts):
                xp = 0.5 * (lo + hi) + 0.5 * (hi - lo) * t
                g0 = green_function(CFG, x, xp, om)
                dg = (green_function(CFG, x + h, xp, om)
                      - green_function(CFG, x - h, xp, om)) / (2.0 * h)
                acc += wq * (abs(dg) ** 2 + om * om * abs(g0) ** 2)
            acc *= 0.5 * (hi - lo)
            total += core.coth_half(beta, om) * 2.0 * om * om * fw * acc
        return total

    for x, region in ((-1.31, "exterior_left"), (0.13, "gap"),
                      (1.27, "exterior_right")):
        for om in (0.8, 2.1):
            ours = txx_bath_integrand(CFG, temps, RegionPoint(x, region), om)
            assert ours == pytest.approx(brute(x, om), rel=2e-6)


def test_extint_matches_closed_forms():
    # 20 random frequencies at the long-slab parameters: [Ext - Int] of the
    # pointwise integrands reproduces the reduced kernel integrands
    cfg = FIG_CFG
    temps = (76.32, 76.32)
    st = FieldState.thermal(76.32)
    matL, matR = cfg.left.as_tuple(), cfg.right.as_tuple()
    p_ext = RegionPoint(cfg.interfaces[0] - 0.5, "exterior_left")
    p_gap = RegionPoint(0.2, "gap")
    rng = random.Random(2026)
    for _ in range(20):
        om = rng.uniform(0.2, 20.0)
        diff_b = (txx_bath_integrand(cfg, temps, p_ext, om)
                  - txx_bath_integrand(cfg, temps, p_gap, om))
        closed_b = core.bath_integrand(om, cfg.gap, cfg.width, matL, matR,
                                       *temps)
        assert diff_b == pytest.approx(closed_b, rel=1e-8, abs=1e-20)
        diff_i = (txx_ic_integrand(cfg, st, p_ext, om)
                  - txx_ic_integrand(cfg, st, p_gap, om))
        closed_i = (om * core.coth_half(76.32, om)
                    * core.ic_bracket(om, cfg.gap, cfg.width, matL, matR))
        assert diff_i == pytest.approx(closed_i, rel=1e-8, abs=1e-16)


def test_extint_dissipationless_matches_reduced_bracket():
    cfg = CavityConfig(1.0, 0.8, STATIC, STATIC2)
    st = FieldState.thermal(2.0)
    p_ext = RegionPoint(-2.0, "exterior_left")
    p_gap = RegionPoint(0.1, "gap")
    matL, matR = cfg.left.as_tuple(), cfg.right.as_tuple()
    for om in (0.7, 3.1, 9.4):
        diff = (txx_ic_integrand(cfg, st, p_ext, om)
                - txx_ic_integrand(cfg, st, p_gap, om))
        closed = (om * core.coth_half(2.0, om)
                  * core.nodiss_bracket(om, cfg.gap, cfg.width, matL, matR))
        assert diff == pytest.approx(closed, rel=1e-9)


def test_ic_vacuum_collapses():
    cfg = CavityConfig(1.0, 0.4, VACM, VACM)
    st = FieldState.vacuum()
    for k in (0.3, 2.0):
        e = txx_ic_integrand(cfg, st, EXT_PT, k)
        i = txx_ic_integrand(cfg, st, GAP_PT, k)
        # each side is the free-field pressure integrand 2k, no difference
        assert e == pytest.approx(2.0 * k, rel=1e-12)
        assert e - i == pytest.approx(0.0, abs=1e-12 * abs(e))


def test_ic_thermal_small_k_finite():
    st = FieldState.thermal(76.32)
    v8 = txx_ic_integrand(CFG, st, GAP_PT, 1e-8)
    v9 = txx_ic_integrand(CFG, st, GAP_PT, 1e-9)
    assert math.isfinite(v8) and v8 > 0.0
    assert v8 == pytest.approx(v9, rel=1e-4)


def test_component_tt_equals_xx():
    temps = (2.0, 5.0)
    st = FieldState.thermal(3.0)
    for p in (EXT_PT, GAP_PT):
        assert txx_bath_integrand(CFG, temps, p, 1.7, component="tt") == \
            txx_bath_integrand(CFG, temps, p, 1.7, component="xx")
        assert txx_ic_integrand(CFG, st, p, 1.7, component="tt") == \
            txx_ic_integrand(CFG, st, p, 1.7, component="xx")


def test_component_tx_heat_flow():
    sym = CavityConfig(1.0, 0.4, FIG, FIG)
    # equal temperatures, identical slabs: no net flux through the gap
    assert txx_bath_integrand(sym, (2.0, 2.0), GAP_PT, 3.0,
                              component="tx") == 0.0
    # hot left slab: energy flows rightward through the gap, and both
    # exteriors carry outgoing (away from the cavity) radiation
    flux = txx_bath_integrand(sym, (1.0, 5.0), GAP_PT, 3.0, component="tx")
    assert flux > 0.0
    left = txx_bath_integrand(sym, (1.0, 5.0), EXT_PT, 3.0, component="tx")
    right = txx_bath_integrand(sym, (1.0, 5.0),
                               RegionPoint(1.27, "exterior_right"), 3.0,
                               component="tx")
    assert left < 0.0 < right


def test_component_tx_state_flux():
    # the state part's energy flux at thermal beta = 2 and k = 2.2.  The gap
    # is vacuum, so the flux is the same at every point of it; between
    # identical slabs it is zero, and their two exteriors carry equal
    # fluxes toward the cavity, whose slabs absorb the field
    st = FieldState.thermal(2.0)
    flux = [txx_ic_integrand(CavityConfig(1.0, 0.7, MILD_L, MILD_R), st,
                             RegionPoint(x, "gap"), 2.2, component="tx")
            for x in (0.0, 0.3)]
    assert flux[0] == pytest.approx(0.76049432629172, rel=1e-12)
    assert flux[1] == pytest.approx(flux[0], rel=1e-12)
    sym = CavityConfig(1.0, 0.7, MILD_L, MILD_L)
    assert abs(txx_ic_integrand(sym, st, RegionPoint(0.0, "gap"), 2.2,
                                component="tx")) <= 1e-15
    left = txx_ic_integrand(sym, st, EXT_PT, 2.2, component="tx")
    right = txx_ic_integrand(sym, st, RegionPoint(1.27, "exterior_right"),
                             2.2, component="tx")
    assert left == pytest.approx(0.8564809400, rel=1e-10)
    assert right == pytest.approx(-left, rel=1e-12)


def test_pressure_difference_report():
    # long-slab parameters at omega = 1/a
    dev_ic, dev_bath = pressure_difference(
        FIG_CFG, (76.32, 76.32), FieldState.thermal(76.32), [1.0])
    assert dev_ic <= 1e-8
    assert dev_bath <= 1e-8
    # vacuum slabs: nothing radiates, no pressure difference
    cfg = CavityConfig(1.0, 0.4, VACM, VACM)
    dev_ic, dev_bath = pressure_difference(cfg, (2.0, 2.0),
                                           FieldState.vacuum(), [0.5, 2.0])
    assert dev_bath == 0.0
    assert dev_ic <= 1e-13
    # dissipationless slabs: bath side exactly zero, state side matches
    cfg = CavityConfig(1.0, 0.8, STATIC, STATIC2)
    dev_ic, dev_bath = pressure_difference(cfg, (2.0, 3.0),
                                           FieldState.thermal(2.0),
                                           [0.7, 1.9, 6.0])
    assert dev_bath == 0.0
    assert dev_ic <= 1e-8
    with pytest.raises(ValueError):
        pressure_difference(CFG, (1.0, 1.0), FieldState.vacuum(), [])


def test_bath_mirror_consistency():
    # evaluating at the right exterior must equal the mirrored layout's left
    cfgm = CFG.mirrored()
    val = txx_bath_integrand(CFG, (2.0, 7.0), RegionPoint(1.5,
                                                          "exterior_right"),
                             2.4)
    ref = txx_bath_integrand(cfgm, (7.0, 2.0),
                             RegionPoint(-1.5, "exterior_left"), 2.4)
    assert val == ref


def test_non_finite_points_are_refused_by_name():
    # a NaN or infinite point used to be filed as exterior_right: the state
    # integrand returned NaN and the bath integrand refused the mirrored
    # label exterior_left
    for x in (math.nan, math.inf, -math.inf):
        p = RegionPoint(x, "exterior_right")
        with pytest.raises(ValueError, match="x must be finite"):
            txx_ic_integrand(CFG, FieldState.thermal(2.0), p, 1.3)
        with pytest.raises(ValueError, match="x must be finite"):
            txx_bath_integrand(CFG, (1.0, 2.0), p, 1.3)
        with pytest.raises(ValueError, match="x must be finite"):
            RegionPoint.locate(CFG, x)
