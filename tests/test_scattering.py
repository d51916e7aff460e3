"""Scattering coefficients, mode functions and the Green function."""

import cmath
import math
import random

import numpy as np
import pytest

from casimir1d.errors import RegionUnsupportedError
from casimir1d.material import Material, refractive_index
from casimir1d.modes import (
    PHI_GREATER,
    PHI_LESS,
    ModeFunction,
    cavity_coefficients,
    classify_region,
    green_function,
    mode_deriv,
    mode_eval,
    slab_coefficients,
)
from casimir1d.scattering import CavityConfig
from oracle_modes import eval_greater, solve_greater

MILD_L = Material(3.0, 2.0, 0.5)
MILD_R = Material(2.5, 1.5, 1.0)
FIG = Material(10.0, 10.0, 0.1)
STATIC = Material(10.0, 10.0, model="static_nd")
STATIC2 = Material(4.0, 3.0, model="static_nd")
VACM = Material(1.0, 0.0)

CFG = CavityConfig(1.0, 0.4, MILD_L, MILD_R)


def test_config_validation():
    with pytest.raises(ValueError):
        CavityConfig(0.0, 1.0, MILD_L, MILD_R)
    with pytest.raises(ValueError):
        CavityConfig(1.0, -1.0, MILD_L, MILD_R)
    with pytest.raises(TypeError):
        CavityConfig(1.0, 1.0, MILD_L, "gold")
    assert CFG.interfaces == (-0.9, -0.5, 0.5, 0.9)
    m = CFG.mirrored()
    assert m.left is MILD_R and m.right is MILD_L


def test_classify_tiebreaks():
    x1, x2, x3, x4 = CFG.interfaces
    assert classify_region(CFG, x1) == "exterior_left"
    assert classify_region(CFG, x2) == "gap"
    assert classify_region(CFG, x3) == "gap"
    assert classify_region(CFG, x4) == "exterior_right"
    assert classify_region(CFG, (x1 + x2) / 2) == "slab_left"
    assert classify_region(CFG, (x3 + x4) / 2) == "slab_right"


def test_slab_zero_width():
    r, t = slab_coefficients(MILD_L, 0.0, 3.0)
    assert r == 0.0 and t == 1.0


def test_slab_lossless_unitarity():
    for om in (0.2, 1.0, 4.4, 9.0, 17.0):
        r, t = slab_coefficients(STATIC, 1.1, om)
        assert abs(r) ** 2 + abs(t) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_slab_thick_limit():
    om = 3.0
    n = refractive_index(FIG, om)
    rn = (1.0 - n) / (1.0 + n)
    d = 20.0 / (om * n.imag)  # omega Im(n) d = 20
    r, t = slab_coefficients(FIG, d, om)
    assert r == pytest.approx(rn, rel=1e-12)
    assert abs(t) < 1e-8
    paired = abs(t) ** 2 * math.exp(2.0 * om * n.imag * d)
    assert paired == pytest.approx(16.0 * abs(n) ** 2 / abs(1.0 + n) ** 4,
                                   rel=1e-9)


def test_slab_convergence_exponent():
    # |r(d) - r_n| must decay as e^{-2 omega Im(n) d}: fit the log-slope
    om = 3.0
    n = refractive_index(FIG, om)
    rn = (1.0 - n) / (1.0 + n)
    rate = 2.0 * om * n.imag
    ds = [x / rate for x in (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)]
    gaps = [abs(slab_coefficients(FIG, d, om)[0] - rn) for d in ds]
    slope = np.polyfit(ds, np.log(gaps), 1)[0]
    assert slope == pytest.approx(-rate, rel=0.05)


def test_slab_negative_frequency():
    r, t = slab_coefficients(MILD_L, 0.7, 2.5)
    rm, tm = slab_coefficients(MILD_L, 0.7, -2.5)
    assert rm == pytest.approx(r.conjugate(), rel=1e-14)
    assert tm == pytest.approx(t.conjugate(), rel=1e-14)


def test_cavity_vacuum():
    cfg = CavityConfig(1.0, 2.0, VACM, VACM)
    ss = cavity_coefficients(cfg, 3.1)
    assert abs(ss.Rgt) < 1e-14
    assert abs(ss.T) == pytest.approx(1.0, abs=1e-13)
    assert abs(ss.Cgt) == pytest.approx(1.0, abs=1e-13)
    assert abs(ss.Dgt) < 1e-14


def test_cavity_identical_slabs_mirror():
    cfg = CavityConfig(1.0, 0.8, FIG, FIG)
    for om in (0.7, 3.3, 9.9):
        ss = cavity_coefficients(cfg, om)
        assert abs(ss.Clt) == pytest.approx(abs(ss.Cgt), rel=1e-12)
        assert abs(ss.Dlt) == pytest.approx(abs(ss.Dgt), rel=1e-12)


def test_cavity_dissipationless_unitarity():
    cfg = CavityConfig(1.0, 0.8, STATIC, STATIC2)
    worst = 0.0
    for i in range(200):
        om = 0.05 + 25.0 * i / 199.0
        ss = cavity_coefficients(cfg, om)
        worst = max(worst, abs(abs(ss.Rgt) ** 2 + abs(ss.T) ** 2 - 1.0))
    assert worst <= 1e-10


def test_cavity_dissipative_subunitarity():
    cfg = CavityConfig(1.0, 0.8, FIG, MILD_R)
    for om in (0.5, 2.0, 8.0, 10.0):
        ss = cavity_coefficients(cfg, om)
        assert abs(ss.Rgt) ** 2 + abs(ss.T) ** 2 < 1.0


def test_cavity_conjugation():
    fields = ("rL", "tL", "rR", "tR", "Rgt", "T", "Cgt", "Dgt", "Clt",
              "Dlt", "at")
    for om in (0.9, 4.2):
        sp = cavity_coefficients(CFG, om)
        sm = cavity_coefficients(CFG, -om)
        for f in fields:
            assert getattr(sm, f) == pytest.approx(
                getattr(sp, f).conjugate(), rel=1e-12), f


def test_cavity_vs_brute_force():
    a, d = 1.0, 0.4
    rng = random.Random(77)
    for _ in range(25):
        om = rng.uniform(0.2, 8.0)
        nL = refractive_index(MILD_L, om)
        nR = refractive_index(MILD_R, om)
        b = solve_greater(om, a, d, nL, nR)
        bl = solve_greater(om, a, d, nR, nL)
        ss = cavity_coefficients(CFG, om)
        assert ss.Rgt == pytest.approx(b["R"], rel=1e-9)
        assert ss.T == pytest.approx(b["T"], rel=1e-9)
        assert ss.Cgt == pytest.approx(b["C"], rel=1e-9)
        assert ss.Dgt == pytest.approx(b["D"], rel=1e-9)
        # the left-incident mode inside both slabs
        mode = ModeFunction(PHI_GREATER, ss)
        for x in (-0.85, -0.7, -0.55, 0.55, 0.7, 0.85):
            vb, db = eval_greater(b, om, a, d, nL, nR, x)
            assert mode_eval(mode, x) == pytest.approx(vb, rel=1e-9)
            assert mode_deriv(mode, x) == pytest.approx(db, rel=1e-9)
        # lesser-mode gap amplitudes from the mirrored brute solve: the
        # mirror maps e^{-sx} <-> e^{sx}, so C pairs with e^{s x}
        assert abs(ss.Clt) == pytest.approx(abs(bl["C"]), rel=1e-9)
        assert abs(ss.Dlt) == pytest.approx(abs(bl["D"]), rel=1e-9)
        # single-slab fields agree with the standalone builder
        assert (ss.rL, ss.tL) == slab_coefficients(MILD_L, d, om)
        assert (ss.rR, ss.tR) == slab_coefficients(MILD_R, d, om)


def test_mode_vacuum_free_wave():
    cfg = CavityConfig(1.0, 2.0, VACM, VACM)
    ss = cavity_coefficients(cfg, 2.0)
    mode = ModeFunction(PHI_GREATER, ss)
    s = ss.at
    for x in (-5.0, -2.0, -0.7, 0.0, 1.3, 2.6, 8.0):
        assert mode_eval(mode, x) == pytest.approx(cmath.exp(-s * x),
                                                   rel=1e-12)
        assert mode_deriv(mode, x) == pytest.approx(-s * cmath.exp(-s * x),
                                                    rel=1e-12)


def test_mode_matches_brute_force():
    a, d = 1.0, 0.4
    rng = random.Random(13)
    nL = refractive_index(MILD_L, 1.9)
    nR = refractive_index(MILD_R, 1.9)
    b = solve_greater(1.9, a, d, nL, nR)
    ss = cavity_coefficients(CFG, 1.9)
    gmode = ModeFunction(PHI_GREATER, ss)
    lmode = ModeFunction(PHI_LESS, ss)
    bl = solve_greater(1.9, a, d, nR, nL)
    for _ in range(40):
        x = rng.uniform(-3.0, 3.0)
        vb, db = eval_greater(b, 1.9, a, d, nL, nR, x)
        assert mode_eval(gmode, x) == pytest.approx(vb, rel=1e-9)
        assert mode_deriv(gmode, x) == pytest.approx(db, rel=1e-9)
        # lesser mode: mirror of the greater mode of the swapped geometry
        vbl, dbl = eval_greater(bl, 1.9, a, d, nR, nL, -x)
        assert mode_eval(lmode, x) == pytest.approx(vbl, rel=1e-9)
        assert mode_deriv(lmode, x) == pytest.approx(-dbl, rel=1e-9)


def test_mode_continuity():
    eps = 1e-9
    for om in (0.9, 5.5, 11.0):
        ss = cavity_coefficients(CFG, om)
        for kind in (PHI_GREATER, PHI_LESS):
            mode = ModeFunction(kind, ss)
            for xi in CFG.interfaces:
                lv = mode_eval(mode, xi - eps)
                rv = mode_eval(mode, xi + eps)
                scale = max(abs(lv), 1.0)
                assert abs(lv - rv) / scale < 1e-6
                ld = mode_deriv(mode, xi - eps)
                rd = mode_deriv(mode, xi + eps)
                assert abs(ld - rd) / max(abs(ld), 1.0) < 1e-5


def test_mode_reality():
    ssp = cavity_coefficients(CFG, 2.7)
    ssm = cavity_coefficients(CFG, -2.7)
    for x in (-2.0, -0.7, 0.1, 0.75, 4.0):
        vp = mode_eval(ModeFunction(PHI_GREATER, ssp), x)
        vm = mode_eval(ModeFunction(PHI_GREATER, ssm), x)
        assert vm == pytest.approx(vp.conjugate(), rel=1e-12)


def test_mode_wronskian():
    # W(phi_less, phi_greater) = -2 s T, constant across all five regions
    for om in (1.3, 6.1):
        ss = cavity_coefficients(CFG, om)
        g = ModeFunction(PHI_GREATER, ss)
        l = ModeFunction(PHI_LESS, ss)
        expected = -2.0 * ss.at * ss.T
        for x in (-2.5, -0.7, 0.0, 0.3, 0.72, 3.1):
            w = (mode_eval(l, x) * mode_deriv(g, x)
                 - mode_deriv(l, x) * mode_eval(g, x))
            assert w == pytest.approx(expected, rel=1e-10)


def test_mode_opaque_no_overflow():
    # the anchored assembly must survive extreme opacity
    cfg = CavityConfig(1.0, 100.0, FIG, FIG)
    ss = cavity_coefficients(cfg, 10.0)
    mode = ModeFunction(PHI_GREATER, ss)
    for x in (-120.0, -60.0, -0.2, 0.4, 60.0, 130.0):
        v = mode_eval(mode, x)
        assert cmath.isfinite(v)
    # deep inside the right slab the transmitted mode is numerically zero
    assert abs(mode_eval(mode, 50.0)) < 1e-300 or mode_eval(mode, 50.0) == 0


def test_green_vacuum_closed_form():
    cfg = CavityConfig(1.0, 2.0, VACM, VACM)
    om = 1.7
    s = -1j * om
    for x, xp in ((-4.0, 2.0), (0.3, -0.2), (-3.5, -3.9), (6.0, 6.5)):
        g = green_function(cfg, x, xp, om)
        exact = -cmath.exp(-s * abs(x - xp)) / (2.0 * s)
        assert g == pytest.approx(exact, rel=1e-12)


def test_green_symmetry():
    pts = (-2.0, -1.5, -0.3, 0.0, 0.44, 1.2, 2.5)
    for om in (0.8, 4.7):
        for x in pts:
            for xp in pts:
                g1 = green_function(CFG, x, xp, om)
                g2 = green_function(CFG, xp, x, om)
                assert g1 == pytest.approx(g2, rel=1e-12)


def test_green_region_guard():
    with pytest.raises(RegionUnsupportedError):
        green_function(CFG, -0.7, 0.0, 1.0)  # x inside the left slab
    with pytest.raises(RegionUnsupportedError):
        green_function(CFG, 0.6, 0.0, 1.0)  # x inside the right slab
    # a NaN point fails every comparison with the interfaces: refused up
    # front by name, rather than recursing between the two exteriors (x) or
    # being filed right of the gap (x')
    with pytest.raises(ValueError, match="x must be finite, got nan"):
        green_function(CFG, math.nan, 0.0, 1.0)
    with pytest.raises(ValueError, match="xp must be finite, got nan"):
        green_function(CFG, 0.0, math.nan, 1.0)
    with pytest.raises(ValueError, match="x must be finite, got -inf"):
        green_function(CFG, -math.inf, 0.0, 1.0)
    # x' inside a slab is fine
    g = green_function(CFG, 0.0, -0.7, 1.0)
    assert cmath.isfinite(g)


def test_green_vs_brute_force():
    a, d = 1.0, 0.4
    om = 2.1
    nL = refractive_index(MILD_L, om)
    nR = refractive_index(MILD_R, om)
    b = solve_greater(om, a, d, nL, nR)
    bl = solve_greater(om, a, d, nR, nL)
    T = b["T"]
    s = -1j * om

    def brute_green(x, xp):
        lo, hi = min(x, xp), max(x, xp)
        phg, _ = eval_greater(b, om, a, d, nL, nR, hi)
        phl, _ = eval_greater(bl, om, a, d, nR, nL, -lo)
        return phl * phg / (-2.0 * s * T)

    rng = random.Random(4)
    for _ in range(40):
        x = rng.choice((rng.uniform(-3.0, -0.95), rng.uniform(-0.45, 0.45),
                        rng.uniform(0.95, 3.0)))
        xp = rng.uniform(-3.0, 3.0)
        assert green_function(CFG, x, xp, om) == pytest.approx(
            brute_green(x, xp), rel=1e-9)


def test_green_continuity_and_jump():
    om = 2.6
    h = 1e-6
    for x0 in (-1.3, 0.2):  # exterior-left and gap evaluation points
        gm = green_function(CFG, x0 - h, x0, om)
        gp = green_function(CFG, x0 + h, x0, om)
        assert gm == pytest.approx(gp, rel=1e-5)
        dm = (green_function(CFG, x0 - h, x0, om)
              - green_function(CFG, x0 - 3 * h, x0, om)) / (2 * h)
        dp = (green_function(CFG, x0 + 3 * h, x0, om)
              - green_function(CFG, x0 + h, x0, om)) / (2 * h)
        jump = dp - dm
        assert jump == pytest.approx(1.0, rel=1e-4, abs=1e-4)


def test_green_opaque_no_overflow():
    cfg = CavityConfig(1.0, 100.0, FIG, FIG)
    for (x, xp) in ((-102.0, 0.3), (0.1, -0.3), (-101.5, -150.0),
                    (0.2, -80.0), (0.0, 120.0)):
        v = green_function(cfg, x, xp, 10.0)
        assert cmath.isfinite(v)


def test_non_finite_positions_are_refused_by_name():
    # NaN fails every comparison with the interfaces and +-inf lies past
    # them: each used to be filed as exterior_right, so the modes returned
    # NaN without an error
    ss = cavity_coefficients(CFG, 1.9)
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="x must be finite, got %r" % x):
            classify_region(CFG, x)
        for kind in (PHI_GREATER, PHI_LESS):
            with pytest.raises(ValueError, match="x must be finite"):
                mode_eval(ModeFunction(kind, ss), x)
            with pytest.raises(ValueError, match="x must be finite"):
                mode_deriv(ModeFunction(kind, ss), x)


@pytest.mark.parametrize("cfg", [CFG, CavityConfig(1.0, 100.0, FIG, FIG),
                                 CavityConfig(1.0, 0.8, STATIC, STATIC2)],
                         ids=["mild", "opaque", "static"])
def test_green_conjugates_at_negative_frequency(cfg):
    # G(x, x'; -omega) = conj G(x, x'; omega): x in both exteriors and the
    # gap, x' in all five regions
    x1, x2, x3, x4 = cfg.interfaces
    xs = (x1 - 0.6, 0.13 * cfg.gap, x4 + 0.9)
    xps = (x1 - 1.7, 0.3 * x1 + 0.7 * x2, -0.21 * cfg.gap,
           0.6 * x3 + 0.4 * x4, x4 + 0.35)
    for om in (0.8, 4.7, 10.0):
        for x in xs:
            for xp in xps:
                g = green_function(cfg, x, xp, om)
                gm = green_function(cfg, x, xp, -om)
                assert gm == pytest.approx(g.conjugate(), rel=1e-15, abs=0.0)
