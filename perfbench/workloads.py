"""The benchmark workloads: inputs from a seed, timed operations, checks.

Seed 0 gives the pinned parameters.  Any other seed scales each inverse
temperature by its own factor drawn uniformly from [1 - 1%, 1 + 1%], so a
claim can be checked on inputs it was not tuned on.  Damping stays pinned:
a 1% change of gamma0 moves the quadrature's true error on the fig
configuration between 3e-5 and 4e-3 of the force, so ``rel_err_true``
would no longer repeat from seed to seed, while a 1% change of the
temperatures leaves it unchanged to four digits.

An operation is one entry-point call or one sweep cell.  It fails if it
raises, returns a non-finite value, or misses its reference by more than
its own reported error estimate (plus the reference's, which is orders of
magnitude smaller).
"""

import configparser
import contextlib
import csv
import io
import math
import os
import random
from collections import namedtuple

from casimir1d import cli, forces
from casimir1d.material import Material
from casimir1d.quadrature import QuadratureSpec
from casimir1d.scattering import CavityConfig
from casimir1d.states import FieldState

import refs

HERE = os.path.dirname(os.path.abspath(__file__))
SWEEP_INI = os.path.join(HERE, "sweep_docs.ini")

BETA_300K = 76.3302
TEMPERATURE_SPREAD = 0.01

FIG_SLAB = Material(10.0, 10.0, 0.1)
FIG_CFG = CavityConfig(1.0, 100.0, FIG_SLAB, FIG_SLAB)
FIG_SPEC = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-10)

WEAK_SLAB = Material(10.0, 10.0, 1e-6)
WEAK_CFG = CavityConfig(1.0, 100.0, WEAK_SLAB, WEAK_SLAB)
WEAK_SPEC = QuadratureSpec(rel_tol=3e-4, abs_tol=1e-8)

NONEQ_CFG = CavityConfig(0.5, 0.4, Material(3.0, 2.0, 0.5),
                         Material(2.5, 1.5, 1.0))
NONEQ_SPEC = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12)
NONEQ_BETA_STATE = 5.0
NONEQ_BATHS = (3.0, 8.0)

Check = namedtuple("Check", "ok rel_est rel_true note")


def temperature_factors(seed, n):
    """``n`` inverse-temperature factors for ``seed``; all 1.0 for seed 0."""
    if seed == 0:
        return [1.0] * n
    rng = random.Random(seed)
    return [1.0 + TEMPERATURE_SPREAD * (2.0 * rng.random() - 1.0)
            for _ in range(n)]


def failed(note):
    return Check(False, None, None, note)


def check_value(value, est, ref, ref_err):
    """One force against its reference: within ``est + ref_err``?"""
    if not (math.isfinite(value) and math.isfinite(est)):
        return failed("non-finite result")
    dev = abs(value - ref)
    rel_est = est / abs(value) if value else math.inf
    ok = dev <= est + ref_err
    return Check(ok, rel_est, dev / abs(ref),
                 "" if ok else "misses reference by %.3e > %.3e"
                 % (dev, est + ref_err))


def _raised(result):
    return isinstance(result, BaseException)


def _describe(exc):
    return "raised %s: %s" % (type(exc).__name__, exc)


class Fig300k:
    """force_total on the docs configuration, all at one temperature."""

    name = "fig_300k"

    def setup(self, seed, workdir):
        beta = BETA_300K * temperature_factors(seed, 1)[0]
        return {"beta": beta, "state": FieldState.thermal(beta)}

    def operations(self, inp):
        b = inp["beta"]
        return [lambda: forces.force_total(FIG_CFG, inp["state"], b, b,
                                           FIG_SPEC)]

    def check(self, inp, results):
        (res,) = results
        if _raised(res):
            return [failed(_describe(res))]
        ref = refs.matsubara(FIG_CFG, inp["beta"])
        return [check_value(res.total, res.err_ic + res.err_bath, *ref)]


class NoneqMild:
    """force_total on the mild pair with three different temperatures,
    once with the baths one way round and once swapped."""

    name = "noneq_mild"

    def setup(self, seed, workdir):
        fs, fl, fr = temperature_factors(seed, 3)
        bl, br = NONEQ_BATHS[0] * fl, NONEQ_BATHS[1] * fr
        beta_state = NONEQ_BETA_STATE * fs
        return {"beta_state": beta_state, "baths": ((bl, br), (br, bl)),
                "state": FieldState.thermal(beta_state),
                "zero_t": refs.load()["noneq_mild"]["zero_t_total"]}

    def operations(self, inp):
        return [lambda bl=bl, br=br: forces.force_total(
                    NONEQ_CFG, inp["state"], bl, br, NONEQ_SPEC)
                for bl, br in inp["baths"]]

    def check(self, inp, results):
        out = []
        for res, (bl, br) in zip(results, inp["baths"]):
            if _raised(res):
                out.append(failed(_describe(res)))
                continue
            ref = refs.noneq_total(inp["zero_t"], NONEQ_CFG,
                                   inp["beta_state"], bl, br)
            out.append(check_value(res.total, res.err_ic + res.err_bath,
                                   *ref))
        return out


class WeakDamping:
    """The criterion-2 pair at gamma0 = 1e-6: force_ic and force_bath."""

    name = "weak_damping"

    def setup(self, seed, workdir):
        beta = BETA_300K * temperature_factors(seed, 1)[0]
        return {"beta": beta, "state": FieldState.thermal(beta)}

    def operations(self, inp):
        b = inp["beta"]
        return [lambda: forces.force_ic(WEAK_CFG, inp["state"], WEAK_SPEC),
                lambda: forces.force_bath(WEAK_CFG, b, b, WEAK_SPEC)]

    def check(self, inp, results):
        bad = [_describe(r) for r in results if _raised(r)]
        if bad:
            return [failed("; ".join(bad))] * len(results)
        (f_ic, e_ic), (f_b, e_b) = results
        ref = refs.matsubara(WEAK_CFG, inp["beta"])
        return [check_value(f_ic + f_b, e_ic + e_b, *ref)] * len(results)


class _Capture:
    """Records what the forces entry points return to the CLI, so a sweep
    cell's ratios get error estimates; the CLI's CSV carries none."""

    NAMES = ("force_ic", "force_bath", "band_excess_curve")

    def __init__(self):
        self.calls = []
        for name in self.NAMES:
            fn = getattr(forces, name, None)
            if callable(fn):
                setattr(forces, name, self._wrap(name, fn))

    def _wrap(self, name, fn):
        def wrapper(*args, **kw):
            out = fn(*args, **kw)
            self.calls.append((name, args, out))
            return out
        return wrapper

    def estimates(self):
        """(f_th, f_vac, f_b, {sigma: band excess}), each (value, err);
        None where the CLI made no such call."""
        f_th = f_vac = f_b = None
        band = {}
        for name, args, out in self.calls:
            if name == "force_ic" and len(args) > 1:
                if args[1].variant == "thermal":
                    f_th = out
                elif args[1].variant == "vacuum":
                    f_vac = out
            elif name == "force_bath":
                f_b = out
            elif name == "band_excess_curve" and len(args) > 2:
                band.update(zip(args[2], out))
        return f_th, f_vac, f_b, band


def sweep_cell_estimates(f_th, f_vac, f_b, band):
    """Propagated error estimates of ratio_ic = f_th / (f_vac + X) and
    ratio_total = (f_th + f_b) / (f_vac + X + f_b) for band excess X."""
    (t, et), (v, ev), (b, eb), (x, ex) = f_th, f_vac, f_b, band
    r_ic = t / (v + x)
    e_ic = abs(r_ic) * (et / abs(t) + (ev + ex) / abs(v + x))
    r_tot = (t + b) / (v + x + b)
    e_tot = abs(r_tot) * ((et + eb) / abs(t + b)
                          + (ev + ex + eb) / abs(v + x + b))
    return e_ic, e_tot


def check_sweep_cell(row, e_ic, e_tot, ref):
    """One sweep row against its reference ``(r_ic, e, r_tot, e)``: finite,
    flag-free, both ratios below one and within their estimates."""
    r_ic, r_tot = row["ratio_ic"], row["ratio_total"]
    if row["flags"]:
        return failed("flagged %s" % row["flags"])
    if not all(math.isfinite(v) for v in (r_ic, r_tot, e_ic, e_tot)):
        return failed("non-finite ratio or estimate")
    if not (r_ic < 1.0 and r_tot < 1.0):
        return failed("ratio not below one")
    ic = check_value(r_ic, e_ic, ref[0], ref[1])
    tot = check_value(r_tot, e_tot, ref[2], ref[3])
    note = "; ".join(n for n in (ic.note, tot.note) if n)
    return Check(ic.ok and tot.ok, max(ic.rel_est, tot.rel_est),
                 max(ic.rel_true, tot.rel_true), note)


def write_sweep_ini(seed, workdir):
    """The committed sweep INI, with its temperatures scaled for ``seed``."""
    if seed == 0:
        return SWEEP_INI
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.read(SWEEP_INI, encoding="utf-8")
    # kelvin temperatures scale inversely to beta; one factor for all three
    # keeps the sweep at equilibrium
    f = temperature_factors(seed, 1)[0]
    for section, key in (("state", "temperature_kelvin"),
                         ("baths", "temperature_left_kelvin"),
                         ("baths", "temperature_right_kelvin")):
        cp.set(section, key, repr(cp.getfloat(section, key) / f))
    path = os.path.join(workdir, "sweep.ini")
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)
    return path


class SweepDocs:
    """``casimir1d sweep-sigma --reproducible`` on the docs INI, in-process."""

    name = "sweep_docs"

    def setup(self, seed, workdir):
        ini = write_sweep_ini(seed, workdir)
        rc = cli.load_run_config(ini, need_sweep=True)
        return {"ini": ini, "rc": rc, "capture": _Capture(),
                "csv": os.path.join(workdir, "sweep.csv"),
                "ref": refs.load()["sweep_docs"]}

    def operations(self, inp):
        argv = ["sweep-sigma", "--config", inp["ini"], "--out", inp["csv"],
                "--reproducible"]

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)
        return [run]

    def check(self, inp, results):
        rc, ref = inp["rc"], inp["ref"]
        n = len(rc.sigma_grid)
        (code,) = results
        if _raised(code):
            return [failed(_describe(code))] * n
        if code != 0:
            return [failed("exit code %r" % code)] * n
        with open(inp["csv"], encoding="utf-8", newline="") as fh:
            rows = [{"sigma": float(r["sigma"]),
                     "ratio_ic": float(r["ratio_ic"]),
                     "ratio_total": float(r["ratio_total"]),
                     "flags": r["flags"]} for r in csv.DictReader(fh)]
        if [r["sigma"] for r in rows] != list(rc.sigma_grid) or \
                list(rc.sigma_grid) != ref["sigmas"]:
            return [failed("sweep rows do not match the sigma grid")] * n
        f_th, f_vac, f_b, band = inp["capture"].estimates()
        want = refs.sweep_ratios(ref["f_vac"], ref["band_excess"],
                                 rc.cavity, rc.state.beta)
        out = []
        for row, r in zip(rows, want):
            parts = (f_th, f_vac, f_b, band.get(row["sigma"]))
            if any(p is None for p in parts):
                out.append(failed("no error estimate observed for the cell"))
                continue
            e_ic, e_tot = sweep_cell_estimates(*parts)
            out.append(check_sweep_cell(row, e_ic, e_tot, r))
        return out


WORKLOADS = {w.name: w for w in (Fig300k(), NoneqMild(), WeakDamping(),
                                 SweepDocs())}
