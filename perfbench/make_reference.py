"""Regenerate perfbench/reference.json (takes a few minutes).

Usage (from the repository root): python3 perfbench/make_reference.py

Commits the temperature-free parts of the references, each as
``[value, error_estimate]``:

* ``noneq_mild.zero_t_total``: zero-temperature total force of the mild
  pair, rotated onto the imaginary axis (4 * integral of kappa w/(1 - w)
  with the slab round-trip factor w), where it decays exponentially.  The
  real-axis value ``force_ic(vacuum) + force_bath(inf, inf)`` is stored
  beside it as a cross-check.
* ``sweep_docs.f_vac`` and ``sweep_docs.band_excess``: the vacuum state
  force and the band excess of every sigma of the docs sweep, at tighter
  tolerances than the sweep itself uses.

``seed0`` holds the full seed-0 references the benchmark rebuilds from
these parts, for the record and for the benchmark's own tests.
"""

import json
import math
import os
import sys
import time
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from casimir1d import cli, forces  # noqa: E402
from casimir1d.kernels import core  # noqa: E402
from casimir1d.quadrature import (QuadratureSpec,  # noqa: E402
                                  integrate_semiinfinite)
from casimir1d.states import FieldState  # noqa: E402

import refs  # noqa: E402
import workloads as W  # noqa: E402


def rotated_zero_t_total(cfg):
    a, d = cfg.gap, cfg.width
    tl, tr = cfg.left.as_tuple(), cfg.right.as_tuple()

    def g(kappa):
        w = core.roundtrip_rot_direct(kappa, a, d, tl, tr)
        return 4.0 * kappa * w / (1.0 - w)

    spec = replace(refs.TIGHT, panel_width=min(refs.TIGHT.panel_width,
                                               0.5 / a))
    return integrate_semiinfinite(g, spec)


def _timed(label, fn):
    t0 = time.perf_counter()
    out = fn()
    print("%-28s %s  (%.1f s)" % (label, out, time.perf_counter() - t0),
          flush=True)
    return out


def main():
    spec8 = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12)
    z = _timed("noneq zero-T (rotated)",
               lambda: rotated_zero_t_total(W.NONEQ_CFG))
    v = _timed("noneq vacuum force_ic",
               lambda: forces.force_ic(W.NONEQ_CFG, FieldState.vacuum(),
                                       spec8))
    b = _timed("noneq force_bath(inf, inf)",
               lambda: forces.force_bath(W.NONEQ_CFG, math.inf, math.inf,
                                         spec8))
    osc = (v[0] + b[0], v[1] + b[1])
    if abs(osc[0] - z[0]) > osc[1] + z[1]:
        raise SystemExit("zero-temperature routes disagree: %r vs %r"
                         % (z, osc))

    rc = cli.load_run_config(W.SWEEP_INI, need_sweep=True)
    (center,) = rc.omega0_list
    sigmas = list(rc.sigma_grid)
    f_vac = _timed("fig vacuum force_ic",
                   lambda: forces.force_ic(rc.cavity, FieldState.vacuum(),
                                           spec8))
    band = _timed("fig band excesses",
                  lambda: forces.band_excess_curve(
                      rc.cavity, center, sigmas,
                      QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13)))

    bl, br = W.NONEQ_BATHS
    seed0 = {
        "fig_300k": refs.matsubara(W.FIG_CFG, W.BETA_300K),
        "noneq_mild": [refs.noneq_total(z, W.NONEQ_CFG, W.NONEQ_BETA_STATE,
                                        x, y) for x, y in ((bl, br),
                                                           (br, bl))],
        "weak_damping": refs.matsubara(W.WEAK_CFG, W.BETA_300K),
        "sweep_docs": refs.sweep_ratios(f_vac, band, rc.cavity,
                                        rc.state.beta),
    }
    out = {
        "noneq_mild": {"zero_t_total": list(z),
                       "zero_t_total_real_axis": list(osc)},
        "sweep_docs": {"omega_center": center, "sigmas": sigmas,
                       "f_vac": list(f_vac),
                       "band_excess": [list(p) for p in band]},
        "seed0": seed0,
    }
    with open(refs.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print("wrote %s" % refs.REFERENCE_FILE)


if __name__ == "__main__":
    main()
