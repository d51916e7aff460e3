"""Tests of the benchmark itself: tracing arithmetic, checks, hooks, refs."""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import refs  # noqa: E402
import speed  # noqa: E402
from casimir1d import cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Recorder, Span  # noqa: E402


def _span(name, start, end, parent=None, covered=0.0, **kw):
    s = Span(name, start, end, parent, kw.pop("info", None))
    s.covered = covered
    for k, v in kw.items():
        setattr(s, k, v)
    return s


def test_self_times_on_synthetic_tree():
    spans = [_span("root", 0.0, 10.0, covered=0.5),
             _span("a", 1.0, 4.0, parent=0, covered=1.0),
             _span("b", 5.0, 9.0, parent=0),
             _span("c", 6.0, 7.0, parent=2)]
    assert tracing.self_times(spans) == pytest.approx([2.5, 2.0, 3.0, 1.0])


def test_sweep_cells_split_from_the_prelude():
    q = "quadrature.integrate_interval"
    spans = [_span("cli.main", 0.0, 10.0),
             _span("forces.force_ic", 1.0, 4.0, 0, kernel_calls=3),
             _span(q, 1.5, 3.5, 1, kernel_calls=100),
             _span("forces.force_bath", 4.0, 5.0, 0),
             _span(q, 4.1, 4.9, 3, kernel_calls=50),
             _span("forces.band_excess_curve", 5.0, 7.0, 0),
             _span(q, 5.1, 6.9, 5, kernel_calls=20),
             _span("forces.band_excess_curve", 7.0, 9.0, 0),
             _span(q, 7.1, 8.9, 7, kernel_calls=40)]
    rec = Recorder()
    rec.spans = spans
    kernels = rec.kernel_snapshot()
    m = tracing.layer_metrics(rec, kernels, {}, 2)
    assert m["cli.sweep.prelude_evals"] == 153
    assert m["cli.sweep.cell_evals"] == 30
    assert m["forces.band_excess_curve.calls"] == 2
    assert m["quadrature.integrate_interval.calls"] == 4
    assert m["forces.osc.excess.evals"] == 210


def test_speed_factor_weights_time_not_probes():
    ref = speed.REFERENCE_PROBE_S
    # half the time at reference speed, half at half speed: 3/4 of the work
    assert speed.factor([ref, 2.0 * ref]) == pytest.approx(0.75)
    with speed.Sampler() as s:
        pass
    assert len(s.probes) == 1 and s.probes[0] > 0.0


def test_osc_stages_follow_the_call_sequence():
    q = "quadrature.integrate_interval"
    spans = [_span("forces.force_ic", 0.0, 20.0, kernel_calls=7),
             _span(q, 1.0, 2.0, 0, info={"rel_tol": 1e-2}, kernel_calls=10),
             _span(q, 3.0, 7.0, 0, info={"rel_tol": 1e-6}, kernel_calls=40),
             _span(q, 8.0, 9.0, 0, kernel_calls=64, shifted_calls=63),
             _span(q, 9.0, 11.0, 0, kernel_calls=64, shifted_calls=63),
             _span(q, 12.0, 13.0, 0, kernel_calls=5)]
    st = tracing.osc_stages(spans)
    assert st["coarse"] == [10, 1.0]
    assert st["direct"] == [40, 4.0]
    assert st["tail"] == [128, 3.0]
    assert st["excess"] == [5, 1.0]
    assert st["probe"] == [7, pytest.approx(20.0 - 9.0)]


def test_kernel_hook_counts_offsets_and_bins():
    from casimir1d.kernels import core
    hooks = tracing.install()
    try:
        rec = hooks.recorder = Recorder()
        tl = (3.0, 2.0, 0.5, False)
        core.ic_bracket(3.0, 1.0, 0.7, tl, tl)
        core.ic_bracket(7.0, 1.0, 0.7, tl, tl, 0.0, 0.0, 1.5)
        core.bath_integrand(25.0, 1.0, 0.7, tl, tl, 5.0, 5.0)
        hooks.recorder = None
        core.ic_bracket(3.0, 1.0, 0.7, tl, tl)
    finally:
        hooks.remove()
    assert rec.kernel_calls["ic_bracket"] == 2
    assert rec.kernel_shifted["ic_bracket"] == 1
    assert rec.kernel_calls["bath_integrand"] == 1
    assert rec.k_bins == {"ic_bracket": [1, 1, 0, 0],
                          "bath_integrand": [0, 0, 0, 1]}
    assert core.ic_bracket.__name__ == "ic_bracket"


def test_missing_hook_is_reported_not_raised(monkeypatch):
    from casimir1d import forces
    from casimir1d.kernels import core
    monkeypatch.delattr(core, "bath_integrand")
    monkeypatch.delattr(forces, "band_excess_curve")
    hooks = tracing.install()
    try:
        assert "kernels.bath_integrand" in hooks.missing
        assert "forces.band_excess_curve" in hooks.missing
        rec = hooks.recorder = Recorder()
        forces.equilibrium_matsubara(W.NONEQ_CFG, 5.0, refs.TIGHT)
        kernels = rec.kernel_snapshot()
        hooks.recorder = None
    finally:
        hooks.remove()
    us = tracing.kernel_costs(core, repeats=1)
    assert us["bath_integrand"] is None
    m = tracing.layer_metrics(rec, kernels, us, 0)
    assert m["kernels.bath_integrand.calls"] == 0
    assert m["kernels.bath_integrand.us_per_point"] == 0.0
    assert m["kernels.roundtrip_rot_direct.calls"] > 0
    assert m["quadrature.matsubara_sum.terms"] == \
        m["kernels.roundtrip_rot_direct.calls"]
    assert set(m) == {n for n, _ in tracing.LAYER_METRICS}


def test_check_value_rejects_a_value_past_its_estimate():
    ref, ref_err, est = 0.028952996, 1e-12, 2.2e-3
    assert W.check_value(ref + 0.99 * (est + ref_err), est, ref, ref_err).ok
    for v in (ref + 1.01 * (est + ref_err), ref - 1.01 * (est + ref_err)):
        c = W.check_value(v, est, ref, ref_err)
        assert not c.ok and c.note
    assert not W.check_value(math.nan, est, ref, ref_err).ok
    assert not W.check_value(ref, math.inf, ref, ref_err).ok


def test_sweep_cell_check_rejects_perturbed_and_flagged_rows():
    ref = (0.6, 1e-9, 0.05, 1e-9)
    row = {"ratio_ic": 0.6, "ratio_total": 0.05, "flags": ""}
    assert W.check_sweep_cell(row, 1e-6, 1e-3, ref).ok
    off = dict(row, ratio_total=0.05 + 1.01 * (1e-3 + 1e-9))
    assert not W.check_sweep_cell(off, 1e-6, 1e-3, ref).ok
    off = dict(row, ratio_ic=0.6 - 1.01 * (1e-6 + 1e-9))
    assert not W.check_sweep_cell(off, 1e-6, 1e-3, ref).ok
    assert not W.check_sweep_cell(dict(row, flags="NaN"), 1e-6, 1e-3,
                                  ref).ok
    assert not W.check_sweep_cell(dict(row, ratio_ic=1.2), 1.0, 1e-3,
                                  (1.2, 0.0, 0.05, 0.0)).ok


def test_sweep_estimates_propagate_every_part():
    parts = [(865.2, 1e-3), (865.1, 1e-3), (-865.17, 1e-3), (300.0, 1e-4)]
    e_ic, e_tot = W.sweep_cell_estimates(*parts)
    assert 0.0 < e_ic < e_tot
    wider = list(parts)
    wider[3] = (300.0, 1e-2)
    assert all(x > y for x, y in zip(W.sweep_cell_estimates(*wider),
                                     (e_ic, e_tot)))


def test_temperature_factors():
    assert W.temperature_factors(0, 3) == [1.0, 1.0, 1.0]
    f = W.temperature_factors(7, 3)
    assert f == W.temperature_factors(7, 3)
    assert all(abs(x - 1.0) <= W.TEMPERATURE_SPREAD for x in f)
    assert f != W.temperature_factors(8, 3)


def test_seed0_references_rebuild_from_committed_parts():
    data = refs.load()
    seed0 = data["seed0"]
    bl, br = W.NONEQ_BATHS
    for (x, y), want in zip(((bl, br), (br, bl)), seed0["noneq_mild"]):
        got = refs.noneq_total(data["noneq_mild"]["zero_t_total"],
                               W.NONEQ_CFG, W.NONEQ_BETA_STATE, x, y)
        assert got[0] == pytest.approx(want[0], rel=1e-12)
    z, z_osc = (data["noneq_mild"][k] for k in
                ("zero_t_total", "zero_t_total_real_axis"))
    assert abs(z[0] - z_osc[0]) <= z[1] + z_osc[1]
    sweep = data["sweep_docs"]
    rc = cli.load_run_config(W.SWEEP_INI, need_sweep=True)
    rows = refs.sweep_ratios(sweep["f_vac"], sweep["band_excess"],
                             rc.cavity, rc.state.beta)
    for got, want in zip(rows, seed0["sweep_docs"]):
        assert got == pytest.approx(want, rel=1e-12)


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(tracing.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(W.WORKLOADS)


def test_run_without_sources_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results",
                                                  "work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig_300k",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / "perfbench" / "results").exists()
