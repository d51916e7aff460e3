"""CLI: config parsing, exit codes, CSV schema and determinism."""

import math
import os
import subprocess
import sys

import pytest

from casimir1d import forces
from casimir1d.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    ConfigError,
    beta_from_kelvin,
    load_run_config,
    main,
)
from casimir1d.errors import NonConvergenceError
from casimir1d.forces import ForceBreakdown

STATIC_BODY = """
[cavity]
gap = 1.0
width = 0.7

[left]
model = static_nd
omega0 = 10.0
omega_pl = 10.0

[right]
model = static_nd
omega0 = 4.0
omega_pl = 3.0

[baths]
beta_left = 9.0
beta_right = 9.0

[quadrature]
rel_tol = 1e-8
abs_tol = 1e-12
"""

MILD_BODY = """
[cavity]
gap = 1.0
width = 0.4

[left]
omega0 = 3.0
omega_pl = 2.0
gamma0 = 0.5

[right]
omega0 = 2.5
omega_pl = 1.5
gamma0 = 1.0

[state]
variant = thermal
beta = 5.0

[baths]
beta_left = 5.0
beta_right = 5.0

[quadrature]
rel_tol = 1e-6
abs_tol = 1e-10
"""


def write(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    header = data[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in data[1:]]


def test_kelvin_conversion():
    assert beta_from_kelvin(300.0, 100e-9) == pytest.approx(76.33, abs=1e-6)
    with pytest.raises(ConfigError):
        beta_from_kelvin(300.0, None)
    with pytest.raises(ConfigError):
        beta_from_kelvin(-2.0, 100e-9)


def test_missing_config_file():
    assert main(["force", "--config", "/nonexistent/run.ini"]) == EXIT_CONFIG


def test_force_requires_config():
    assert main(["force"]) == EXIT_CONFIG


def test_unknown_command_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_missing_key_names_the_key(tmp_path, capsys):
    body = STATIC_BODY.replace("omega0 = 10.0\n", "", 1)
    assert main(["force", "--config", write(tmp_path, body)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "[left]" in err and "omega0" in err


def test_kelvin_requires_gap_meters(tmp_path):
    body = MILD_BODY.replace("beta_left = 5.0",
                             "temperature_left_kelvin = 300")
    assert main(["force", "--config", write(tmp_path, body)]) == EXIT_CONFIG


def test_both_temperature_forms_rejected(tmp_path):
    body = MILD_BODY.replace(
        "beta_left = 5.0", "beta_left = 5.0\ntemperature_left_kelvin = 300")
    assert main(["force", "--config", write(tmp_path, body)]) == EXIT_CONFIG


def test_load_run_config_roundtrip(tmp_path):
    rc = load_run_config(write(tmp_path, MILD_BODY))
    assert rc.cavity.width == 0.4
    assert rc.state.variant == "thermal" and rc.state.beta == 5.0
    assert rc.beta_left == 5.0 and rc.beta_right == 5.0
    assert rc.spec.rel_tol == 1e-6


def test_force_vacuum_slabs_zero_row(tmp_path, capsys):
    body = STATIC_BODY.replace("omega_pl = 10.0", "omega_pl = 0.0") \
                      .replace("omega_pl = 3.0", "omega_pl = 0.0")
    out = tmp_path / "force.csv"
    code = main(["force", "--config", write(tmp_path, body),
                 "--out", str(out), "--reproducible"])
    assert code == EXIT_OK
    header, rows = read_rows(out)
    assert header[0] == "schema_version" and header[-1] == "flags"
    assert rows[0]["f_ic"] == "0.0" and rows[0]["f_b"] == "0.0"
    assert rows[0]["f_total"] == "0.0"
    assert rows[0]["attractive"] == "false"


def test_force_static_csv_and_determinism(tmp_path):
    cfg = write(tmp_path, STATIC_BODY)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["force", "--config", cfg, "--out", str(out1),
                 "--reproducible"]) == EXIT_OK
    assert main(["force", "--config", cfg, "--out", str(out2),
                 "--reproducible"]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = read_rows(out1)
    row = rows[0]
    assert row["schema_version"] == "2"
    assert row["left_model"] == "static_nd"
    assert float(row["f_b"]) == 0.0
    assert float(row["f_total"]) == float(row["f_ic"])
    # no bath, nothing cancels: the total's error is the state part's
    assert float(row["err_total"]) == float(row["err_ic"]) > 0.0
    assert row["attractive"] == "true"
    assert row["flags"] == ""


def test_force_timestamp_unless_reproducible(tmp_path):
    cfg = write(tmp_path, STATIC_BODY)
    out = tmp_path / "t.csv"
    assert main(["force", "--config", cfg, "--out", str(out)]) == EXIT_OK
    first = out.read_text(encoding="utf-8").splitlines()[0]
    assert first.startswith("# written ")
    assert main(["force", "--config", cfg, "--out", str(out),
                 "--reproducible"]) == EXIT_OK
    first = out.read_text(encoding="utf-8").splitlines()[0]
    assert first.startswith("schema_version,")


def test_force_nonconvergence_exit_code(tmp_path, capsys):
    # 40 panels of width 0.5 cannot reach the oscillatory bath integral's
    # switch point
    body = MILD_BODY + "max_panels = 40\npanel_width = 0.5\n"
    assert main(["force", "--config", write(tmp_path, body)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "non-convergence" in err
    assert "within the reach of max_panels" in err


def test_force_band_weight_overflow_exit_code(tmp_path, capsys):
    body = MILD_BODY.replace(
        "variant = thermal\nbeta = 5.0",
        "variant = squeezed_band\nsigma = 0.001\nomega_center = 3.0")
    assert main(["force", "--config", write(tmp_path, body)]) == EXIT_NUMERIC
    assert "sigma = 0.001" in capsys.readouterr().err


def test_force_constant_squeezing_scales_the_vacuum_state_force(tmp_path):
    # constant squeezing at xi = 0.3 weighs the vacuum state force by
    # cosh(2 xi), bit for bit; the bath part does not see the field state
    rows = {}
    for name, state in (("vacuum", "variant = vacuum"),
                        ("squeezed", "variant = squeezed_const\nxi = 0.3")):
        out = tmp_path / (name + ".csv")
        body = MILD_BODY.replace("variant = thermal\nbeta = 5.0", state)
        assert main(["force", "--config", write(tmp_path, body, name + ".ini"),
                     "--out", str(out), "--reproducible"]) == EXIT_OK
        rows[name] = read_rows(out)[1][0]
    assert rows["squeezed"]["state"] == "squeezed_const"
    assert rows["squeezed"]["state_xi"] == "0.3"
    assert float(rows["squeezed"]["f_ic"]) == math.cosh(0.6) * float(
        rows["vacuum"]["f_ic"])
    assert rows["squeezed"]["f_b"] == rows["vacuum"]["f_b"]


def test_force_unknown_state_variant(tmp_path, capsys):
    body = MILD_BODY.replace("variant = thermal", "variant = squeezed_wide")
    assert main(["force", "--config", write(tmp_path, body)]) == EXIT_CONFIG
    assert "unknown state variant 'squeezed_wide'" in capsys.readouterr().err


def test_sweep_requires_thermal_state_and_grid(tmp_path):
    assert main(["sweep-sigma", "--config",
                 write(tmp_path, MILD_BODY)]) == EXIT_CONFIG
    body = STATIC_BODY + "\n[sweep]\nsigma_grid = 0.5 1.0\nomega0_list = 3.0"
    assert main(["sweep-sigma", "--config",
                 write(tmp_path, body)]) == EXIT_CONFIG  # vacuum state
    body = body.replace("[quadrature]",
                        "[state]\nvariant = thermal\nbeta = 5.0\n\n"
                        "[quadrature]")
    desc = body.replace("sigma_grid = 0.5 1.0", "sigma_grid = 1.0 0.5")
    assert main(["sweep-sigma", "--config",
                 write(tmp_path, desc)]) == EXIT_CONFIG  # not ascending


SWEEP_BODY = STATIC_BODY.replace(
    "[quadrature]",
    "[state]\nvariant = thermal\nbeta = 5.0\n\n[quadrature]") \
    + "\n[sweep]\nsigma_grid = 0.001 0.5 1.0\nomega0_list = 3.0\n"


def test_force_rejects_the_delta_state_and_points_to_limits(tmp_path,
                                                           capsys):
    # the delta-band state has no pointwise weight, so no force integral;
    # limits reports its force density at each band center instead
    body = STATIC_BODY.replace(
        "[quadrature]", "[state]\nvariant = squeezed_delta\n"
        "omega_center = 3.0\n\n[quadrature]") \
        + "\n[sweep]\nomega0_list = 3.0\n"
    cfg = write(tmp_path, body)
    assert main(["force", "--config", cfg]) == EXIT_CONFIG
    assert "limits" in capsys.readouterr().err
    out = tmp_path / "limits.csv"
    assert main(["limits", "--config", cfg, "--out", str(out),
                 "--reproducible"]) == EXIT_OK
    row = {r["limit"]: r for r in read_rows(out)[1]}["delta_squeezed@3"]
    assert row["flags"] == "" and math.isfinite(float(row["value"]))


def _without(body, start, stop=None):
    """``body`` less its lines from the first that starts with ``start`` up
    to, not including, the first after it that starts with ``stop`` (the
    one line without ``stop``)."""
    lines = body.splitlines()
    i = next(n for n, ln in enumerate(lines) if ln.startswith(start))
    j = i + 1 if stop is None else next(
        n for n, ln in enumerate(lines) if n > i and ln.startswith(stop))
    return "\n".join(lines[:i] + lines[j:]) + "\n"


@pytest.mark.parametrize("command, body, message", [
    ("sweep-sigma", SWEEP_BODY.replace("sigma_grid = 0.001 0.5 1.0",
                                       "sigma_grid ="),
     "cannot parse [sweep] sigma_grid = '': empty list"),
    ("force", _without(STATIC_BODY, "[cavity]", "[left]"),
     "missing required section [cavity]"),
    ("force", _without(STATIC_BODY, "[right]", "[baths]"),
     "missing required section [right]"),
    ("force", _without(STATIC_BODY, "[baths]", "[quadrature]"),
     "missing required section [baths]"),
    ("sweep-sigma", _without(SWEEP_BODY, "omega0_list"),
     "missing required key [sweep] omega0_list"),
    ("force", _without(STATIC_BODY, "beta_right"),
     "missing required key [baths] beta_right (or its _kelvin form)"),
    ("force", "gap = 1.0\n" + STATIC_BODY, "cannot parse config"),
    ("force", STATIC_BODY.replace(
        "[quadrature]", "[state]\nvariant = squeezed_band\nsigma = -1.0\n"
        "omega_center = 3.0\n\n[quadrature]"),
     "bad [state]: squeezed_band needs sigma > 0"),
], ids=["empty_list", "no_cavity", "no_right", "no_baths", "no_omega0_list",
        "no_beta_right", "unparsable", "bad_state"])
def test_config_errors_exit_with_their_message(tmp_path, capsys, command,
                                               body, message):
    assert main([command, "--config", write(tmp_path, body)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("sweep", ["", "\n[sweep]\nomega0_list = 2.0 3.0\n"])
def test_limits_reports_the_delta_state_at_its_own_center(tmp_path, sweep):
    # the state's omega_center gets its row once, whether or not the sweep
    # list names it too
    body = STATIC_BODY.replace(
        "[quadrature]", "[state]\nvariant = squeezed_delta\n"
        "omega_center = 3.0\n\n[quadrature]") + sweep
    cfg = write(tmp_path, body)
    out = tmp_path / "limits.csv"
    assert main(["limits", "--config", cfg, "--out", str(out),
                 "--reproducible"]) == EXIT_OK
    hits = [r for r in read_rows(out)[1] if r["limit"] == "delta_squeezed@3"]
    assert len(hits) == 1 and hits[0]["flags"] == ""
    assert float(hits[0]["value"]) == forces.force_delta_squeezed(
        load_run_config(cfg).cavity, 3.0)


@pytest.mark.parametrize("line", [
    "omega0_list = -5.0", "omega0_list = 0", "omega0_list = 3.0 0",
    "omega0_list = nan", "sigma_grid = nan", "sigma_grid = 0.5, inf",
    "omega0_list = inf"])
def test_sweep_rejects_grid_values_that_are_not_positive(
        tmp_path, monkeypatch, capsys, line):
    # refused while parsing, before the three cavity-wide integrals run
    def unexpected(*args):
        raise AssertionError("a force integral ran")

    monkeypatch.setattr(forces, "force_ic", unexpected)
    key = line.split()[0]
    body = "\n".join(line if ln.startswith(key + " =") else ln
                     for ln in SWEEP_BODY.splitlines())
    cfg = write(tmp_path, body)
    with pytest.raises(ConfigError):
        load_run_config(cfg, need_sweep=True)
    assert main(["sweep-sigma", "--config", cfg]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("key, edits", [
    ("beta_left", {"beta_left = 5.0": "beta_left = -1"}),
    ("beta_left", {"beta_left = 5.0": "beta_left = nan"}),
    ("gap_meters", {"width = 0.4": "width = 0.4\ngap_meters = nan",
                    "beta_left = 5.0": "temperature_left_kelvin = 300"}),
    ("panel_width", {"abs_tol = 1e-10": "abs_tol = 1e-10\npanel_width = inf"}),
    ("rel_tol", {"rel_tol = 1e-6": "rel_tol = inf"}),
    ("gamma0", {"gamma0 = 0.5": "gamma0 = nan"})],
    ids=["beta_negative", "beta_nan", "gap_meters_nan", "panel_width_inf",
         "rel_tol_inf", "gamma0_nan"])
def test_force_rejects_values_that_are_not_finite_or_positive(
        tmp_path, monkeypatch, capsys, key, edits):
    # refused while parsing, with the configuration exit code and the key
    # named, before any force integral runs
    def unexpected(*args):
        raise AssertionError("a force integral ran")

    monkeypatch.setattr(forces, "force_total", unexpected)
    body = MILD_BODY
    for old, new in edits.items():
        assert old in body
        body = body.replace(old, new, 1)
    cfg = write(tmp_path, body)
    with pytest.raises(ConfigError):
        load_run_config(cfg)
    assert main(["force", "--config", cfg]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


def test_bath_at_zero_temperature_is_accepted(tmp_path):
    # an infinite inverse temperature is a zero-temperature bath
    body = MILD_BODY.replace("beta_left = 5.0", "beta_left = inf")
    assert load_run_config(write(tmp_path, body)).beta_left == math.inf


def _loaded_after_import(modules):
    """Which of ``modules`` a fresh interpreter holds after
    ``import casimir1d, casimir1d.cli``."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, casimir1d, casimir1d.cli; "
            "print(' '.join(m for m in %r if m in sys.modules))" % (modules,))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.split()


def test_import_leaves_the_stress_oracle_unloaded():
    assert _loaded_after_import(("casimir1d.stress",)) == []


def test_import_path_is_lean():
    # the value classes need neither dataclasses (which loads inspect) nor
    # the oracles; datetime stamps only the non-reproducible CSV header
    heavy = ("dataclasses", "inspect", "datetime", "casimir1d.stress",
             "casimir1d.oracles")
    assert _loaded_after_import(heavy) == []


def test_sweep_sigma_rows_and_cell_isolation(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep-sigma", "--config", write(tmp_path, SWEEP_BODY),
                 "--out", str(out), "--reproducible"])
    assert code == EXIT_OK
    header, rows = read_rows(out)
    assert header == ["schema_version", "omega0", "sigma", "ratio_ic",
                      "ratio_total", "flags"]
    assert len(rows) == 3
    # sigma = 0.001 overflows the band amplification cosh(2/sigma): that
    # cell reports NaN with a flag and must not poison the others
    assert math.isnan(float(rows[0]["ratio_ic"]))
    assert rows[0]["flags"] == "OverflowError"
    for row in rows[1:]:
        assert row["flags"] == ""
        # band windows straddling negative-bracket stretches can flip the
        # squeezed-band force sign on a lossless pair, so no 0..1 bound
        # here; with no bath the two ratios must coincide exactly
        assert math.isfinite(float(row["ratio_ic"]))
        assert row["ratio_ic"] == row["ratio_total"]


def test_sweep_sigma_flags_every_cell_of_an_all_vacuum_pair(tmp_path):
    # without material every force and band excess is zero, so each ratio
    # divides zero by zero: every cell reports NaN with the flag
    body = SWEEP_BODY.replace("omega_pl = 10.0", "omega_pl = 0.0") \
                     .replace("omega_pl = 3.0", "omega_pl = 0.0") \
                     .replace("sigma_grid = 0.001 0.5 1.0",
                              "sigma_grid = 0.5 1.0")
    out = tmp_path / "sweep.csv"
    assert main(["sweep-sigma", "--config", write(tmp_path, body),
                 "--out", str(out), "--reproducible"]) == EXIT_OK
    _, rows = read_rows(out)
    assert [r["flags"] for r in rows] == ["ZeroDivisionError"] * 2
    assert all(math.isnan(float(r["ratio_ic"]))
               and math.isnan(float(r["ratio_total"])) for r in rows)


def test_sweep_sigma_reproducible_reruns(tmp_path):
    cfg = write(tmp_path, SWEEP_BODY)
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(["sweep-sigma", "--config", cfg, "--out", str(out1),
                 "--reproducible"]) == EXIT_OK
    assert main(["sweep-sigma", "--config", cfg, "--out", str(out2),
                 "--reproducible"]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_sigma_one_ladder_per_band_center(tmp_path, monkeypatch):
    calls = []
    ladder = forces.band_excess_curve

    def counted(cav, omega0, sigmas, spec):
        out = ladder(cav, omega0, sigmas, spec)
        calls.append((cav, omega0, list(sigmas), spec, out))
        return out

    monkeypatch.setattr(forces, "band_excess_curve", counted)
    body = MILD_BODY + ("\n[sweep]\nsigma_grid = 0.001 0.25 0.5 1.0 2.0\n"
                        "omega0_list = 2.0 3.0\n")
    assert main(["sweep-sigma", "--config", write(tmp_path, body),
                 "--reproducible"]) == EXIT_OK
    # the overflowing sigma = 0.001 is screened out before the ladder
    assert [(c[1], c[2]) for c in calls] == [(2.0, [0.25, 0.5, 1.0, 2.0]),
                                             (3.0, [0.25, 0.5, 1.0, 2.0])]
    # the ladder sums strips where a single call integrates the whole
    # window; the two may differ only within their estimates
    for cav, omega0, sigmas, spec, out in calls:
        for sigma, (v, e) in zip(sigmas, out):
            (w, ew), = ladder(cav, omega0, [sigma], spec)
            assert abs(v - w) <= e + ew


def test_sweep_sigma_failed_ladder_flags_its_cells(tmp_path, monkeypatch):
    def refused(cav, omega0, sigmas, spec):
        raise NonConvergenceError("refused", panels=0)

    monkeypatch.setattr(forces, "band_excess_curve", refused)
    out = tmp_path / "sweep.csv"
    assert main(["sweep-sigma", "--config", write(tmp_path, SWEEP_BODY),
                 "--out", str(out), "--reproducible"]) == EXIT_OK
    _, rows = read_rows(out)
    assert [r["flags"] for r in rows] == ["OverflowError",
                                          "NonConvergenceError",
                                          "NonConvergenceError"]
    assert all(math.isnan(float(r["ratio_ic"])) for r in rows)


@pytest.mark.parametrize("total, err_ic, err_b, flag", [
    (0.0296, 0.05, 0.02, "sign_unresolved"),
    (-0.01, 0.004, 0.006, "sign_unresolved"),
    (0.0290, 1e-3, 1.2e-3, ""),
    (0.0, 0.0, 0.0, ""),
])
def test_force_flags_unresolved_sign(tmp_path, monkeypatch, capsys, total,
                                     err_ic, err_b, flag):
    # each part also carries the error of the zero-temperature bath
    # integral, which cancels from the total and must not flag its sign
    def fake(cav, state, beta_left, beta_right, spec):
        return ForceBreakdown(total, 0.0, total, err_ic + 1e3, err_b + 1e3,
                              err_ic + err_b)

    monkeypatch.setattr(forces, "force_total", fake)
    out = tmp_path / "force.csv"
    assert main(["force", "--config", write(tmp_path, MILD_BODY),
                 "--out", str(out), "--reproducible"]) == EXIT_OK
    _, rows = read_rows(out)
    assert rows[0]["flags"] == flag
    line = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("attractive")][0]
    assert line.endswith(flag or rows[0]["attractive"])


def test_sweep_sigma_one_csv_per_band_center(tmp_path):
    body = SWEEP_BODY.replace("omega0_list = 3.0", "omega0_list = 3.0 4.0") \
                     .replace("sigma_grid = 0.001 0.5 1.0",
                              "sigma_grid = 0.5")
    out = tmp_path / "sweep.csv"
    code = main(["sweep-sigma", "--config", write(tmp_path, body),
                 "--out", str(out), "--reproducible"])
    assert code == EXIT_OK
    for suffix in ("sweep_omega3.csv", "sweep_omega4.csv"):
        header, rows = read_rows(tmp_path / suffix)
        assert len(rows) == 1 and rows[0]["flags"] == ""
    # the centre goes before the file's own extension, not before a dot
    # in a directory name
    (tmp_path / "run.d").mkdir()
    assert main(["sweep-sigma", "--config", write(tmp_path, body),
                 "--out", str(tmp_path / "run.d" / "sweep"),
                 "--reproducible"]) == EXIT_OK
    assert sorted(p.name for p in (tmp_path / "run.d").iterdir()) == [
        "sweep_omega3", "sweep_omega4"]


def test_limits_rows(tmp_path):
    out = tmp_path / "limits.csv"
    code = main(["limits", "--config", write(tmp_path, STATIC_BODY),
                 "--out", str(out), "--reproducible"])
    assert code == EXIT_OK
    header, rows = read_rows(out)
    byname = {r["limit"]: r for r in rows}
    eq = float(byname["equilibrium_matsubara"]["value"])
    nd = float(byname["dissipationless"]["value"])
    assert math.isfinite(eq) and math.isfinite(nd)
    # thermal equilibrium vs vacuum dissipationless on the same static pair
    assert abs(eq - nd) < 0.1 * abs(nd)
    # half-space split needs absorbing media: flagged, not fatal
    assert byname["halfspace_equal_temps"]["flags"] == "NonConvergenceError"
    assert math.isnan(float(byname["halfspace_equal_temps"]["value"]))


def test_limits_reports_the_halfspace_error(tmp_path):
    # the half-space row's error is its field-state group's estimate, not
    # the bath-mismatch group, which is zero at equal temperatures
    out = tmp_path / "limits.csv"
    assert main(["limits", "--config", write(tmp_path, MILD_BODY),
                 "--out", str(out), "--reproducible"]) == EXIT_OK
    rows = {r["limit"]: r for r in read_rows(out)[1]}
    row, ref = rows["halfspace_equal_temps"], rows["lifshitz_halfspace"]
    assert row["flags"] == ""
    err = float(row["err"])
    assert 0.0 < err < math.inf
    assert abs(float(row["value"]) - float(ref["value"])) <= err + float(
        ref["err"])


WEAK_BODY = """
[cavity]
gap = 1.0
width = 100.0

[left]
omega0 = 10.0
omega_pl = 10.0
gamma0 = 1e-6

[right]
omega0 = 10.0
omega_pl = 10.0
gamma0 = 1e-6

[baths]
beta_left = 5.0
beta_right = 5.0

[quadrature]
rel_tol = 3e-4
abs_tol = 1e-8
"""


def test_limits_reports_the_bound_gap_modes(tmp_path):
    # the weakly damped pair's two bound gap modes, subtracted from Z as
    # pole terms, each report their area; the wide modes of the mild pair
    # are not subtracted and add no row
    out = tmp_path / "limits.csv"
    assert main(["limits", "--config", write(tmp_path, WEAK_BODY),
                 "--out", str(out), "--reproducible"]) == EXIT_OK
    rows = [r for r in read_rows(out)[1] if r["limit"].startswith("bound")]
    assert [r["limit"] for r in rows] == ["bound_mode@11.4053",
                                          "bound_mode@13.4624"]
    for row, ref in zip(rows, (-47.858, -50.062)):
        assert row["beta"] == "inf" and row["flags"] == ""
        assert float(row["value"]) == pytest.approx(ref, abs=1e-3)
        assert 0.0 < float(row["err"]) < 1e-5
    out = tmp_path / "mild.csv"
    assert main(["limits", "--config", write(tmp_path, MILD_BODY, "m.ini"),
                 "--out", str(out), "--reproducible"]) == EXIT_OK
    assert not any(r["limit"].startswith("bound")
                   for r in read_rows(out)[1])


def test_verify_passes(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    assert main(["verify", "--out", str(out), "--reproducible"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "FAIL" not in text
    header, rows = read_rows(out)
    assert {r["status"] for r in rows} == {"PASS"}
    names = {r["check"] for r in rows}
    assert "equilibrium_dual_pipeline" in names
    assert "real_axis_dual_pipeline" in names
    assert "nonequilibrium_dual_pipeline" in names
    assert "dense_band_dual_pipeline" in names
    assert "shallow_band_dual_pipeline" in names
    assert "ladder_edge_dual_pipeline" in names
    assert "tail_edge_dual_pipeline" in names
    assert "bath_dissipationless_zero" in names
