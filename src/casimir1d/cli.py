"""Command-line driver: single forces, bandwidth sweeps, limits, verification.

Commands
--------
force        evaluate f_ic, f_b, f_total for one configuration
sweep-sigma  ratio of the thermal force to the squeezed-band force over a
             bandwidth grid, one CSV per band center
limits       the closed-form limit cases for one configuration
verify       self-contained invariant checks (canned configurations)

Configuration is a flat INI file; all physics inputs are in gap units
(lengths in a, rates and temperatures in 1/a).  Temperatures may instead be
given in kelvin with ``*_kelvin`` keys, which requires ``gap_meters`` in the
[cavity] section; the conversion uses the thermal-length constant
2.2899e-3 m*K.

Exit codes: 0 success, 2 configuration error, 3 numerical non-convergence,
4 verification failure.  CSV output is UTF-8 with '.' decimals, a mandatory
header row, and (unless --reproducible) a leading timestamp comment line.
"""

import argparse
import configparser
import csv
import math
import os
import sys

from . import forces
from ._value import Frozen
from .errors import NaNIntegrandError, NonConvergenceError
from .material import Material
from .quadrature import QuadratureSpec
from .scattering import CavityConfig
from .states import FieldState

SCHEMA_VERSION = "2"
KELVIN_METER = 2.2899e-3
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

_FORCE_COLUMNS = (
    "schema_version", "gap", "width", "gap_meters",
    "left_model", "left_omega0", "left_omega_pl", "left_gamma0",
    "right_model", "right_omega0", "right_omega_pl", "right_gamma0",
    "state", "state_beta", "state_sigma", "state_omega_center", "state_xi",
    "beta_left", "beta_right", "rel_tol", "abs_tol",
    "f_ic", "f_b", "f_total", "err_ic", "err_b", "err_total", "attractive",
    "flags",
)
_SWEEP_COLUMNS = ("schema_version", "omega0", "sigma", "ratio_ic",
                  "ratio_total", "flags")
_LIMIT_COLUMNS = ("schema_version", "limit", "beta", "value", "err", "flags")
_VERIFY_COLUMNS = ("schema_version", "check", "measured", "threshold",
                   "status")


class ConfigError(ValueError):
    """Raised for malformed or incomplete run configuration."""


class RunConfig(Frozen):
    """Parsed run configuration for the experiment drivers."""

    __slots__ = ("cavity", "state", "beta_left", "beta_right", "spec",
                 "sigma_grid", "omega0_list", "gap_meters")

    def __init__(self, cavity, state, beta_left, beta_right, spec, sigma_grid,
                 omega0_list, gap_meters):
        self._assign(cavity, state, beta_left, beta_right, spec, sigma_grid,
                     omega0_list, gap_meters)


def beta_from_kelvin(t_kelvin, gap_meters):
    """Inverse natural temperature for a physical temperature and gap."""
    if not t_kelvin > 0.0:
        raise ConfigError("kelvin temperature must be positive, got %r"
                          % t_kelvin)
    if gap_meters is None:
        raise ConfigError("kelvin temperatures require gap_meters in "
                          "[cavity]")
    return KELVIN_METER / (t_kelvin * gap_meters)


def _get(cp, section, key, cast=float, default=KeyError):
    if not cp.has_option(section, key):
        if default is KeyError:
            raise ConfigError("missing required key [%s] %s" % (section, key))
        return default
    raw = cp.get(section, key)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError("cannot parse [%s] %s = %r: %s"
                          % (section, key, raw, exc))


def _floats(raw):
    vals = [float(t) for t in raw.replace(",", " ").split()]
    if not vals:
        raise ValueError("empty list")
    if not all(map(math.isfinite, vals)):
        raise ValueError("entries must be finite")
    return tuple(vals)


def _material(cp, section):
    if not cp.has_section(section):
        raise ConfigError("missing required section [%s]" % section)
    model = _get(cp, section, "model", str, "drude_lorentz")
    try:
        return Material(
            omega0=_get(cp, section, "omega0"),
            omega_pl=_get(cp, section, "omega_pl"),
            gamma0=_get(cp, section, "gamma0", float, 0.0),
            model=model,
        )
    except ValueError as exc:
        raise ConfigError("bad material in [%s]: %s" % (section, exc))


def _beta(cp, section, base, gap_meters):
    kelvin = base.replace("beta", "temperature") + "_kelvin"
    has_nat = cp.has_option(section, base)
    has_kel = cp.has_option(section, kelvin)
    if has_nat and has_kel:
        raise ConfigError("[%s]: give either %s or its _kelvin form, not "
                          "both" % (section, base))
    if not (has_nat or has_kel):
        raise ConfigError("missing required key [%s] %s (or its _kelvin "
                          "form)" % (section, base))
    beta = _get(cp, section, base) if has_nat else beta_from_kelvin(
        _get(cp, section, kelvin), gap_meters)
    if not beta > 0.0:
        raise ConfigError("[%s] %s must be positive (inf for zero "
                          "temperature), got %r" % (section, base, beta))
    return beta


def _state(cp, gap_meters):
    variant = _get(cp, "state", "variant", str, "vacuum")
    try:
        if variant == "vacuum":
            return FieldState.vacuum()
        if variant == "thermal":
            return FieldState.thermal(_beta(cp, "state", "beta", gap_meters))
        if variant == "squeezed_band":
            return FieldState.squeezed_band(
                _get(cp, "state", "sigma"),
                _get(cp, "state", "omega_center"))
        if variant == "squeezed_delta":
            return FieldState.squeezed_delta(
                _get(cp, "state", "omega_center"))
        if variant == "squeezed_const":
            return FieldState.squeezed_const(_get(cp, "state", "xi"))
    except ValueError as exc:
        raise ConfigError("bad [state]: %s" % exc)
    raise ConfigError("unknown state variant %r" % variant)


def load_run_config(path, need_sweep=False):
    """Parse the INI run configuration at path into a RunConfig."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    except configparser.Error as exc:
        raise ConfigError("cannot parse config %s: %s" % (path, exc))

    if not cp.has_section("cavity"):
        raise ConfigError("missing required section [cavity]")
    gap_meters = _get(cp, "cavity", "gap_meters", float, None)
    if gap_meters is not None and not 0.0 < gap_meters < math.inf:
        raise ConfigError("[cavity] gap_meters must be positive and finite, "
                          "got %r" % gap_meters)
    try:
        cavity = CavityConfig(
            gap=_get(cp, "cavity", "gap"),
            width=_get(cp, "cavity", "width"),
            left=_material(cp, "left"),
            right=_material(cp, "right"),
        )
    except ValueError as exc:
        raise ConfigError("bad [cavity]: %s" % exc)

    if not cp.has_section("baths"):
        raise ConfigError("missing required section [baths]")
    beta_left = _beta(cp, "baths", "beta_left", gap_meters)
    beta_right = _beta(cp, "baths", "beta_right", gap_meters)

    kwargs = {key: _get(cp, "quadrature", key, cast) for key, cast in (
        ("rel_tol", float), ("abs_tol", float), ("panel_width", float),
        ("max_panels", int)) if cp.has_option("quadrature", key)}
    try:
        spec = QuadratureSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError("bad [quadrature]: %s" % exc)

    sigma_grid = _get(cp, "sweep", "sigma_grid", _floats, ())
    omega0_list = _get(cp, "sweep", "omega0_list", _floats, ())
    if need_sweep:
        if not sigma_grid:
            raise ConfigError("missing required key [sweep] sigma_grid")
        if not omega0_list:
            raise ConfigError("missing required key [sweep] omega0_list")
        if not all(s > 0.0 for s in sigma_grid) or \
                list(sigma_grid) != sorted(sigma_grid):
            raise ConfigError("[sweep] sigma_grid must be positive and "
                              "ascending")
        if not all(w > 0.0 for w in omega0_list):
            raise ConfigError("[sweep] omega0_list must be positive")

    return RunConfig(cavity=cavity, state=_state(cp, gap_meters),
                     beta_left=beta_left, beta_right=beta_right, spec=spec,
                     sigma_grid=sigma_grid, omega0_list=omega0_list,
                     gap_meters=gap_meters)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, columns, rows, reproducible):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if not reproducible:
            from datetime import datetime, timezone
            fh.write("# written %s\n"
                     % datetime.now(timezone.utc).isoformat())
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _input_echo(rc):
    cav, st = rc.cavity, rc.state
    return [
        SCHEMA_VERSION, cav.gap, cav.width, rc.gap_meters,
        cav.left.model, cav.left.omega0, cav.left.omega_pl, cav.left.gamma0,
        cav.right.model, cav.right.omega0, cav.right.omega_pl,
        cav.right.gamma0,
        st.variant, st.beta, st.sigma, st.omega_center, st.xi,
        rc.beta_left, rc.beta_right, rc.spec.rel_tol, rc.spec.abs_tol,
    ]


def cmd_force(rc, out, reproducible):
    """Evaluate the force breakdown for one configuration."""
    if rc.state.variant == "squeezed_delta":
        raise ConfigError("the squeezed_delta state has no pointwise "
                          "weight to integrate; `limits` reports its force "
                          "density at its omega_center")
    res = forces.force_total(rc.cavity, rc.state, rc.beta_left,
                             rc.beta_right, rc.spec)
    attractive = res.total > 0.0
    # the error does not resolve the sign; an exact zero with zero error
    # (no material) has no sign to resolve
    err = res.err_total
    flags = "sign_unresolved" if err > 0.0 and err >= abs(res.total) else ""
    row = _input_echo(rc) + [res.ic, res.bath, res.total, res.err_ic,
                             res.err_bath, err, attractive, flags]
    print("f_ic       = %.12e   (err %.2e)" % (res.ic, res.err_ic))
    print("f_b        = %.12e   (err %.2e)" % (res.bath, res.err_bath))
    print("f_total    = %.12e   (err %.2e)" % (res.total, err))
    line = "attractive = %s" % _fmt(attractive)
    print(line + "   " + flags if flags else line)
    if out:
        _write_csv(out, _FORCE_COLUMNS, [row], reproducible)
    return EXIT_OK


def _band_excesses(cav, omega0, sigmas, spec):
    """Band excess ``(value, err)`` per sigma from one ladder call, or the
    exception that stopped the cell.

    A cell whose in-band weight cosh(2/sigma) overflows is screened out
    before the ladder and fails alone; if the ladder itself raises, every
    cell it was asked for carries that exception.
    """
    out = [None] * len(sigmas)
    todo = []
    for i, sigma in enumerate(sigmas):
        try:
            math.cosh(2.0 / sigma)
        except OverflowError as exc:
            out[i] = exc
        else:
            todo.append(i)
    try:
        curve = forces.band_excess_curve(cav, omega0,
                                         [sigmas[i] for i in todo], spec)
    except (NonConvergenceError, NaNIntegrandError, ArithmeticError) as exc:
        curve = [exc] * len(todo)
    for i, r in zip(todo, curve):
        out[i] = r
    return out


def _sweep_ratios(f_th, f_vac, f_b, band):
    """``[ratio_ic, ratio_total, flags]`` of one cell."""
    if isinstance(band, Exception):
        return [math.nan, math.nan, type(band).__name__]
    f_band = f_vac + band[0]
    try:
        return [f_th / f_band, (f_th + f_b) / (f_band + f_b), ""]
    except ZeroDivisionError as exc:
        return [math.nan, math.nan, type(exc).__name__]


def cmd_sweep_sigma(rc, out, reproducible):
    """Thermal-to-squeezed force ratios over the bandwidth grid."""
    if rc.state.variant != "thermal":
        raise ConfigError("sweep-sigma needs [state] variant = thermal "
                          "(the ratio numerator)")
    cav, spec = rc.cavity, rc.spec
    f_th, _ = forces.force_ic(cav, rc.state, spec)
    f_vac, _ = forces.force_ic(cav, FieldState.vacuum(), spec)
    f_b, _ = forces.force_bath(cav, rc.beta_left, rc.beta_right, spec)
    for omega0 in rc.omega0_list:
        bands = _band_excesses(cav, omega0, rc.sigma_grid, spec)
        rows = [[SCHEMA_VERSION, omega0, sigma]
                + _sweep_ratios(f_th, f_vac, f_b, band)
                for sigma, band in zip(rc.sigma_grid, bands)]
        for row in rows:
            print("omega0=%-8s sigma=%-10s ratio_ic=%-22s ratio_total=%-22s"
                  " %s" % (_fmt(row[1]), _fmt(row[2]), _fmt(row[3]),
                           _fmt(row[4]), row[5]))
        if out:
            path = out
            if len(rc.omega0_list) > 1:
                root, ext = os.path.splitext(out)
                path = "%s_omega%g%s" % (root, omega0, ext)
            _write_csv(path, _SWEEP_COLUMNS, rows, reproducible)
    return EXIT_OK


def cmd_limits(rc, out, reproducible):
    """Closed-form limit cases for the configured cavity."""
    cav, spec, beta = rc.cavity, rc.spec, rc.beta_left
    rows = []

    def add(name, thunk, beta_used=beta):
        try:
            value, err = thunk()
            rows.append([SCHEMA_VERSION, name, beta_used, value, err, ""])
        except (NonConvergenceError, ValueError) as e:
            rows.append([SCHEMA_VERSION, name, beta_used, math.nan, math.nan,
                         type(e).__name__])

    add("equilibrium_matsubara",
        lambda: forces.equilibrium_matsubara(cav, beta, spec))
    add("lifshitz_halfspace",
        lambda: forces.lifshitz_matsubara(cav.left, cav.right, cav.gap, beta,
                                          spec))
    # the field-state group with its own error; the bath-mismatch group is
    # exactly zero at equal temperatures
    add("halfspace_equal_temps",
        lambda: forces._halfspace_parts(cav.left, cav.right, cav.gap, beta,
                                        beta, beta, spec)[0])
    add("dissipationless",
        lambda: forces.force_dissipationless(cav, rc.state, spec))
    centers = list(rc.omega0_list)
    if rc.state.variant == "squeezed_delta" and \
            rc.state.omega_center not in centers:
        centers.append(rc.state.omega_center)
    for omega0 in centers:
        add("delta_squeezed@%g" % omega0,
            lambda w=omega0: (forces.force_delta_squeezed(cav, w), 0.0))
    # each bound gap mode that Z subtracts as a pole term: its area, which
    # the slabs' damping does not set (criterion 2), at zero temperature
    for km, area, err in forces._bound_modes(cav, spec):
        add("bound_mode@%g" % km, lambda v=(area, err): v, math.inf)
    for row in rows:
        print("%-28s beta=%-10s value=%-24s err=%-12s %s"
              % (row[1], _fmt(row[2]), _fmt(row[3]), _fmt(row[4]), row[5]))
    if out:
        _write_csv(out, _LIMIT_COLUMNS, rows, reproducible)
    return EXIT_OK


def cmd_verify(out, reproducible):
    """Run the canned invariant suite; exit 4 if anything fails."""
    rows = []
    failed = False
    # the oracles, and the stress module they use, load only here
    from .oracles import verify_checks
    for name, measured, threshold in verify_checks():
        ok = measured <= threshold
        failed = failed or not ok
        status = "PASS" if ok else "FAIL"
        rows.append([SCHEMA_VERSION, name, measured, threshold, status])
        print("%s %-36s measured=%-14.3e threshold=%.0e"
              % (status, name, measured, threshold))
    if out:
        _write_csv(out, _VERIFY_COLUMNS, rows, reproducible)
    return EXIT_VERIFY if failed else EXIT_OK


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="casimir1d",
        description="Steady-state forces between dissipative slabs.")
    parser.add_argument("command",
                        choices=("force", "sweep-sigma", "limits", "verify"))
    parser.add_argument("--config", help="INI run configuration")
    parser.add_argument("--out", help="CSV output path")
    parser.add_argument("--reproducible", action="store_true",
                        help="suppress the timestamp comment line")
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.out, args.reproducible)
        if not args.config:
            raise ConfigError("command %r requires --config" % args.command)
        rc = load_run_config(args.config,
                             need_sweep=args.command == "sweep-sigma")
        if args.command == "force":
            return cmd_force(rc, args.out, args.reproducible)
        if args.command == "sweep-sigma":
            return cmd_sweep_sigma(rc, args.out, args.reproducible)
        return cmd_limits(rc, args.out, args.reproducible)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except (NonConvergenceError, NaNIntegrandError) as exc:
        print("numerical non-convergence: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
