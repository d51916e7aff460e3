"""Write one BENCH_<n>.json entry: the benchmark's end-to-end metrics for a
parent checkout and for this one, their per-layer counts, and the tier-1
suite's wall time.

Usage (from the repository root):

    python3 scripts/write_bench.py --parent DIR --out BENCH_6.json

DIR is a checkout of the parent commit (``git archive`` or ``git clone``).
For each of the four workloads, ``perfbench/run.py --workload W --seed 0
--seconds 10`` runs ten times in each checkout, in pairs whose first side
alternates (the parent first in the first pair), so slow drift of the host
does not favour one side, and then one more pair at seed 1, a seed other
than the pinned parameters of seed 0, kept apart as ``held_out``.
One traced run (``--trace 1``) per workload and checkout at seed 0 gives the
per-layer counts, and the tier-1 pytest command runs once per checkout.
The tracer counts the calls of ``core.ic_bracket`` and
``core.bath_integrand`` only; the force routines take the one-triple forms
(``core.ic_bracket_of`` and the like), so its ``kernels.ic_bracket.calls``
and ``kernels.evals_k_*`` read 0, and the state excess's points are in
``excess_calls`` below instead.
Every ``__pycache__`` directory of both checkouts is removed once before
the runs, and every interpreter started in a checkout, these and those
below, runs under ``PYTHONDONTWRITEBYTECODE=1``, so each compiles the
package as a run of the benchmark in a fresh checkout does, and reads the
standard library's bytecode as it does.
Every metric is recorded as median and quartiles per side over the ten
seed-0 pairs, every run is kept, and for ``wall_s`` the entry counts the
pairs the change won, and whether it won the held-out pair.
The entry also records each side's size: the physical and the code lines
of every module of ``src/casimir1d`` and their totals, where code lines
leave out blank lines, comment-only lines and docstrings (every statement
that is a bare string), and ``code_change``, each module's change in code
lines from the parent.  ``size(tree)`` gives the same count on its own.
Each side's ``outputs`` hold the repr of what the program computes, so a
change meant to keep every number can show that it did: ``force_total``
on the four workload configurations at seed 0, the docs sigma ladder
(``band_excess_curve``), the ``sweep-sigma --reproducible`` and
``limits --reproducible`` CSVs of the docs INI and the ``verify`` rows.
``outputs(tree)`` gives them on their own; the entry marks, for each name,
whether its repr is ``identical`` on both sides, and lists those that
differ.
Each side's ``points`` count the kernel points of the zero-temperature
bath integral Z on each workload's cavity, by wrapping Z's offset kernel
``core.vacuum_baths``, its diagonal loop ``core.diagonal_vacuum_baths``
(where the checkout has it; n offsets count n points) and its one-triple
form ``core.vacuum_bath_of``, whose single points count as one-offset
calls: every offset point, the
one-offset (raw) calls, and the raw calls within 0.1 of a bound gap mode
(``forces._gap_modes``), the layer ``perfbench/tracing.py`` does not see,
and Z itself as (value, err).  A one-triple form never calls its offset
kernel, so no point is counted twice.
``stages`` splits the offset points by the innermost stage of Z that made
them: ``coarse`` (the pass over [0, k0] inside ``forces._switch``),
``probe`` (the rest of ``_switch``: its phase grid at k0), ``edges`` (the
signed edge terms past the switch point), ``band_grid`` (each band's
sample grid), ``band_means`` (its slab-phase means), ``band_ends`` (the
stencils of its edge terms), ``tail`` (the averaged tail) and ``direct``
(the direct pass and the pole fits); the tracer files this split under
other stages.
``K`` is Z's switch point and ``grids`` the offsets per phase of the
probe at k0, of the edge terms' grid at K and of the tail average (empty
on checkouts that size no grid).  Every memo is cleared before each
cavity and before the docs ladder.  With Z memoized, ``excess_calls``
counts the kernel calls of the thermal state excess X (the points of
``core.ic_bracket_of``) and of the bath excess Y (the points of
``core.bath_factors_of``) in the workload's ``force_total`` calls at seed
0 (one, or two on ``noneq_mild``), which the tracer cannot attribute to
them.
Next to them, ``docs_ladder`` counts the docs sigma ladder's
``core.ic_brackets`` and ``core.diagonal_ic_brackets`` calls and points,
with the single points of ``core.ic_bracket_of``, and records its switch
points K (one per
``omega0_list`` entry), a layer the tracer does not see either.
``timing`` divides the time of Z on each workload's cavity, of the docs
sigma ladder and of ``noneq_mild``'s two bath excesses Y (target
``noneq_mild_Y``) between the integrand kernels of ``core`` and the
bookkeeping around them: ``total_s``, the seconds of the target;
``offset_s``, those inside the kernels that take the cavity after the
frequency (the offset kernels ``core.vacuum_baths`` and
``core.ic_brackets`` and their diagonal loops on these targets);
``point_s``, those inside the single points of the one-triple forms, which
take the cavity alone; and ``index_calls``, the ``refractive_at`` calls
made outside both.  The docs ladder's ``total_s`` is also split by stage,
each stage's seconds those outside the others: ``switch_s``
(``forces._switch``, its edge terms at K included), ``strips_s`` (the
strips' quadrature, with their means and the phase average past K),
``band_grids_s`` (each band's sample grid, ``forces._band_bounds``),
``band_ends_s`` (the bands' edge terms at the window ends) and
``past_K_edges_s`` (the windows' signed edge terms past K); the rest is
the band scan and the ladder's own bookkeeping.  There ``means`` counts
the band means asked and ``charged_pole_forms`` the pole forms that
charge their rounding, one per mean that five offsets or fewer do not
hold and that no earlier mean at its k computed.  Only
the package's calls into ``core`` are wrapped, not those ``core`` makes
within itself.  The seconds are medians over 9 runs of the target from
cold memos in the one interpreter that also counts the points above, so
they include the counting wrappers' cost and are read as shares; every
count, ``index_calls`` too, is that of the first run.
``points(tree)`` gives them all on their own.
Each side's ``imports`` hold the per-module import self-time in
microseconds, the median of ``python3 -X importtime`` over 9 fresh
interpreters under ``PYTHONDONTWRITEBYTECODE=1``, of the imports a
``perfbench/sample.py`` setup sample makes: its own, ``casimir1d``,
``speed`` and ``workloads``.  They split ``setup_s`` by module.  The two
sides' interpreters alternate, and so does the side that starts each
round, so slow drift of the host falls on both.
``imports({"change": tree})`` gives one checkout's on their own.
"""

import argparse
import ast
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fig_300k", "noneq_mild", "weak_damping", "sweep_docs")
SEEDS = (0,) * 10
HELD_OUT = 1
SECONDS = 10
TIER1 = [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors", "-p", "no:cacheprovider"]
SIDES = ("parent", "change")
IMPORT_RUNS = 9
# tokens that do not make a line a code line
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _env(**extra):
    """The environment of every interpreter run in a checkout, ``extra``
    added: it writes no bytecode, so a checkout cleared by
    ``drop_bytecode`` stays as fresh as the benchmark's own."""
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **extra)


def drop_bytecode(tree):
    """Remove every ``__pycache__`` directory under ``tree``."""
    for top, dirs, _ in os.walk(tree):
        if "__pycache__" in dirs:
            dirs.remove("__pycache__")
            shutil.rmtree(os.path.join(top, "__pycache__"))


def _bench(tree, workload, seed, trace):
    """The metrics JSON object ``perfbench/run.py`` prints last."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          env=_env(), check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tier1(tree):
    """Wall seconds and summary line of the tier-1 pytest run in ``tree``."""
    env = _env(PYTHONPATH=os.path.join(tree, "src"))
    start = time.monotonic()
    proc = subprocess.run(TIER1, cwd=tree, capture_output=True, text=True,
                          env=env)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "summary": lines[-1] if lines else ""}


def code_lines(source):
    """Lines of the Python ``source`` that hold code: every line a token
    other than a comment or layout covers, less the lines of docstrings."""
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value,
                                                     ast.Constant) \
                and isinstance(node.value.value, str):
            doc.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - doc)


def size(tree):
    """``{module: {"physical": n, "code": n}}`` for every module of
    ``src/casimir1d`` in ``tree``, with their sums under ``"total"``."""
    pkg = os.path.join(tree, "src", "casimir1d")
    out = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                source = fh.read()
            out[name] = {"physical": len(source.splitlines()),
                         "code": code_lines(source)}
    out["total"] = {k: sum(m[k] for m in out.values())
                    for k in ("physical", "code")}
    return out


def size_change(parent, change):
    """``{module: code lines of change - code lines of parent}`` for every
    module of either ``size`` result and the total; a module one side
    lacks counts 0 lines there."""
    return {m: change.get(m, {}).get("code", 0)
            - parent.get(m, {}).get("code", 0)
            for m in sorted(set(parent) | set(change))}


def identical(parent, change):
    """``{name: True or False}``: whether each output of either side has
    the same repr on both (see ``outputs``)."""
    return {k: parent.get(k) == change.get(k)
            for k in sorted(set(parent) | set(change))}


# Run in a checkout's root with its src on the path; prints the outputs as
# one JSON object of reprs.
_OUTPUTS = r"""
import contextlib, io, json, os, sys, tempfile
sys.path.insert(0, "perfbench")
import workloads as W
from casimir1d import cli, forces
from casimir1d.oracles import verify_checks
from casimir1d.states import FieldState

b = W.BETA_300K
rc = cli.load_run_config(W.SWEEP_INI, need_sweep=True)
out = {
    "fig_300k": forces.force_total(W.FIG_CFG, FieldState.thermal(b), b, b,
                                   W.FIG_SPEC),
    "noneq_mild": [forces.force_total(
        W.NONEQ_CFG, FieldState.thermal(W.NONEQ_BETA_STATE), bl, br,
        W.NONEQ_SPEC) for bl, br in (W.NONEQ_BATHS, W.NONEQ_BATHS[::-1])],
    "weak_damping": forces.force_total(W.WEAK_CFG, FieldState.thermal(b), b,
                                       b, W.WEAK_SPEC),
    "sweep_docs": forces.force_total(rc.cavity, rc.state, rc.beta_left,
                                     rc.beta_right, rc.spec),
    "docs_ladder": [forces.band_excess_curve(rc.cavity, w, rc.sigma_grid,
                                             rc.spec)
                    for w in rc.omega0_list],
    "verify": verify_checks(),
}
with tempfile.TemporaryDirectory() as tmp:
    for name, command in (("sweep_csv", "sweep-sigma"),
                          ("limits_csv", "limits")):
        path = os.path.join(tmp, name)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main([command, "--config", W.SWEEP_INI, "--out", path,
                      "--reproducible"])
        with open(path, encoding="utf-8") as fh:
            out[name] = fh.read()
print(json.dumps({k: repr(v) for k, v in out.items()}))
"""


# Run like _OUTPUTS with the argument RUNS; prints Z's kernel points by
# stage and its grids at the switch point, Z and the excesses' kernel calls
# per workload cavity, the docs ladder's points and each target's timing,
# the ladder's split by stage, as JSON, each measured from cold memos.
_POINTS = r"""
import inspect, json, statistics, sys, time, types
sys.path.insert(0, "perfbench")
import workloads as W
from casimir1d import cli, forces
from casimir1d.kernels import core
from casimir1d.states import FieldState

runs = int(sys.argv[1])
rc = cli.load_run_config(W.SWEEP_INI, need_sweep=True)
# (k, offsets, Z's stage) per kernel call, (stage, k, dims) per phase grid,
# the switch points' results and the excess (X or Y) of each excess point
calls, grids, switched, excess = tallies = [], [], [], []
# Z's stage, or the excess: the innermost of the wrapped functions it is in
stage = ["direct"]
spent = {}
timing = {}
# the docs ladder's stages whose seconds timing splits out, and the one of
# them each call is in (the outermost), once splitting is on
SPLIT = ("switch_s", "strips_s", "band_grids_s", "band_ends_s",
         "past_K_edges_s")
split_in = []
splitting = [False]


# clears every per-process memo of forces, so that what runs next starts as
# a fresh process would
def cold():
    for name in ("_vacuum_bath", "_rotated_vacuum", "_cavity_excess",
                 "_bath_factors", "_kinds"):
        getattr(forces, name).cache_clear()


def clocked(field, fn):
    def wrapped(*args, **kw):
        start = time.perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            spent[field] += time.perf_counter() - start
    return wrapped


def indexed(*args):
    spent["index_calls"] += 1
    return refractive_at(*args)


# every package module that binds core gets a copy of it whose integrand
# kernels are timed and whose refractive_at is counted, so the calls core
# makes within itself stay unwrapped
refractive_at = core.refractive_at
copy = types.ModuleType(core.__name__)
copy.__dict__.update(vars(core), refractive_at=indexed)
for name, fn in vars(core).items():
    if inspect.isfunction(fn) and not name.startswith("_"):
        params = list(inspect.signature(fn).parameters)
        if params == ["a", "d", "matL", "matR"]:
            setattr(copy, name, lambda *cavity, bind=fn: clocked(
                "point_s", bind(*cavity)))
        elif params[1:5] == ["a", "d", "matL", "matR"] \
                or params[1:4] == ["a", "d", "mat"]:
            setattr(copy, name, clocked("offset_s", fn))
for mod in list(sys.modules.values()):
    if getattr(mod, "__name__", "").startswith("casimir1d") \
            and getattr(mod, "core", None) is core:
        mod.core = copy
core = copy


def timed(target, fn):
    # fn() from cold memos, runs times: its first value, with the tallies
    # of the first run, and the medians of the runs' seconds
    got, first = [], []
    for tally in tallies:
        del tally[:]
    fields = ("total_s", "offset_s", "point_s") + (
        SPLIT if splitting[0] else ())
    for _ in range(runs):
        cold()
        spent.clear()
        spent.update(dict.fromkeys(fields[1:], 0.0), index_calls=0)
        if splitting[0]:
            spent.update(means=0, charged_pole_forms=0)
        start = time.perf_counter()
        value = fn()
        got.append(dict(spent, total_s=time.perf_counter() - start))
        first = first or [value] + [len(tally) for tally in tallies]
    for tally, n in zip(tallies, first[1:]):
        del tally[n:]
    timing[target] = dict(got[0], **{
        f: statistics.median(g[f] for g in got) for f in fields})
    return first[0]


# fn timed into spent[field] while splitting, unless the call is inside
# another split stage, whose seconds then hold it
def split(field, fn):
    def wrapped(*args, **kw):
        if not splitting[0] or split_in:
            return fn(*args, **kw)
        split_in.append(field)
        start = time.perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            spent[field] += time.perf_counter() - start
            split_in.pop()
    return wrapped


# counts into spent[field], while splitting, the calls of fn whose
# arguments ``counts`` accepts: the band means asked, and the pole forms
# asked to charge their rounding (vals, width, k, parts, True)
def tallied(field, fn, counts=lambda *args: True):
    def wrapped(*args):
        if splitting[0] and counts(*args):
            spent[field] += 1
        return fn(*args)
    return wrapped


# wraps the kernel core.<name>, where the checkout has it: an offset kernel
# counts its offsets, a diagonal loop its n
def counting(name):
    kernel = getattr(core, name, None)
    if kernel is None:
        return

    def wrapped(k, *args):
        n = args[-1]
        calls.append((k, n if isinstance(n, int) else len(n), stage[-1]))
        return kernel(k, *args)
    setattr(core, name, wrapped)


# wraps the one-triple form core.<name>, which binds a cavity and returns
# its integrand at one frequency, so that each point calls record(k) first
def one_triple(name, record):
    bind = getattr(core, name)

    def binding(*cavity):
        point = bind(*cavity)

        def wrapped(k, *shifts):
            record(k)
            return point(k, *shifts)
        return wrapped
    setattr(core, name, binding)


def point(k):
    calls.append((k, 1, stage[-1]))


def excess_point(k):
    if stage[-1] in ("X", "Y"):
        excess.append(stage[-1])


def staged(label, fn, inside=None):
    def wrapped(*args, **kw):
        enter = inside is None or stage[-1] == inside
        if enter:
            stage.append(label)
        try:
            return fn(*args, **kw)
        finally:
            if enter:
                stage.pop()
    return wrapped


def banded(*args):
    stage.append("band_grid")
    try:
        mean, size, edges = split("band_grids_s", band_bounds)(*args)
    finally:
        stage.pop()
    return (tallied("means", staged("band_means", mean)), size,
            split("band_ends_s", staged("band_ends", edges)))


def gridded(shifted):
    sample = grid_sampler(shifted)

    def wrapped(k, dims):
        grids.append((stage[-1], k, dims))
        return sample(k, dims)
    return wrapped


def switching(*args):
    got = switch(*args)
    switched.append(got)
    return got


switch = forces._switch
band_bounds = forces._band_bounds
above_edges = forces._above_edges
grid_sampler = forces._sampler
forces._switch = split("switch_s", staged("probe", switching))
forces.integrate_interval = split("strips_s", staged(
    "coarse", forces.integrate_interval, "probe"))
forces._averaged_tail = staged("tail", forces._averaged_tail)
forces._above_edges = lambda *a: split("past_K_edges_s",
                                       staged("edges", above_edges(*a)))
forces._pole_form = tallied("charged_pole_forms", forces._pole_form,
                            lambda *args: args[4:] == (True,))
forces._band_bounds = banded
forces._sampler = gridded
forces._thermal_excess = staged("X", forces._thermal_excess)
forces._bath_excess = staged("Y", forces._bath_excess)
# Z's kernel, with its single points through the one-triple form; Y's and
# X's kernels, the one-triple forms
counting("vacuum_baths")
counting("diagonal_vacuum_baths")
one_triple("vacuum_bath_of", point)
one_triple("bath_factors_of", excess_point)
one_triple("ic_bracket_of", excess_point)
b = W.BETA_300K
out = {}
for name, cfg, spec, forced in (
        ("fig_300k", W.FIG_CFG, W.FIG_SPEC,
         [(FieldState.thermal(b), b, b)]),
        ("noneq_mild", W.NONEQ_CFG, W.NONEQ_SPEC,
         [(FieldState.thermal(W.NONEQ_BETA_STATE), bl, br)
          for bl, br in (W.NONEQ_BATHS, W.NONEQ_BATHS[::-1])]),
        ("weak_damping", W.WEAK_CFG, W.WEAK_SPEC,
         [(FieldState.thermal(b), b, b)]),
        ("sweep_docs", rc.cavity, rc.spec,
         [(rc.state, rc.beta_left, rc.beta_right)])):
    modes = [km for km, _, _, _ in forces._gap_modes(cfg)]
    z = timed(name, lambda: forces._vacuum_bath(cfg, spec))
    raw = [k for k, n, _ in calls if n == 1]
    (got,) = switched
    K = got[0]
    out[name] = {"points": sum(n for _, n, _ in calls), "raw": len(raw),
                 "raw_near_modes": sum(any(abs(k - km) <= 0.1
                                           for km in modes) for k in raw),
                 "Z": list(z), "K": K,
                 "stages": {s: sum(n for _, n, t in calls if t == s)
                            for s in {t for _, _, t in calls}},
                 "grids": {
                     "probe": [d for s, k, d in grids if s == "probe"][-1:],
                     "edges": [d for s, k, d in grids
                               if s == "edges" and k == K][-1:],
                     "tail": list(got[5:])}}
    del excess[:]
    for state, bl, br in forced:
        forces.force_total(cfg, state, bl, br, spec)
    out[name]["excess_calls"] = {p: excess.count(p) for p in ("X", "Y")}
timed("noneq_mild_Y", lambda: [
    forces._bath_excess(W.NONEQ_CFG, bl, br, W.NONEQ_SPEC)
    for bl, br in (W.NONEQ_BATHS, W.NONEQ_BATHS[::-1])])
counting("ic_brackets")
counting("diagonal_ic_brackets")
one_triple("ic_bracket_of", point)
splitting[0] = True
timed("docs_ladder", lambda: [
    forces.band_excess_curve(rc.cavity, w, rc.sigma_grid, rc.spec)
    for w in rc.omega0_list])
out["docs_ladder"] = {"calls": len(calls),
                      "points": sum(n for _, n, _ in calls),
                      "K": [got[0] for got in switched]}
out["timing"] = timing
print(json.dumps(out))
"""


def _run(tree, script, *args):
    """The JSON object ``script`` prints last, run with ``args`` in
    ``tree`` with its src on the path."""
    env = _env(PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=tree,
                          capture_output=True, text=True, env=env,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def points(tree, runs=IMPORT_RUNS):
    """``{workload: {"points", "raw", "raw_near_modes", "Z", "stages", "K",
    "grids", "excess_calls"}}``: Z's kernel points, by stage, its switch
    point and grids, Z and the kernel calls of the excesses X and Y on each
    workload's cavity in ``tree``,
    ``{"docs_ladder": {"calls", "points", "K"}}`` and
    ``{"timing": {target: {"total_s", "offset_s", "point_s",
    "index_calls"}}}``, its seconds the medians over ``runs`` runs (see the
    module docstring)."""
    return _run(tree, _POINTS, str(runs))


def outputs(tree):
    """``{name: repr}`` of the program's outputs in ``tree`` (see the
    module docstring)."""
    return _run(tree, _OUTPUTS)


# The imports of a perfbench/sample.py setup sample, run in a checkout's
# root.
_SETUP_IMPORTS = ("import json, os, resource, shutil, sys, tempfile, time; "
                  "sys.path[:0] = ['src', 'perfbench']; "
                  "import casimir1d, speed, workloads")
_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)")


def imports(trees, runs=IMPORT_RUNS):
    """``{side: {"total_us", "modules": {module: self_us}}}`` for each
    checkout of ``trees`` ({side: path}): medians over ``runs`` fresh
    interpreters per side of the setup imports' summed and per-module self
    time (see the module docstring).  Each round runs one interpreter per
    side, the sides in turn and the first side alternating from round to
    round."""
    sides = list(trees)
    samples = {side: [] for side in sides}
    for i in range(runs):
        for side in sides if i % 2 == 0 else sides[::-1]:
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", _SETUP_IMPORTS],
                cwd=trees[side], capture_output=True, text=True,
                env=_env(),
                check=True)
            samples[side].append({m: int(us) for us, m in
                                  _IMPORTTIME.findall(proc.stderr)})
    out = {}
    for side, got in samples.items():
        names = sorted(set().union(*got))
        out[side] = {
            "total_us": statistics.median(sum(s.values()) for s in got),
            "modules": {m: statistics.median(s.get(m, 0) for s in got)
                        for m in names}}
    return out


def _summary(values):
    """Median and quartiles (the quartiles need two or more values)."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def measure(parent):
    trees = {"parent": os.path.abspath(parent), "change": ROOT}
    for tree in trees.values():
        drop_bytecode(tree)
    entry = {"workloads": {},
             "size": {side: size(trees[side]) for side in SIDES}}
    entry["size"]["code_change"] = size_change(*(entry["size"][side]
                                                 for side in SIDES))
    for w in WORKLOADS:
        runs = {side: [] for side in SIDES}
        for i, seed in enumerate(SEEDS + (HELD_OUT,)):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                res = _bench(trees[side], w, seed, 0)
                runs[side].append({"seed": seed, "correct": res["correct"],
                                   "attempted": res["attempted"],
                                   "failed": res["failed"],
                                   "metrics": {k: v["value"] for k, v in
                                               res["metrics"].items()}})
                print("%s seed %d %s wall_s %.4f"
                      % (w, seed, side, runs[side][-1]["metrics"]["wall_s"]),
                      flush=True)
        held = {side: runs[side].pop() for side in SIDES}
        held["wall_s_won"] = held["change"]["metrics"]["wall_s"] < \
            held["parent"]["metrics"]["wall_s"]
        names = list(runs["change"][0]["metrics"])
        metrics = {m: {side: _summary([r["metrics"][m] for r in runs[side]])
                       for side in SIDES} for m in names}
        won = sum(c["metrics"]["wall_s"] < p["metrics"]["wall_s"]
                  for p, c in zip(runs["parent"], runs["change"]))
        traced = {side: {k: v["value"] for k, v in
                         _bench(trees[side], w, 0, 1)["metrics"]
                         .items()} for side in SIDES}
        entry["workloads"][w] = {"metrics": metrics,
                                 "wall_s_pairs_won": won,
                                 "pairs": len(SEEDS),
                                 "traced_seed0": traced, "runs": runs,
                                 "held_out": held}
    entry["tier1"] = {side: _tier1(trees[side]) for side in SIDES}
    out = {side: outputs(trees[side]) for side in SIDES}
    out["identical"] = identical(out["parent"], out["change"])
    out["differ"] = sorted(k for k, same in out["identical"].items()
                           if not same)
    out["match"] = not out["differ"]
    entry["outputs"] = out
    entry["points"] = {side: points(trees[side]) for side in SIDES}
    entry["imports"] = imports(trees)
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json path")
    args = parser.parse_args(argv)
    entry = {
        "environment": {"python": platform.python_version(),
                        "machine": platform.machine(),
                        "nproc": os.cpu_count()},
        "command": "python3 perfbench/run.py --workload W --seed N "
                   "--seconds %d" % SECONDS,
        "seeds": list(SEEDS),
        "held_out_seed": HELD_OUT,
        "units": "wall_s and setup_s in reference seconds "
                 "(perfbench/speed.py)",
    }
    entry.update(measure(args.parent))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(entry, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
