"""Write one BENCH_<n>.json entry: the benchmark's end-to-end metrics for a
parent checkout and for this one, their per-layer counts, and the tier-1
suite's wall time.

Usage (from the repository root):

    python3 scripts/write_bench.py --parent DIR --out BENCH_6.json

DIR is a checkout of the parent commit (``git archive`` or ``git clone``).
For each of the four workloads and seeds 1-10, ``perfbench/run.py
--workload W --seed N --seconds 10`` runs once in each checkout; odd seeds
run the parent first and even seeds the change, so slow drift of the host
does not favour one side.
One traced run (``--trace 1``) per workload and checkout at seed 0 gives the
per-layer counts, and the tier-1 pytest command runs once per checkout.
The tracer counts the calls of ``core.ic_bracket`` and
``core.bath_integrand`` only; the force routines take the one-triple forms
(``core.ic_bracket_of`` and the like), so its ``kernels.ic_bracket.calls``
and ``kernels.evals_k_*`` read 0, and the state excess's points are in
``excess_calls`` below instead.
Every interpreter started in a checkout, these and those below, keeps its
bytecode in a fresh empty directory of that checkout's own
(``PYTHONPYCACHEPREFIX``), so a ``__pycache__`` left in the tree by earlier
runs is never read.
Every metric is recorded as median and quartiles per side, every run is
kept, and for ``wall_s`` the entry counts the pairs the change won.
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
``core.vacuum_baths`` and its one-triple form ``core.vacuum_bath_of``,
whose single points count as one-offset calls: every offset point, the
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
``points(tree)`` gives them on their own.  Next to them, ``docs_ladder``
counts the docs sigma ladder's ``core.ic_brackets`` calls and points,
with the single points of ``core.ic_bracket_of``, and records its switch
points K (one per ``omega0_list`` entry), a layer the tracer does not see
either.
Each side's ``imports`` hold the per-module import self-time in
microseconds, the median of ``python3 -X importtime`` over 9 fresh
interpreters under ``PYTHONDONTWRITEBYTECODE=1``, of the imports a
``perfbench/sample.py`` setup sample makes: its own, ``casimir1d``,
``speed`` and ``workloads``.  They split ``setup_s`` by module.  The two
sides' interpreters alternate, and so does the side that starts each
round, so slow drift of the host falls on both.
``imports({"change": tree})`` gives one checkout's on their own.
Each side's ``split`` divides the time of Z on each workload's cavity, of
the docs sigma ladder and of ``noneq_mild``'s two bath excesses Y (target
``noneq_mild_Y``) between the integrand kernels of ``core`` (every public
function that takes a cavity, ``a, d, matL, matR``, after its frequency,
and the points of the one-triple forms, which take the cavity alone) and
the bookkeeping around them: the total seconds, the seconds spent inside
the integrand kernels that the package calls, and the ``refractive_at``
calls made outside them, each the median over 9 fresh interpreters, each
target from cold memos.  ``split(tree)`` gives them on their own.
"""

import argparse
import ast
import atexit
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fig_300k", "noneq_mild", "weak_damping", "sweep_docs")
SEEDS = tuple(range(1, 11))
SECONDS = 10
TIER1 = [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors", "-p", "no:cacheprovider"]
SIDES = ("parent", "change")
IMPORT_RUNS = 9
# tokens that do not make a line a code line
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


_PYCACHE = {}


def _env(tree, **extra):
    """The environment of every interpreter run in ``tree``, ``extra``
    added: its bytecode cache in a fresh empty directory of its own for the
    life of this process (``PYTHONPYCACHEPREFIX``), so that, as in the
    benchmark's own runs from fresh checkouts, no run reads a
    ``__pycache__`` that an earlier run left in the tree."""
    if tree not in _PYCACHE:
        _PYCACHE[tree] = tempfile.mkdtemp(prefix="pycache-")
        atexit.register(shutil.rmtree, _PYCACHE[tree], True)
    return dict(os.environ, PYTHONPYCACHEPREFIX=_PYCACHE[tree], **extra)


def _bench(tree, workload, seed, trace):
    """The metrics JSON object ``perfbench/run.py`` prints last."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          env=_env(tree), check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tier1(tree):
    """Wall seconds and summary line of the tier-1 pytest run in ``tree``."""
    env = _env(tree, PYTHONPATH=os.path.join(tree, "src"))
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


# Defines cold(), which clears every per-process memo of forces that the
# checkout has, so that what runs next starts as a fresh process would.
_COLD = r"""
def cold():
    for name in ("_vacuum_bath", "_rotated_vacuum", "_cavity_excess",
                 "_bath_factors", "_kinds"):
        memo = getattr(forces, name, None)
        if hasattr(memo, "cache_clear"):
            memo.cache_clear()
"""


# Run like _OUTPUTS; prints Z's kernel points by stage and its grids at
# the switch point, Z and the excesses' kernel calls per workload cavity and
# the docs ladder's points as JSON, each measured from cold memos.
_POINTS = r"""
import collections, json, sys
sys.path.insert(0, "perfbench")
import workloads as W
from casimir1d import cli, forces
from casimir1d.kernels import core
from casimir1d.states import FieldState
""" + _COLD + r"""

rc = cli.load_run_config(W.SWEEP_INI, need_sweep=True)
calls = []
parts = []
excess_calls = collections.Counter()
# Z's stage: the innermost of the wrapped functions it is inside
stage = ["direct"]
stages = collections.Counter()
grids = []


def counting(name):
    kernel = getattr(core, name)

    def wrapped(k, *args):
        calls.append((k, len(args[-1])))
        stages[stage[-1]] += len(args[-1])
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
    calls.append((k, 1))
    stages[stage[-1]] += 1


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


def excess_point(k):
    if parts:
        excess_calls[parts[-1]] += 1


def part(label, name):
    fn = getattr(forces, name)

    def wrapped(*args, **kw):
        parts.append(label)
        try:
            return fn(*args, **kw)
        finally:
            parts.pop()
    setattr(forces, name, wrapped)


def banded(*args):
    stage.append("band_grid")
    try:
        mean, size, edges = band_bounds(*args)
    finally:
        stage.pop()
    return staged("band_means", mean), size, staged("band_ends", edges)


def gridded(shifted):
    sample = grid_sampler(shifted)

    def wrapped(k, dims):
        grids.append((stage[-1], k, dims))
        return sample(k, dims)
    return wrapped


switched = []
switch = forces._switch


def switching(*args):
    got = switch(*args)
    switched.append(got)
    return got


band_bounds = forces._band_bounds
above_edges = forces._above_edges
grid_sampler = forces._sampler
forces._switch = staged("probe", switching)
forces.integrate_interval = staged("coarse", forces.integrate_interval,
                                   "probe")
forces._averaged_tail = staged("tail", forces._averaged_tail)
forces._above_edges = lambda *a: staged("edges", above_edges(*a))
forces._band_bounds = banded
forces._sampler = gridded
# Z's kernel, with its single points through the one-triple form; Y's and
# X's kernels, the one-triple forms
counting("vacuum_baths")
one_triple("vacuum_bath_of", point)
one_triple("bath_factors_of", excess_point)
one_triple("ic_bracket_of", excess_point)
part("X", "_thermal_excess")
part("Y", "_bath_excess")
b = W.BETA_300K
out = {}
for name, cfg, spec, runs in (
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
    del calls[:], grids[:], switched[:]
    stages.clear()
    cold()
    z = forces._vacuum_bath(cfg, spec)
    raw = [k for k, n in calls if n == 1]
    (got,) = switched
    K = got[0]
    out[name] = {"points": sum(n for _, n in calls), "raw": len(raw),
                 "raw_near_modes": sum(any(abs(k - km) <= 0.1
                                           for km in modes) for k in raw),
                 "Z": list(z), "stages": dict(stages), "K": K,
                 "grids": {
                     "probe": [d for s, k, d in grids if s == "probe"][-1:],
                     "edges": [d for s, k, d in grids
                               if s == "edges" and k == K][-1:],
                     "tail": list(got[5:])}}
    excess_calls.clear()
    for state, bl, br in runs:
        forces.force_total(cfg, state, bl, br, spec)
    out[name]["excess_calls"] = {p: excess_calls[p] for p in ("X", "Y")}
ks = []


def recording(*args):
    got = switch(*args)
    ks.append(got[0])
    return got


forces._switch = recording
counting("ic_brackets")
one_triple("ic_bracket_of", point)
del calls[:]
cold()
for w in rc.omega0_list:
    forces.band_excess_curve(rc.cavity, w, rc.sigma_grid, rc.spec)
out["docs_ladder"] = {"calls": len(calls),
                      "points": sum(n for _, n in calls), "K": ks}
print(json.dumps(out))
"""


# Run like _OUTPUTS with the arguments TARGET MODE; prints one JSON object.
# TARGET is a workload, whose cavity's Z is computed, docs_ladder, or
# noneq_mild_Y, the two bath excesses of noneq_mild's force_total calls; MODE
# "total" times it unwrapped, "kernels" gives every package module that
# binds core a copy of it whose integrand kernels are timed, so the calls
# core makes within itself stay unwrapped: each kernel that takes the cavity
# after its frequency, and each point of the one-triple forms, which take
# the cavity alone and return its integrand at one frequency.
# refractive_at is counted and left outside the kernels' seconds, and the
# cheap helpers called per node (occupation_excess, bath_weigh) are neither.
# The target runs from cold memos.
_SPLIT = r"""
import inspect, json, sys, time, types
sys.path.insert(0, "perfbench")
import workloads as W
from casimir1d import cli, forces
from casimir1d.kernels import core
""" + _COLD + r"""

target, mode = sys.argv[1:3]
rc = cli.load_run_config(W.SWEEP_INI, need_sweep=True)
cavities = {"fig_300k": (W.FIG_CFG, W.FIG_SPEC),
            "noneq_mild": (W.NONEQ_CFG, W.NONEQ_SPEC),
            "weak_damping": (W.WEAK_CFG, W.WEAK_SPEC),
            "sweep_docs": (rc.cavity, rc.spec)}
inside, index = [0.0], [0]
CAVITY = ["a", "d", "matL", "matR"]


def timed(name, fn):
    def wrapped(*args, **kw):
        if name == "refractive_at":
            index[0] += 1
            return fn(*args, **kw)
        start = time.perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            inside[0] += time.perf_counter() - start
    return wrapped


def bound(name, bind):
    def binding(*cavity):
        return timed(name, bind(*cavity))
    return binding


if mode == "kernels":
    copy = types.ModuleType(core.__name__)
    copy.__dict__.update(vars(core))
    for name, fn in vars(core).items():
        if name.startswith("_") or not inspect.isfunction(fn) \
                or fn.__module__ != core.__name__:
            continue
        params = list(inspect.signature(fn).parameters)
        if params == CAVITY:
            setattr(copy, name, bound(name, fn))
        elif params[1:5] == CAVITY or name == "refractive_at":
            setattr(copy, name, timed(name, fn))
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("casimir1d") \
                and getattr(mod, "core", None) is core:
            mod.core = copy
cold()
start = time.perf_counter()
if target == "docs_ladder":
    for w in rc.omega0_list:
        forces.band_excess_curve(rc.cavity, w, rc.sigma_grid, rc.spec)
elif target == "noneq_mild_Y":
    for bl, br in (W.NONEQ_BATHS, W.NONEQ_BATHS[::-1]):
        forces._bath_excess(W.NONEQ_CFG, bl, br, W.NONEQ_SPEC)
else:
    forces._vacuum_bath(*cavities[target])
total = time.perf_counter() - start
print(json.dumps({"total_s": total, "kernel_s": inside[0],
                  "index_calls": index[0]}))
"""
SPLIT_TARGETS = WORKLOADS + ("docs_ladder", "noneq_mild_Y")


def _run(tree, script, *args):
    """The JSON object ``script`` prints last, run with ``args`` in
    ``tree`` with its src on the path."""
    env = _env(tree, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=tree,
                          capture_output=True, text=True, env=env,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def split(tree, runs=IMPORT_RUNS):
    """``{target: {"total_s", "kernel_s", "index_calls"}}``: for Z on each
    workload's cavity, for the docs sigma ladder and for ``noneq_mild``'s
    two bath excesses in ``tree``, the seconds it takes, the seconds spent
    inside the integrand kernels of ``core`` called from outside ``core``
    and the ``refractive_at`` calls made outside them, each the median
    over ``runs`` fresh interpreters.  The total is timed unwrapped; the
    kernels' seconds and the index calls come from other interpreters that
    wrap the integrand kernels and ``refractive_at``, so the wrappers' own
    cost stays out of the total.  ``refractive_at`` counts as bookkeeping,
    outside the kernels' seconds.  Each round runs every target and mode
    once, so a burst of load on the host spreads over all of them."""
    got = {(target, mode): [] for target in SPLIT_TARGETS
           for mode in ("total", "kernels")}
    for _ in range(runs):
        for (target, mode), out in got.items():
            out.append(_run(tree, _SPLIT, target, mode))
    return {target: {
        "total_s": statistics.median(g["total_s"]
                                     for g in got[target, "total"]),
        "kernel_s": statistics.median(g["kernel_s"]
                                      for g in got[target, "kernels"]),
        "index_calls": statistics.median(g["index_calls"]
                                         for g in got[target, "kernels"])}
        for target in SPLIT_TARGETS}


def points(tree):
    """``{workload: {"points", "raw", "raw_near_modes", "Z", "stages", "K",
    "grids", "excess_calls"}}``: Z's kernel points, by stage, its switch
    point and grids, Z and the kernel calls of the excesses X and Y on each
    workload's cavity in ``tree``, and
    ``{"docs_ladder": {"calls", "points", "K"}}`` (see the module
    docstring)."""
    return _run(tree, _POINTS)


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
                env=_env(trees[side], PYTHONDONTWRITEBYTECODE="1"),
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
    entry = {"workloads": {},
             "size": {side: size(trees[side]) for side in SIDES}}
    entry["size"]["code_change"] = size_change(*(entry["size"][side]
                                                 for side in SIDES))
    for w in WORKLOADS:
        runs = {side: [] for side in SIDES}
        for seed in SEEDS:
            order = SIDES if seed % 2 else SIDES[::-1]
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
                                 "traced_seed0": traced, "runs": runs}
    entry["tier1"] = {side: _tier1(trees[side]) for side in SIDES}
    out = {side: outputs(trees[side]) for side in SIDES}
    out["identical"] = identical(out["parent"], out["change"])
    out["differ"] = sorted(k for k, same in out["identical"].items()
                           if not same)
    out["match"] = not out["differ"]
    entry["outputs"] = out
    entry["points"] = {side: points(trees[side]) for side in SIDES}
    entry["imports"] = imports(trees)
    entry["split"] = {side: split(trees[side]) for side in SIDES}
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
