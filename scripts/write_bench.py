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
Every metric is recorded as median and quartiles per side, every run is
kept, and for ``wall_s`` the entry counts the pairs the change won.
The entry also records each side's size: the physical and the code lines
of every module of ``src/casimir1d`` and their totals, where code lines
leave out blank lines, comment-only lines and docstrings (every statement
that is a bare string).  ``size(tree)`` gives the same count on its own.
Each side's ``outputs`` hold the repr of what the program computes, so a
change meant to keep every number can show that it did: ``force_total``
on the four workload configurations at seed 0, the docs sigma ladder
(``band_excess_curve``), the ``sweep-sigma --reproducible`` and
``limits --reproducible`` CSVs of the docs INI and the ``verify`` rows.
``outputs(tree)`` gives them on their own; the entry lists the names whose
repr differs between the sides.
Each side's ``points`` count the kernel points of the zero-temperature
bath integral Z on each workload's cavity, by wrapping
``core.bath_weighted``: every offset point, the one-offset (raw) calls, and
the raw calls within 0.1 of a bound gap mode (``forces._gap_modes``), the
layer ``perfbench/tracing.py`` does not see.  ``points(tree)`` gives them
on their own.  Next to them, ``docs_ladder`` counts the docs sigma ladder's
``core.ic_brackets`` calls and points and records its switch points K (one
per ``omega0_list`` entry), a layer the tracer does not see either.
Each side's ``imports`` hold the per-module import self-time in
microseconds, the median of ``python3 -X importtime`` over 9 fresh
interpreters under ``PYTHONDONTWRITEBYTECODE=1``, of the imports a
``perfbench/sample.py`` setup sample makes: its own, ``casimir1d``,
``speed`` and ``workloads``.  They split ``setup_s`` by module.
``imports(tree)`` gives them on their own.
"""

import argparse
import ast
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
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


def _bench(tree, workload, seed, trace):
    """The metrics JSON object ``perfbench/run.py`` prints last."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tier1(tree):
    """Wall seconds and summary line of the tier-1 pytest run in ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
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


# Run like _OUTPUTS; prints Z's kernel points per workload cavity and the
# docs ladder's as JSON.
_POINTS = r"""
import json, sys
sys.path.insert(0, "perfbench")
import workloads as W
from casimir1d import cli, forces
from casimir1d.kernels import core

rc = cli.load_run_config(W.SWEEP_INI, need_sweep=True)
calls = []


def counting(name):
    kernel = getattr(core, name)

    def wrapped(k, *args):
        calls.append((k, len(args[-1])))
        return kernel(k, *args)
    setattr(core, name, wrapped)


counting("bath_weighted")
out = {}
for name, cfg, spec in (("fig_300k", W.FIG_CFG, W.FIG_SPEC),
                        ("noneq_mild", W.NONEQ_CFG, W.NONEQ_SPEC),
                        ("weak_damping", W.WEAK_CFG, W.WEAK_SPEC),
                        ("sweep_docs", rc.cavity, rc.spec)):
    modes = [km for km, _, _, _ in forces._gap_modes(cfg)]
    del calls[:]
    forces._vacuum_bath.cache_clear()
    forces._vacuum_bath(cfg, spec)
    raw = [k for k, n in calls if n == 1]
    out[name] = {"points": sum(n for _, n in calls), "raw": len(raw),
                 "raw_near_modes": sum(any(abs(k - km) <= 0.1
                                           for km in modes) for k in raw)}
switch = forces._switch
ks = []


def recording(*args):
    got = switch(*args)
    ks.append(got[0])
    return got


forces._switch = recording
counting("ic_brackets")
del calls[:]
for w in rc.omega0_list:
    forces.band_excess_curve(rc.cavity, w, rc.sigma_grid, rc.spec)
out["docs_ladder"] = {"calls": len(calls),
                      "points": sum(n for _, n in calls), "K": ks}
print(json.dumps(out))
"""


def _run(tree, script):
    """The JSON object ``script`` prints last, run in ``tree`` with its
    src on the path."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tree,
                          capture_output=True, text=True, env=env,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def points(tree):
    """``{workload: {"points", "raw", "raw_near_modes"}}``: Z's kernel
    points on each workload's cavity in ``tree``, and ``{"docs_ladder":
    {"calls", "points", "K"}}`` (see the module docstring)."""
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


def imports(tree, runs=IMPORT_RUNS):
    """``{"total_us", "modules": {module: self_us}}``: medians over ``runs``
    fresh interpreters of the setup imports' summed and per-module self
    time (see the module docstring)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    samples = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", _SETUP_IMPORTS],
            cwd=tree, capture_output=True, text=True, env=env, check=True)
        samples.append({m: int(us) for us, m in
                        _IMPORTTIME.findall(proc.stderr)})
    names = sorted(set().union(*samples))
    return {"total_us": statistics.median(sum(s.values()) for s in samples),
            "modules": {m: statistics.median(s.get(m, 0) for s in samples)
                        for m in names}}


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
    out["differ"] = sorted(k for k in out["parent"]
                           if out["parent"][k] != out["change"].get(k))
    out["match"] = not out["differ"]
    entry["outputs"] = out
    entry["points"] = {side: points(trees[side]) for side in SIDES}
    entry["imports"] = {side: imports(trees[side]) for side in SIDES}
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
