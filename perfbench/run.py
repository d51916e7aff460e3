"""casimir1d benchmark: time to a force of stated accuracy.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each is there): fig_300k,
noneq_mild, weak_damping, sweep_docs.  The load is a closed loop: one
process at a time, one thread, one sample after another.  Every sample runs
in its own fresh interpreter (``sample.py``), so nothing one sample caches
can make the next one cheaper than it is for a CLI user.  Samples repeat
until ``--seconds`` have passed (at least one); extra fresh interpreters
that only import casimir1d and build the inputs give ``setup_s``.

``wall_s`` and ``setup_s`` are in reference seconds: each measured time is
scaled by the interpreter speed probed while it ran (see ``speed.py``), so
that a neighbour slowing the shared core does not read as a regression.
The raw medians are kept in the results record under ``raw_seconds``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` one more sample runs with the
tracing hooks of ``tracing.py`` and the object holds the per-layer metrics.
The full record, with the environment and every sample, goes to
``perfbench/results/``.  Kernel timings depend on whether the compiled
kernels were in use (``compiled`` in that record): never compare numbers
across the two.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
SAMPLE = os.path.join(HERE, "sample.py")

WORKLOADS = ("fig_300k", "noneq_mild", "weak_damping", "sweep_docs")
SETUP_PROBES = 9
SAMPLE_TIMEOUT = 150.0
# Stand-in for an accuracy no operation could report (JSON has no inf).
NO_VALUE = 1e300

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("rel_err_est", "ratio"), ("rel_err_true", "ratio"),
              ("pass_frac", "ratio"))


class SampleError(RuntimeError):
    """A sample interpreter crashed or printed no result."""


def _sample(workload, seed, mode):
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, SAMPLE, workload, str(seed), mode, repr(spawned)],
        cwd=ROOT, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT,
        env=dict(os.environ, PYTHONHASHSEED="0"))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError("%s sample of %s exited %d: %s"
                          % (mode, workload, proc.returncode,
                             proc.stderr.strip()[-2000:]))
    return json.loads(lines[-1])


def _environment():
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"python": platform.python_version(), "numpy": numpy,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def _accuracy(samples, key):
    vals = [max((c[key] for c in s["checks"] if c[key] is not None),
                default=NO_VALUE) for s in samples]
    return min(statistics.median(vals), NO_VALUE)


def measure(workload, seed, seconds, trace):
    """Run the samples of one benchmark run; return the full record."""
    _sample(workload, seed, "setup")  # fills the bytecode caches
    setups = [_sample(workload, seed, "setup") for _ in range(SETUP_PROBES)]
    samples = []
    start = time.monotonic()
    while not samples or time.monotonic() - start < seconds:
        samples.append(_sample(workload, seed, "run"))
    setups += samples
    traced = _sample(workload, seed, "trace") if trace else None

    attempted = sum(len(s["checks"]) for s in samples)
    failed = sum(not c["ok"] for s in samples for c in s["checks"])
    wall = statistics.median(s["wall_s"] * s["speed"] for s in samples)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(s["setup_s"] * s["setup_speed"]
                                     for s in setups),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "rel_err_est": _accuracy(samples, "rel_est"),
        "rel_err_true": _accuracy(samples, "rel_true"),
        "pass_frac": (attempted - failed) / attempted,
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "environment": dict(_environment(),
                                  compiled=samples[0]["compiled"]),
              "samples": samples, "setup_samples": setups[:SETUP_PROBES],
              "attempted": attempted, "failed": failed,
              "end_to_end": metrics,
              "raw_seconds": {
                  "wall_s": statistics.median(s["wall_s"] for s in samples),
                  "setup_s": statistics.median(s["setup_s"]
                                               for s in setups)}}
    if traced is not None:
        layers = traced["layers"]
        layers["trace.overhead_s"] = traced["wall_s"] * traced["speed"] - wall
        record.update(traced=traced, per_layer=layers,
                      unmeasured=traced["unmeasured"])
        attempted += len(traced["checks"])
        failed += sum(not c["ok"] for c in traced["checks"])
        record.update(attempted=attempted, failed=failed)
    return record


def _report(record, trace):
    env = record["environment"]
    print("workload %s  seed %d  samples %d  (closed loop, 1 process, "
          "1 thread)" % (record["workload"], record["seed"],
                         len(record["samples"])))
    print("python %s  numpy %s  compiled kernels %s  nproc %s"
          % (env["python"], env["numpy"], env["compiled"], env["nproc"]))
    for s in record["samples"]:
        for c in s["checks"]:
            if not c["ok"]:
                print("FAILED: %s" % c["note"])
    if trace:
        units = tracing.LAYER_METRICS
        values = record["per_layer"]
        if record["unmeasured"]:
            print("unmeasured (hook target missing): %s"
                  % ", ".join(record["unmeasured"]))
    else:
        units = END_TO_END
        values = record["end_to_end"]
    metrics = {}
    for name, unit in units:
        print("%-44s %.6g %s" % (name, values[name], unit))
        metrics[name] = {"value": values[name], "unit": unit}
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "casimir1d",
                                       "__init__.py")):
        print("no casimir1d sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    try:
        record = measure(args.workload, args.seed, args.seconds, args.trace)
    except (SampleError, subprocess.TimeoutExpired) as exc:
        print("benchmark aborted: %s" % exc, file=sys.stderr)
        return 3
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    _report(record, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
