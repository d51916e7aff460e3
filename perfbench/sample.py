"""One benchmark sample, run in a fresh interpreter by run.py.

Usage: python3 perfbench/sample.py WORKLOAD SEED MODE SPAWN_TIME

MODE is ``setup`` (import casimir1d and build the inputs, nothing more),
``run`` (also run the timed operations untraced and check them) or
``trace`` (the same with the tracing hooks installed).  SPAWN_TIME is the
parent's ``time.monotonic()`` just before it started this interpreter, so
``setup_s`` counts interpreter start-up too.  Prints one JSON object as the
last line of standard output: raw seconds, the speed factors of
``speed.py`` that turn them into reference seconds, the peak resident
memory, one check per operation and, when traced, the per-layer metrics.
"""

import json
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "work")


def _run_ops(ops):
    results = []
    for op in ops:
        try:
            results.append(op())
        except Exception as exc:  # a failed operation is a result
            results.append(exc)
    return results


def main(argv):
    name, seed, mode, spawned = argv[0], int(argv[1]), argv[2], float(argv[3])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import casimir1d
    import speed
    import workloads

    wl = workloads.WORKLOADS[name]
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        inputs = wl.setup(seed, workdir)
        setup_s = time.monotonic() - spawned
        out = {"setup_s": setup_s,
               "setup_speed": speed.factor([speed.probe()
                                             for _ in range(10)]),
               "compiled": getattr(casimir1d, "COMPILED", None)}
        if mode == "setup":
            print(json.dumps(out))
            return 0
        ops = wl.operations(inputs)
        hooks = None
        if mode == "trace":
            import tracing
            from casimir1d.kernels import core
            kernel_us = tracing.kernel_costs(core)
            hooks = tracing.install()
            rec = hooks.recorder = tracing.Recorder()
        with speed.Sampler() as sampler:
            t0 = time.perf_counter()
            results = _run_ops(ops)
            wall = time.perf_counter() - t0
        # the probes ran inside the timed region; their time is not the
        # workload's
        out["wall_s"] = wall - sum(sampler.probes)
        out["speed"] = speed.factor(sampler.probes)
        out["probes"] = len(sampler.probes)
        if hooks is not None:
            kernels = rec.kernel_snapshot()
        checks = wl.check(inputs, results)
        if hooks is not None:
            hooks.recorder = None
            cells = len(checks) if name == "sweep_docs" else 0
            out["layers"] = tracing.layer_metrics(rec, kernels, kernel_us,
                                                  cells)
            out["kernel_bins"] = kernels["bins"]
            out["unmeasured"] = hooks.missing + sorted(
                "kernels.%s.us_per_point" % k
                for k, us in kernel_us.items() if us is None)
            hooks.remove()
        out["checks"] = [c._asdict() for c in checks]
        out["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
