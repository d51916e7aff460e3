"""Spans and counters for the traced benchmark run.

Hooks wrap public functions of casimir1d from outside the package:

* the scalar integrands of ``kernels.core`` (``ic_bracket``,
  ``bath_integrand``, ``roundtrip_rot_direct``);
* ``integrate_interval``, ``integrate_semiinfinite`` and ``matsubara_sum``
  as bound in ``forces``, which is where the force routines look them up;
* the ``forces`` entry points;
* ``cli.main`` and ``cli.load_run_config``.

Calls into the last three groups become spans (name, start, end, parent),
kept in memory until the sample ends.  A workload makes up to two million
kernel calls, so kernel calls are not spans: each one is folded into
per-kernel counters and into the span that made it.  A hook whose target
no longer exists is listed in ``Hooks.missing`` and its metrics read zero;
it never stops the run.
"""

import importlib
import inspect
import math
import time

# Real-axis kernels take (k, a, d, matL, matR, ...) followed by the phase
# offsets (sL, sR, sG); the value is the number of fixed arguments after k.
# roundtrip_rot_direct lives on the imaginary axis and takes no offsets.
KERNELS = {"ic_bracket": 4, "bath_integrand": 6, "roundtrip_rot_direct": None}
QUADRATURE = ("integrate_interval", "integrate_semiinfinite", "matsubara_sum")
ENTRY_POINTS = ("force_total", "force_ic", "force_bath", "band_excess_curve",
                "equilibrium_matsubara")
CLI = ("main", "load_run_config")

K_EDGES = (5.0, 10.0, 20.0)
K_BINS = ("lt5", "5_10", "10_20", "ge20")
STAGES = ("coarse", "probe", "direct", "tail", "excess")
# _oscillatory_integral fixes the absolute error budget with one pass at
# this relative tolerance before anything else.
COARSE_REL_TOL = 1e-2

# The six kernels and the 399-point grid of scripts/benchmark_kernels.py.
_MILD_L = (3.0, 2.0, 0.5, False)
_MILD_R = (2.5, 1.5, 1.0, False)
_FIG = (10.0, 10.0, 0.1, False)
_KGRID = [0.013 * i + 0.0071 for i in range(1, 400)]
_KERNEL_CASES = (
    ("refractive_at",
     lambda m: [m.refractive_at(-1j * k, *_FIG) for k in _KGRID]),
    ("slab_parts",
     lambda m: [m.slab_parts(k, complex(1.4, 0.3 / k), 0.7) for k in _KGRID]),
    ("ic_bracket",
     lambda m: [m.ic_bracket(k, 1.0, 0.7, _MILD_L, _MILD_R) for k in _KGRID]),
    ("bath_integrand",
     lambda m: [m.bath_integrand(k, 1.0, 0.7, _MILD_L, _MILD_R, 5.0, 7.0)
                for k in _KGRID]),
    ("nodiss_bracket",
     lambda m: [m.nodiss_bracket(k, 1.0, 0.7, (4.0, 3.0, 0.0, True),
                                 (4.0, 3.0, 0.0, True)) for k in _KGRID]),
    ("roundtrip_rot_direct",
     lambda m: [m.roundtrip_rot_direct(k, 1.0, 0.7, _MILD_L, _MILD_R)
                for k in _KGRID]),
)


def _metric_names():
    # Only times that are nonzero on every workload are reported; where a
    # layer runs on some workloads only, its work is reported as a count.
    names = []
    for k in ("ic_bracket", "bath_integrand"):
        names += [("kernels.%s.calls" % k, "count"),
                  ("kernels.%s.shifted_calls" % k, "count"),
                  ("kernels.%s.self_s" % k, "s")]
    names.append(("kernels.roundtrip_rot_direct.calls", "count"))
    names += [("kernels.evals_k_%s" % b, "count") for b in K_BINS]
    names += [("kernels.%s.us_per_point" % k, "us") for k, _ in _KERNEL_CASES]
    names += [("quadrature.integrate_interval.calls", "count"),
              ("quadrature.integrate_interval.evals", "count"),
              ("quadrature.integrate_interval.s", "s"),
              ("quadrature.integrate_interval.self_s", "s"),
              ("quadrature.integrate_semiinfinite.calls", "count"),
              ("quadrature.integrate_semiinfinite.evals", "count"),
              ("quadrature.matsubara_sum.terms", "count"),
              ("forces.force_ic.s", "s"),
              ("forces.force_bath.s", "s"),
              ("forces.band_excess_curve.calls", "count")]
    names += [("forces.osc.%s.evals" % st, "count") for st in STAGES]
    names += [("forces.osc.%s.s" % st, "s") for st in STAGES if st != "tail"]
    names += [("cli.sweep.cells", "count"),
              ("cli.sweep.prelude_evals", "count"),
              ("cli.sweep.cell_evals", "count"),
              ("trace.overhead_s", "s")]
    return tuple(names)


# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = _metric_names()


class Span:
    """One traced call.  ``parent`` is the index of the enclosing span.

    ``covered`` is the time inside this span spent in folded calls that are
    not spans: the integrand, for a quadrature span, otherwise the kernels
    it called directly.  ``evals`` counts integrand calls; ``info`` holds
    the ``rel_tol`` a quadrature span was called with.
    """

    __slots__ = ("name", "start", "end", "parent", "info", "covered",
                 "kernel_calls", "shifted_calls", "evals")

    def __init__(self, name, start, end=None, parent=None, info=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.info = info or {}
        self.covered = 0.0
        self.kernel_calls = 0
        self.shifted_calls = 0
        self.evals = 0

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """Spans and kernel counters of one sample, held in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.in_integrand = 0
        self.kernel_calls = dict.fromkeys(KERNELS, 0)
        self.kernel_shifted = dict.fromkeys(KERNELS, 0)
        self.kernel_s = dict.fromkeys(KERNELS, 0.0)
        self.k_bins = {name: [0] * len(K_BINS)
                       for name, n in KERNELS.items() if n is not None}

    def open(self, name, info=None):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               info=info))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def current(self):
        return self.spans[self._stack[-1]] if self._stack else None

    def kernel(self, name, k, shifted, dt):
        self.kernel_calls[name] += 1
        self.kernel_s[name] += dt
        if shifted:
            self.kernel_shifted[name] += 1
        if KERNELS[name] is not None:
            i = 0
            while i < len(K_EDGES) and k >= K_EDGES[i]:
                i += 1
            self.k_bins[name][i] += 1
        span = self.current()
        if span is not None:
            span.kernel_calls += 1
            if shifted:
                span.shifted_calls += 1
            if not self.in_integrand:
                span.covered += dt

    def kernel_snapshot(self):
        """Copy of the kernel counters, to separate timed calls from the
        reference evaluation that follows them."""
        return {"calls": dict(self.kernel_calls),
                "shifted": dict(self.kernel_shifted),
                "s": dict(self.kernel_s),
                "bins": {k: list(v) for k, v in self.k_bins.items()}}


class Hooks:
    """Installed wrappers; ``recorder`` None lets every call pass through."""

    def __init__(self):
        self.recorder = None
        self.missing = []
        self._undo = []

    def patch(self, owner, attr, label, make):
        orig = getattr(owner, attr, None) if owner is not None else None
        if not callable(orig):
            self.missing.append(label)
            return
        setattr(owner, attr, make(orig))
        self._undo.append((owner, attr, orig))

    def remove(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def _kernel_wrapper(hooks, name, fn):
    n_fixed = KERNELS[name]
    clock = time.perf_counter

    def wrapper(k, *args, **kw):
        rec = hooks.recorder
        if rec is None:
            return fn(k, *args, **kw)
        t0 = clock()
        try:
            return fn(k, *args, **kw)
        finally:
            dt = clock() - t0
            shifted = n_fixed is not None and (any(args[n_fixed:])
                                               or any(kw.values()))
            rec.kernel(name, k, shifted, dt)
    return wrapper


def _span_wrapper(hooks, label, fn):
    def wrapper(*args, **kw):
        rec = hooks.recorder
        if rec is None:
            return fn(*args, **kw)
        span = rec.open(label)
        try:
            return fn(*args, **kw)
        finally:
            rec.close(span)
    return wrapper


def _quadrature_wrapper(hooks, label, fn):
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        sig = None
    clock = time.perf_counter

    def info_of(args, kw):
        if sig is None:
            return {}
        try:
            spec = sig.bind(*args, **kw).arguments.get("spec")
        except TypeError:
            return {}
        return {"rel_tol": getattr(spec, "rel_tol", None)}

    def wrapper(f, *args, **kw):
        rec = hooks.recorder
        if rec is None:
            return fn(f, *args, **kw)
        span = rec.open(label, info_of((f,) + args, kw))

        def integrand(x):
            rec.in_integrand += 1
            t0 = clock()
            try:
                return f(x)
            finally:
                span.covered += clock() - t0
                span.evals += 1
                rec.in_integrand -= 1
        try:
            return fn(integrand, *args, **kw)
        finally:
            rec.close(span)
    return wrapper


def _module(name, hooks):
    try:
        return importlib.import_module(name)
    except ImportError:
        hooks.missing.append(name)
        return None


def install():
    """Wrap every traced function that exists; report the rest as missing."""
    hooks = Hooks()
    kernels = _module("casimir1d.kernels", hooks)
    forces = _module("casimir1d.forces", hooks)
    cli = _module("casimir1d.cli", hooks)
    core = getattr(kernels, "core", None)
    for name in KERNELS:
        hooks.patch(core, name, "kernels." + name,
                    lambda fn, n=name: _kernel_wrapper(hooks, n, fn))
    for name in QUADRATURE:
        label = "quadrature." + name
        hooks.patch(forces, name, label,
                    lambda fn, lb=label: _quadrature_wrapper(hooks, lb, fn))
    for name in ENTRY_POINTS:
        label = "forces." + name
        hooks.patch(forces, name, label,
                    lambda fn, lb=label: _span_wrapper(hooks, lb, fn))
    for name in CLI:
        label = "cli." + name
        hooks.patch(cli, name, label,
                    lambda fn, lb=label: _span_wrapper(hooks, lb, fn))
    return hooks


def kernel_costs(core, repeats=5):
    """Best-of-``repeats`` microseconds per point of each kernel on the
    399-point grid; None for a kernel the module no longer has."""
    out = {}
    for name, case in _KERNEL_CASES:
        if not callable(getattr(core, name, None)):
            out[name] = None
            continue
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            case(core)
            best = min(best, time.perf_counter() - t0)
        out[name] = best / len(_KGRID) * 1e6
    return out


def self_times(spans):
    """Each span's duration minus the time its child spans and its folded
    calls cover.  Spans of one thread nest, so child durations add up."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return [s.duration - child[i] - s.covered for i, s in enumerate(spans)]


def _children(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids[s.parent].append(i)
    return kids


def osc_stages(spans):
    """Kernel calls and seconds per stage of the oscillatory integrals.

    The stages are read off the public calls inside each ``forces`` span:
    the pass at the coarse tolerance is ``coarse`` and the unshifted pass
    right after it is ``direct`` (the [0, K] pass on the raw integrand);
    passes whose kernel calls carry phase offsets are ``tail``; any other
    finite-interval pass is ``excess`` (thermal or band windows).  Kernel
    calls an entry point makes outside every quadrature call are ``probe``.
    Returns ``{stage: [kernel_calls, seconds]}``.
    """
    kids = _children(spans)
    out = {st: [0, 0.0] for st in STAGES}
    for i, s in enumerate(spans):
        if not s.name.startswith("forces."):
            continue
        out["probe"][0] += s.kernel_calls
        out["probe"][1] += s.duration - sum(spans[c].duration
                                            for c in kids[i])
        after_coarse = False
        for c in kids[i]:
            q = spans[c]
            if q.name != "quadrature.integrate_interval":
                continue
            if q.info.get("rel_tol") == COARSE_REL_TOL:
                stage, after_coarse = "coarse", True
            elif q.shifted_calls:
                stage, after_coarse = "tail", False
            elif after_coarse:
                stage, after_coarse = "direct", False
            else:
                stage = "excess"
            out[stage][0] += q.kernel_calls
            out[stage][1] += q.duration
    return out


def _under(spans, i, name):
    """True when span i has an ancestor called ``name``."""
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def _subtree_kernel_calls(spans):
    """Kernel calls made inside each span, its descendants included.
    Spans are stored in the order they open, so children follow parents."""
    total = [s.kernel_calls for s in spans]
    for i in range(len(spans) - 1, -1, -1):
        if spans[i].parent is not None:
            total[spans[i].parent] += total[i]
    return total


def layer_metrics(rec, kernels, kernel_us, cells):
    """Per-layer metrics of one traced sample.

    ``rec`` holds the spans of the timed calls and of the reference
    evaluation after them; ``kernels`` is the kernel snapshot taken at the
    end of the timed calls, so kernel counts cover the timed calls only.
    ``cells`` is the number of sweep rows the CLI wrote (0 outside the
    sweep).  ``trace.overhead_s`` is filled in by the caller.
    """
    spans = rec.spans
    selfs = self_times(spans)
    m = dict.fromkeys((n for n, _ in LAYER_METRICS), 0)
    for k in ("ic_bracket", "bath_integrand"):
        m["kernels.%s.calls" % k] = kernels["calls"][k]
        m["kernels.%s.shifted_calls" % k] = kernels["shifted"][k]
        m["kernels.%s.self_s" % k] = kernels["s"][k]
    m["kernels.roundtrip_rot_direct.calls"] = \
        kernels["calls"]["roundtrip_rot_direct"]
    for i, b in enumerate(K_BINS):
        m["kernels.evals_k_%s" % b] = sum(v[i] for v in
                                          kernels["bins"].values())
    for k, us in kernel_us.items():
        m["kernels.%s.us_per_point" % k] = us or 0.0

    for i, s in enumerate(spans):
        if s.name == "quadrature.integrate_interval":
            m[s.name + ".calls"] += 1
            m[s.name + ".evals"] += s.evals
            m[s.name + ".s"] += s.duration
            m[s.name + ".self_s"] += selfs[i]
        elif s.name == "quadrature.integrate_semiinfinite":
            m[s.name + ".calls"] += 1
            m[s.name + ".evals"] += s.evals
        elif s.name == "quadrature.matsubara_sum":
            m["quadrature.matsubara_sum.terms"] += s.evals
        elif s.name in ("forces.force_ic", "forces.force_bath"):
            m[s.name + ".s"] += s.duration
        elif s.name == "forces.band_excess_curve":
            m["forces.band_excess_curve.calls"] += 1
    for st, (evals, secs) in osc_stages(spans).items():
        m["forces.osc.%s.evals" % st] = evals
        if st != "tail":
            m["forces.osc.%s.s" % st] = secs

    # The sweep's prelude is the cavity-wide force_ic and force_bath calls
    # inside cli.main; every other kernel call inside it belongs to a cell.
    within = _subtree_kernel_calls(spans)
    main_calls = prelude_calls = 0
    for i, s in enumerate(spans):
        if s.name == "cli.main":
            main_calls += within[i]
        elif s.name in ("forces.force_ic", "forces.force_bath") and \
                _under(spans, i, "cli.main"):
            prelude_calls += within[i]
    m["cli.sweep.cells"] = cells
    m["cli.sweep.prelude_evals"] = prelude_calls
    if cells:
        m["cli.sweep.cell_evals"] = (main_calls - prelude_calls) / cells
    return m
