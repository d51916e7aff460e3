"""Interpreter speed probe: turns measured seconds into reference seconds.

On a shared host the CPU this benchmark runs on swings between two speeds,
about 1.9x apart, as other work on the host comes and goes (most likely on
the other hyperthread of the core); a speed state lasts from seconds to
minutes.  Raw wall times of the same sample then spread by 15-30% from run
to run.  A short fixed loop of pure-Python complex arithmetic, timed every
tenth of a second while the timed calls run, slows down in step with them
(measured on a 2-vCPU Xeon guest: both the loop and a 60-point ic_bracket
chunk slow by 1.92x between their 10th and 90th percentile times,
correlation 0.83).  The probes add about 3% to the timed region and their
own time is subtracted from it.

A time is reported in reference seconds: the measured seconds times the
mean of ``REFERENCE_PROBE_S / probe`` over the probes taken meanwhile, which
is what the same work takes when every probe runs at the reference speed.
The raw seconds are kept beside them in the results record.
"""

import cmath
import math
import signal
import time

# Probe time of the fast state on the machine the benchmark was defined on
# (2-vCPU Intel Xeon guest at 2.1 GHz, Python 3.11).  It only sets the scale.
REFERENCE_PROBE_S = 1.7e-3
LOOP = 1500
PERIOD_S = 0.1


def _loop(n):
    acc = 0j
    for i in range(n):
        x = 0.001 * i + 0.1
        w = cmath.sqrt(1.0 + 4.0 / complex(9.0 - x * x, 0.1 * x))
        r = (1.0 - w) / (1.0 + w)
        e = cmath.exp(complex(-0.01 * x, 2.0 * x))
        acc += r * e / (1.0 - r * r * e) + abs(w) ** 2 + math.cos(x)
    return acc


def probe():
    """Seconds one run of the fixed loop takes now."""
    t0 = time.perf_counter()
    _loop(LOOP)
    return time.perf_counter() - t0


def factor(probes):
    """Mean reference-to-current speed ratio over ``probes``."""
    return sum(REFERENCE_PROBE_S / p for p in probes) / len(probes)


class Sampler:
    """Takes a probe every ``PERIOD_S`` of wall time inside the ``with``
    block, from a SIGALRM handler; at least one."""

    def __init__(self):
        self.probes = []
        self._old = None

    def _handler(self, signum, frame):
        self.probes.append(probe())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.probes:
            self.probes.append(probe())
