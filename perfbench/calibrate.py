"""The machine's speed, probed while ops run, and times rescaled by it.

The benchmark's timed metrics are calibrated seconds: a measured time
rescaled to a machine on which the probe takes REFERENCE_PROBE_S,

    calibrated = (measured - probe time inside it)
                 * (REFERENCE_PROBE_S / median probe time) ** elasticity.

Shared virtual machines drift in speed: on the 2-vCPU machine where the
benchmark was written, a fixed pure-Python loop timed in 5 s windows ranged
from 13.3 to 19.7 ms within one minute, and every op slowed down with it.
The probe is a fixed piece of standard-library work of the kind oscchain
does (Fraction sums with growing denominators and dict updates); it does
not touch oscchain, so a change to the program moves the op times and not
the probe.  An interval timer runs it every PROBE_EVERY_S seconds in the
worker process, inside the ops as well as between them, so a long op is
rescaled by the speed over its whole length; a window with no probe inside
it takes the probes just before and just after it.

The elasticity is how far an op's time follows the probe's.  Ops that run
in the worker are pure-Python computation like the probe: 1.  A CLI command
is a fresh interpreter whose start, imports and process handling follow
the probe only in part: 0.5 (ELASTICITY), and so does set-up, which is
mostly interpreter start and imports (SETUP_ELASTICITY).  Over 20 passes
of the seven commands, 150 s on the machine above, the pass time spread by
0.10 (standard deviation over mean) as measured, 0.10 rescaled with
elasticity 1 and 0.03 with 0.5.  For the in-process workloads an
elasticity of 0.75 to 1 did best.
"""
from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

PROBE_EVERY_S = 0.25
PROBE_REPEATS = 3
REFERENCE_PROBE_S = 0.0015   # the probe on the machine above, near median
ELASTICITY = {"cli": 0.5}    # 1 for the other workloads
SETUP_ELASTICITY = 0.5


def _work():
    total, buckets = Fraction(0), {}
    for i in range(1, 400):
        total += Fraction(1, i)
        buckets[i % 17] = buckets.get(i % 17, 0) + i * i
    return total


def probe() -> float:
    """Seconds for one unit of probe work, the median of a few repeats.

    The garbage collector is held off meanwhile: a collection of the
    program's heap would otherwise land in the probe now and then."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(PROBE_REPEATS):
            t = time.perf_counter()
            _work()
            times.append(time.perf_counter() - t)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Speed:
    """Probes taken on a timer, and the rescaling of measured windows."""

    def __init__(self, workload: str):
        self.elasticity = ELASTICITY.get(workload, 1.0)
        self.starts = []    # perf_counter() at the start of each probe
        self.ends = []      # and at its end
        self.probes = []    # its probe() time
        self.busy = False

    def take(self, *_signal) -> None:
        if self.busy:       # a timer signal that arrives during a probe
            return
        self.busy = True
        start = time.perf_counter()
        self.probes.append(probe())
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.busy = False

    def start(self) -> None:
        """Probe now, then every PROBE_EVERY_S seconds until stop()."""
        self.take()
        signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.take()

    def merge(self, starts, ends, probes) -> None:
        """Add probes taken elsewhere, all after this object's last."""
        self.starts += starts
        self.ends += ends
        self.probes += probes

    def rescale(self, start: float, end: float,
                elasticity: float = None) -> float:
        """The calibrated seconds of a window measured as [start, end],
        by the median of the probes in it and next to it."""
        if elasticity is None:
            elasticity = self.elasticity
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_left(self.starts, end)
        inside = sum(self.ends[k] - self.starts[k] for k in range(i, j))
        around = self.probes[max(i - 1, 0):j + 1]
        factor = REFERENCE_PROBE_S / statistics.median(around)
        return (end - start - inside) * factor ** elasticity
