"""Host-speed reference: a fixed piece of work timed on each core.

The benchmark runs on shared virtual machines whose execution speed
drifts by tens of percent over minutes: the same pure-Python Fig. 3
locking calls took 7.2 s of one run and 10.8 s of a run six minutes
later, and the CPU time of the whole, identical paper-batch list rose
from 34 s to 45 s.  So each run samples this reference between its timed
phases and reports its time metrics scaled to a host on which the
reference costs :data:`NOMINAL_S` (see :func:`scaled`); the raw figures
are printed and kept beside them.

The reference is timed in CPU seconds of its own thread: that follows
how fast the host executes (clock, a busy sibling hyperthread, shared
caches) but not how long a process waits for a core, so time-sharing
with another process -- the program's idle pool threads included --
neither inflates nor hides anything.  It is benchmark code only, with
nothing from ``src/`` in it, so a change to the program moves the
scaled metrics exactly as much as the raw ones.

The work mixes what the program spends its time on: interpreted float
arithmetic (the RK4 loops), dict and list building and JSON encode and
decode (the serve path), and NumPy element-wise passes over small
arrays (the batched kernels).
"""

import json
import os
import statistics
import time

import numpy as np

#: Reference CPU seconds per core on the 2-core host the benchmark was
#: tuned on, in its usual state; scaled metrics read close to raw there.
NOMINAL_S = 0.009

#: Timings per core per sample; a sample takes their median.
REPEATS = 3


def _work():
    x = 0.0
    for i in range(18_000):
        x = x * 0.999 + (i % 7) * 0.5
    table = {str(i): [i, i * 0.5, "v%d" % i] for i in range(3_000)}
    doc = json.loads(json.dumps(table))
    a = np.arange(4_000, dtype=float)
    for _ in range(90):
        a = np.sqrt(a * a + 1.0) - 0.5
    return x + len(doc) + float(a[-1])


def sample(cpus=None):
    """Reference CPU seconds: the mean over ``cpus`` (default: every core
    this process may use) of the median of :data:`REPEATS` timings, with
    the process pinned to that core.  Restores the affinity."""
    allowed = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(cpus or allowed):
            os.sched_setaffinity(0, {cpu})
            times = []
            for _ in range(REPEATS):
                start = time.thread_time()
                _work()
                times.append(time.thread_time() - start)
            per_cpu.append(statistics.median(times))
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(per_cpu)


def scale(samples):
    """A run's host-speed factor: :data:`NOMINAL_S` over the median of its
    reference samples.  Times are multiplied by it, rates divided."""
    return NOMINAL_S / statistics.median(samples)


def scaled(raw, units, samples):
    """``raw`` metrics at the nominal host speed, by unit: times (``s``,
    ``ms``) times the factor, rates (``1/s``) over it, others as is."""
    factor = scale(samples)
    return {key: value * factor if units[key] in ("s", "ms")
            else value / factor if units[key] == "1/s" else value
            for key, value in raw.items()}
