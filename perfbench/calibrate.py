"""Host-speed calibration: a fixed probe, timed between ops, that scales op times.

The benchmark shares a few cores of a host whose speed drifts with other load,
in regimes that last from seconds to minutes. A fixed probe that mixes the
kinds of work projheat does (interpreted float and integer arithmetic, exact
rationals, small numpy arrays and a LAPACK eigensolve) slows down with the host
but not with projheat's code. Timing it next to the ops and dividing it out
turns an op's wall time into its time on a host at a fixed reference speed:
``scaled = measured * REFERENCE_S / probe``. The probe never calls projheat,
so a change to the program moves the scaled times and a change of host speed
does not.
"""

from __future__ import annotations

import functools
import math
import threading
from fractions import Fraction
from time import perf_counter

# Scaled times are times on a host that runs one probe in this long: a round
# figure within the 2.6-4.6 ms that a probe takes on a 2-vCPU VM (Intel Xeon,
# 2.0 GHz), depending on the other load on its host.
REFERENCE_S = 4.0e-3
REPEATS = 3  # a reading is the fastest of this many probes: one-off stalls drop out
PARALLEL_PROBES = 40  # per thread, in a reading taken in several threads (~0.3 s)


@functools.cache
def _numpy_inputs():
    # numpy is imported on first use: the benchmark pins the BLAS threads first
    import numpy as np

    a = np.cos(np.add.outer(np.arange(48.0), np.arange(48.0)))
    return np, np.linspace(-1.0, 1.0, 2048), a + a.T


def _probe() -> float:
    np, x, a = _numpy_inputs()
    acc = 0.0
    for i in range(1, 6000):
        acc += math.sqrt(i) * (i % 7) - i // 3
    h = Fraction(0)
    for k in range(1, 180):
        h += Fraction(k % 5 + 1, k * k + 1)
    for _ in range(40):
        acc += float(np.dot(np.cos(3.0 * x), x * x))
    acc += float(np.linalg.eigvalsh(a)[0])
    return acc + float(h)


def reading(threads: int = 1) -> float:
    """The host's current probe time in seconds.

    In one thread, the fastest of REPEATS probes: the speed of the core this
    thread is on, for ops that run in this thread between two readings. In
    several, the wall time of that many threads each running PARALLEL_PROBES
    probes at once, per probe: the speed of all cores together, averaged over
    long enough to match ops that run threads on every core for seconds.
    """
    if threads == 1:
        best = math.inf
        for _ in range(REPEATS):
            start = perf_counter()
            _probe()
            best = min(best, perf_counter() - start)
        return best

    def work() -> None:
        for _ in range(PARALLEL_PROBES):
            _probe()

    workers = [threading.Thread(target=work) for _ in range(threads)]
    start = perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return (perf_counter() - start) / (PARALLEL_PROBES * threads)


def scale(*readings: float) -> float:
    """Factor that takes a time measured next to these readings to reference speed."""
    return REFERENCE_S / math.prod(readings) ** (1 / len(readings))
