"""Host-speed probe: rescales measured times to a host running at a fixed speed.

On a shared host the speed a process gets swings by up to 2x within a
minute, and CPU time swings with wall time (the slowdown is contention for
the core, not stolen time), so neither clock alone gives a steady pass time.
A background thread wakes every ``INTERVAL`` seconds and times a fixed
~0.1 ms spin of interpreter and numpy work. The benchmark process is
pinned to one CPU, so the spin runs on the core the workload runs on, in the
same stretch of time. A measured interval is then rescaled by ``REF_S`` over
the median spin time inside it. The spin never touches ``ngram_graph``, so
a change to the program moves only the measured interval. The probe (a
warm-up spin, then the timed one) costs about one percent of the core.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from bisect import bisect_left, bisect_right

import numpy as np

INTERVAL = 0.02
# Median spin seconds on a calm 2-vCPU Xeon VM with one BLAS thread. Rescaled
# times read in seconds of a host that runs the spin this fast. Never retune
# it: a change rescales every figure against earlier runs.
REF_S = 1.0e-4

_rng = np.random.default_rng(20240601)
_VEC = _rng.standard_normal(2048)
_BLOCK = _rng.standard_normal(1 << 16)
_DESIGN = _rng.standard_normal((480, 128)) / 16.0
_WEIGHTS = _rng.standard_normal(128)


def pin_to_one_cpu() -> None:
    """Pin this process, and the threads and children it starts later, to
    the lowest CPU it may run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _spin() -> None:
    # Interpreter loop, tiny numpy calls, a 512 KiB sweep and one logistic
    # gradient step, weighted so that the spin slows about as much as the
    # workloads do when the host is contended.
    acc = 0
    for i in range(500):
        acc += i * i
    for _ in range(8):
        _VEC.dot(_VEC)
    _BLOCK.sum()
    z = _DESIGN @ _WEIGHTS
    _DESIGN.T @ (1.0 / (1.0 + np.exp(-z)))


class SpeedProbe:
    """Samples the spin time in a daemon thread between ``start`` and
    ``stop``; ``rescale`` converts an interval measured meanwhile."""

    def __init__(self):
        self._starts: list[float] = []
        self._spins: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL):
            _spin()  # refills the caches the workload evicted; only the rerun is timed
            t0 = time.perf_counter()
            _spin()
            self._spins.append(time.perf_counter() - t0)
            self._starts.append(t0)

    def start(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def rescale(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured in [start, end] (``time.perf_counter``), in
        reference seconds; an interval too short to hold a sample uses the
        nearest samples around it."""
        lo, hi = bisect_left(self._starts, start), bisect_right(self._starts, end)
        spins = self._spins[lo:hi] or self._spins[max(lo - 1, 0):lo + 1]
        if not spins:
            raise RuntimeError("the speed probe took no sample")
        return seconds * REF_S / statistics.median(spins)
