"""Reference CPU-speed probe for rescaling unit times.

The cores of a shared machine change speed with their neighbours' load: on
the 2-vCPU VM this benchmark was built on, the same bounds pass took 0.30 to
0.62 s within four minutes, each core changing state every few seconds and
largely independently of the other.  Throughput measured in plain wall time
then spreads 15-25% between 20-second runs whatever the program does.

So a SIGALRM handler times a fixed kernel every PERIOD_S seconds on the main
thread, which is on the core the workload runs on, and each unit's time is
rescaled by the probes taken while it ran:

    rescaled = (wall - probe wall) * REFERENCE_S / mean(probe CPU times)

The kernel mixes the program's three kinds of work in about equal shares
(real FFTs, an interpreted scalar loop, small-array numpy ops) and is
benchmark code, so a
change to the program moves the rescaled time and a change of machine state
mostly does not.  Interval timers are not inherited across fork, so pool
workers are never interrupted; for them the handler probes every core in turn.
"""

from __future__ import annotations

import math
import os
import signal
import time

import numpy as np
import scipy.fft

# CPU seconds of one probe() on an uncontended core of the reference machine;
# it only sets the scale, so rescaled seconds read close to quiet wall seconds
REFERENCE_S = 0.014
PERIOD_S = 0.5

# bound now, so the probe's FFTs never show in a traced run's rfft counts
_RFFT, _IRFFT = scipy.fft.rfft, scipy.fft.irfft
# every array the probe makes stays under glibc's 128 KiB mmap threshold: a
# larger one, once freed, raises the threshold and changes how the program's
# own arrays are allocated, and with them its peak memory
_RECORD = np.random.default_rng(0).normal(size=8_192)


def probe() -> float:
    """CPU seconds this thread spends on the fixed reference kernel."""
    t0 = time.thread_time()
    for _ in range(20):
        _IRFFT(_RFFT(_RECORD), _RECORD.size)
    acc = 0.0
    for i in range(40_000):
        acc += math.sin(i * 1e-3)
    a = np.arange(2_000.0)
    for _ in range(600):
        a = np.sqrt(a * a + 1.0)
    return time.thread_time() - t0


class Sampler:
    """Probes every PERIOD_S seconds, on the current core or, with
    `all_cores`, on each allowed core in turn."""

    def __init__(self, all_cores: bool):
        self.cores = sorted(os.sched_getaffinity(0)) if all_cores else None
        self.samples = []  # (perf_counter at the end, wall seconds, CPU seconds)
        self._next = 0

    def _probe(self):
        if self.cores is None:
            return probe()
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.cores[self._next % len(self.cores)]})
        self._next += 1
        try:
            return probe()
        finally:
            os.sched_setaffinity(0, mask)

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        cpu = self._probe()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0, cpu))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def rescaled(self, t0: float, t1: float) -> float:
        """Time of [t0, t1] less the probes in it, at the reference speed.
        Uses the probe nearest the interval when none ran inside it."""
        inside = [s for s in self.samples if t0 <= s[0] <= t1]
        busy = sum(s[1] for s in inside)
        if not inside:
            mid = 0.5 * (t0 + t1)
            inside = [min(self.samples, key=lambda s: abs(s[0] - mid))]
        cpu = sum(s[2] for s in inside) / len(inside)
        return (t1 - t0 - busy) * REFERENCE_S / cpu
