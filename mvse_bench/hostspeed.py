"""Host-speed sampling, so that timings on a shared machine stay comparable.

On a shared 2-vCPU virtual machine the speed of one thread swings by up
to about 1.6x, in states that last from seconds to minutes, and both vCPUs
swing together. That swing is larger than any useful regression bound.
While a :class:`HostSpeed` is active, a timer signal interrupts the main
thread every ``INTERVAL_S`` and times a fixed probe: a recorded tanh
recurrence and its backward sweep, made of the same small numpy calls as
the tape autodiff but using no mvse code, so no change to mvse can move
it. For a measured window the probe's own time is subtracted, and the work
between consecutive probes is scaled by ``NOMINAL_S`` over the probe time
around it: the time the work would take on a host that runs the probe in
``NOMINAL_S``. A program that left work running in the background would
slow the probe too, and so would read as faster than it is.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.003   # probe time on a 2.0 GHz Xeon vCPU in its usual state
INTERVAL_S = 0.1
_STEPS = 300


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0x5EED)
        self._w = rng.standard_normal((32, 32)) / 8.0
        self._h0 = rng.standard_normal(32)
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _probe(self) -> None:
        h = self._h0
        recorded = []
        for _ in range(_STEPS):
            h = np.tanh(self._w @ h + self._h0)
            recorded.append(h)
        g = self._h0
        for h in reversed(recorded):
            g = self._w.T @ (g * (1.0 - h * h))

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self._probe()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self) -> "HostSpeed":
        self._on_alarm(None, None)  # at least one sample, even for a short block
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _local(self, i: int) -> float:
        """Probe time around sample i: the median of it and two neighbours
        on each side, so that one disturbed probe does not count."""
        return statistics.median(self.durations[max(0, i - 2): i + 3])

    def window(self, start: float, end: float) -> tuple[float, float]:
        """(work seconds, calibrated seconds) of the interval [start, end).

        The work between consecutive probes is scaled by the probe time
        around them, so a window that spans a change of host speed is
        calibrated piece by piece."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        if lo == hi:  # no probe inside: use the nearest one
            near = min(range(len(self.starts)), key=lambda i: abs(self.starts[i] - start))
            return end - start, (end - start) * NOMINAL_S / self._local(near)
        work = calibrated = 0.0
        t, probe = start, self._local(lo)
        for i in range(lo, hi):
            segment = self.starts[i] - t
            local = self._local(i)
            work += segment
            calibrated += segment * NOMINAL_S / ((probe + local) / 2)
            t, probe = self.starts[i] + self.durations[i], local
        work += end - t
        calibrated += (end - t) * NOMINAL_S / probe
        return work, calibrated
