"""Machine pace: a fixed probe interleaved with the workload, to scale its times.

The host's speed swings by up to 40 % over seconds and minutes, with nothing
in the benchmark changing (METRICS.md, "Pace scaling").  Longer runs do not
average it away, because the slow and fast spells last tens of seconds.  So
the end-to-end run interleaves a fixed probe with the workload: numpy and
Python work of the kinds the program does, which never calls chshstar.  The
probe takes ``SHARE`` of the run's time.  An operation's time is then scaled
by ``REFERENCE_S`` over the mean probe time around it, which gives the time
it would take at the reference pace.  A change to the program moves the
operation's time and not the probe's, so it moves the scaled time in full.

The probe runs at ticks: after each operation, and from a CPU-time timer
(``SIGVTALRM``) inside the operations, so that a table of several seconds
gets probes spread over its length.  The timer counts this process's CPU
time only, so it does not fire while a CLI child runs and the probe never
competes with the child for a core.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right

import numpy as np
from scipy.optimize import minimize

# Probe time per second of the run's other time.
SHARE = 0.06
# Probe seconds at the reference pace, about its median on the 2-vCPU
# machine the benchmark was written on; scaled times read in seconds there.
REFERENCE_S = 0.005
# Probes that start this close to an operation set its scale.
WINDOW_S = 1.0
# CPU seconds of this process between timer ticks.
TICK_CPU_S = 0.05

_U = np.array([[0.6, 0.8j], [0.8j, 0.6]])
_PSI = np.full(4, 0.5, dtype=complex)
_BELL = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)


def _objective(x: np.ndarray) -> float:
    c, s = np.cos(x), np.sin(x)
    return float(np.sum((c[1:] - s[:-1] ** 2) ** 2) + np.sum((1 - c) ** 2))


def probe() -> float:
    """Fixed work: 2x2 products, a dict of Born probabilities, a short Nelder-Mead run."""
    m = np.eye(2, dtype=complex)
    total = 0.0
    for _ in range(400):
        m = _U @ m
        total += abs(m[0, 0])
    table = {}
    for i in range(40):
        table[i % 4, i % 3] = abs(np.vdot(_BELL, np.kron(_U, _U.conj()) @ _PSI)) ** 2
    minimize(_objective, np.full(6, 0.3), method="Nelder-Mead", options={"maxiter": 60})
    return total + sum(table.values())


class Pace:
    """Probe timings of one run, and the scale they give each operation."""

    def __init__(self):
        self.debt = 0.0
        self.spent = 0.0  # probe seconds so far
        self.last = time.perf_counter()
        self.starts = array("d")
        self.durations = array("d")
        self.probing = False

    def tick(self) -> None:
        """Run probes until they have taken SHARE of the time since the last tick."""
        if self.probing:  # the timer fired inside a probe
            return
        self.probing = True
        try:
            self.debt += SHARE * (time.perf_counter() - self.last)
            while self.debt > 0:
                t0 = time.perf_counter()
                probe()
                dt = time.perf_counter() - t0
                self.starts.append(t0)
                self.durations.append(dt)
                self.debt -= dt
                self.spent += dt
            self.last = time.perf_counter()
        finally:
            self.probing = False

    @contextlib.contextmanager
    def timer(self):
        """Tick every TICK_CPU_S of this process's CPU time inside the block."""
        previous = signal.signal(signal.SIGVTALRM, lambda signum, frame: self.tick())
        self.last = time.perf_counter()
        signal.setitimer(signal.ITIMER_VIRTUAL, TICK_CPU_S, TICK_CPU_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            signal.signal(signal.SIGVTALRM, previous)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean probe time within WINDOW_S of [start, end]."""
        i = bisect_left(self.starts, start - WINDOW_S)
        j = bisect_right(self.starts, end + WINDOW_S)
        if i == j:  # none that close: the nearest probe
            i = min((k for k in (i - 1, i) if 0 <= k < len(self.starts)),
                    key=lambda k: min(abs(self.starts[k] - start), abs(self.starts[k] - end)))
            j = i + 1
        return REFERENCE_S / statistics.fmean(self.durations[i:j])

    def scaled(self, seconds, spans) -> list[float]:
        """Each time, taken over the given (start, end), at the reference pace."""
        return [dt * self.scale(t0, t1) for dt, (t0, t1) in zip(seconds, spans, strict=True)]
