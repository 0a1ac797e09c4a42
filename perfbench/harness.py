"""Closed-loop driving, failure accounting and set-up timing shared by both kinds of run."""

from __future__ import annotations

import subprocess
import sys
import time
from array import array

import reference
import workloads

SETUP_RUNS = 5
SETUP_CODE = (
    "import chshstar as c; "
    "print(repr(c.evaluate(c.GameSpec(2), c.optimal_unitary_strategy()).average))"
)


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, fails: list[str]) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append("; ".join(fails))


def attempt(tally: Tally, fn, *args):
    """Call ``fn``; an exception counts as a failed operation.  Returns (seconds, result)."""
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # the benchmark keeps running and reports the failure
        tally.add([f"{getattr(fn, '__name__', fn)} raised {exc!r}"])
        return None, None
    return time.perf_counter() - t0, result


def measure_setup(tally: Tally, pace=None, spans: list | None = None) -> list[float]:
    """Spawn-to-exit seconds of fresh interpreters importing chshstar and evaluating once.

    With ``pace`` (pace.Pace), it ticks after each spawn and each spawn's
    (start, end) is appended to ``spans``.
    """
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=workloads.child_env(),
                              capture_output=True, text=True)
        t1 = time.perf_counter()
        times.append(t1 - t0)
        if pace is not None:
            spans.append((t0, t1))
            pace.tick()
        try:
            fails = reference.check_close("setup evaluate", float(proc.stdout),
                                          reference.TSIRELSON, 1e-12)
        except ValueError:
            fails = [f"setup exit {proc.returncode}: {proc.stderr.strip()[-200:]}"]
        tally.add(fails)
    return times


def check(tally: Tally, wl, spec, result) -> None:
    """Hand one result to the workload's checker; a checker exception is a failure."""
    try:
        fails = wl.check(spec, result)
    except Exception as exc:  # a malformed result must not stop the run
        fails = [f"check raised {exc!r}"]
    tally.add(fails)


def closed_loop(wl, seconds: float, tally: Tally, specs: list | None = None,
                pace=None, spans: list | None = None) -> array:
    """Run whole cycles of operations, one operation at a time, for about ``seconds``.

    Another cycle starts only while the run then ends nearer to ``seconds``
    than it would by stopping.  Returns the seconds of each timed operation;
    their specs are appended to ``specs`` when it is given, and kept nowhere
    else, so the run's memory does not grow with the number of operations.

    With ``pace`` (pace.Pace), it ticks after each operation; the returned
    seconds leave out the probes that ran inside an operation, and each
    operation's (start, end) is appended to ``spans``.
    """
    times = array("d")
    start = time.perf_counter()
    for n, cycle in enumerate(wl.cycles(), 1):
        for spec in cycle:
            probed = pace.spent if pace is not None else 0.0
            t0 = time.perf_counter()
            dt, result = attempt(tally, wl.run, spec)
            if dt is None:
                continue
            if pace is not None:
                spans.append((t0, time.perf_counter()))
                dt -= pace.spent - probed
                pace.tick()
            check(tally, wl, spec, result)
            times.append(dt)
            if specs is not None:
                specs.append(spec)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / n / 2 >= seconds:
            return times
