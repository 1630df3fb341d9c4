"""Host-speed probe: express wall time in seconds at a fixed reference speed.

The benchmark runs on a shared host whose speed moves while it runs: a fixed
pure-Python loop can take 1.6x longer in one second than in the next, and
over minutes the host switches between speeds about 1.6x apart.  CPU time
moves with wall time, so neither is steady across runs.

A ``SpeedProbe`` samples the host's speed during the timed work itself.  A
``SIGALRM`` interval timer interrupts the work every ``PROBE_INTERVAL_S``
of wall time, and the handler times ``probe_loop``, a fixed loop of
integer, tuple and dict work, in the same thread.  The work between two
probes is then scaled by ``REFERENCE_PROBE_S`` over the median of the
nearby probes' times.  Summed over the pass, that gives the pass's wall time
at the reference speed: ``reference_seconds``.  The probes' own time is
left out.  A program change that does less work lowers it just as it
lowers wall time, but a host that runs this process slower does not raise
it.  The host's slowdown has to hit the probe loop and the program alike,
which holds for interpreter-bound code like spinelab's.

``burst`` times a few probe loops back to back, for work that cannot be
interrupted, such as a child process the caller waits for.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
import time

PROBE_INTERVAL_S = 0.05
PROBE_ITERATIONS = 3000
# the probe loop's time at the reference speed: about its time on the
# baseline host (2 vCPUs, Python 3.11) when that host ran fast.  It only
# sets the scale of every reference time; it must never change.
REFERENCE_PROBE_S = 0.0015
# each gap between two probes is scaled by the median of this many probes
# around it, so that one probe the host interrupted does not skew the gap
WINDOW = 4
BURST_PROBES = 5

_TABLE = {i: (i * 7919) % 1021 for i in range(1024)}


def probe_loop(iterations: int = PROBE_ITERATIONS) -> int:
    """Fixed interpreter work: integer arithmetic, small tuples, dict use."""
    table = _TABLE
    seen = {}
    x = 1
    state = (1, 2, 3)
    for i in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        state = (state[1], state[2], (state[0] * 31 + table[x & 1023]) % 1009)
        seen[state] = seen.get(state, 0) + i
    return len(seen)


def timed_probe() -> tuple:
    """(start, end) of one probe loop, run with the collector off so that
    the probe never pays for a collection of the program's objects."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        probe_loop()
        return start, time.perf_counter()
    finally:
        if enabled:
            gc.enable()


def burst() -> list:
    """Durations of ``BURST_PROBES`` probe loops run back to back."""
    return [end - start for start, end in (timed_probe() for _ in range(BURST_PROBES))]


def scale(durations: list) -> float:
    """Factor from wall time to reference time, given nearby probe times."""
    return REFERENCE_PROBE_S / statistics.median(durations)


class SpeedProbe:
    """Context manager: probe the host's speed while the body runs.

    A probe runs on entry, on exit and every ``PROBE_INTERVAL_S`` between.
    Only one may be active at a time, and only in the main thread."""

    def __init__(self):
        self.marks: list = []  # (start, end) of every probe, in order

    def _on_alarm(self, signum, frame) -> None:
        self.marks.append(timed_probe())

    def __enter__(self):
        self.marks = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.marks.append(timed_probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.marks.append(timed_probe())

    def wall_seconds(self) -> float:
        """Wall time of the body, without the probes."""
        return sum(nxt[0] - cur[1] for cur, nxt in zip(self.marks, self.marks[1:]))

    def reference_seconds(self) -> float:
        """Wall time of the body at the reference speed (see module doc)."""
        durations = [end - start for start, end in self.marks]
        total = 0.0
        for k in range(len(self.marks) - 1):
            # the gap runs from probe k to probe k + 1
            lo = max(0, k + 1 - WINDOW // 2)
            near = durations[lo : lo + WINDOW]
            total += (self.marks[k + 1][0] - self.marks[k][1]) * scale(near)
        return total

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.marks, fh)

    @classmethod
    def load(cls, path: str) -> "SpeedProbe":
        probe = cls()
        with open(path) as fh:
            probe.marks = [tuple(mark) for mark in json.load(fh)]
        return probe
