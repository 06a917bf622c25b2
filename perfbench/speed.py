"""How fast the host ran while a measurement was taken.

Shared hosts change speed by tens of percent within seconds, and two vCPUs of
one guest do not slow down together, so a reference measured before or beside
a run does not describe it.  :class:`SpeedProbe` interleaves a fixed
pure-Python kernel with the measured code on the same thread: an interval
timer fires every :data:`INTERVAL_S` of wall time and its signal handler runs
one kernel slice, timing it.

The probe's :meth:`~SpeedProbe.reference_clock` reads seconds at the
reference speed: each stretch of measured work between two slices counts
``measured seconds * REFERENCE_SLICE_S / slice seconds``, where the slice time
is the mean of the :data:`SMOOTHING` slices before the stretch (one slice alone
is too noisy: ``1 / slice`` then overstates the speed most when the host is
erratic).  The clock is continuous and leaves out the time spent in slices.  That is the time the same work would take on a host where one
kernel slice takes :data:`REFERENCE_SLICE_S`.
"""

from __future__ import annotations

import gc
import signal
from collections import deque
from time import perf_counter
from typing import Any, Optional

#: Wall seconds between kernel slices (the probe costs about 7%).
INTERVAL_S = 0.02
#: Dictionary updates per kernel slice (about 1.5 ms).
SLICE_UPDATES = 8000
#: Seconds per kernel slice at the reference speed: CPython 3.11 on a
#: 2.0 GHz Xeon vCPU while its host is quiet.
REFERENCE_SLICE_S = 1.5e-3
#: Slices averaged into the speed of the next stretch (about 0.2 s).
SMOOTHING = 10


def kernel(updates: int = SLICE_UPDATES) -> int:
    """Dict-heavy pure-Python work, like the simulator's own inner loops."""
    table: dict = {}
    for index in range(updates):
        slot = index % 997
        table[slot] = table.get(slot, 0) + index * 3
    return len(table)


class SpeedProbe:
    """Runs timed :func:`kernel` slices between the measured code's bytecodes."""

    def __init__(self) -> None:
        self.slices = 0
        self.probe_s = 0.0
        self._reference_s = 0.0
        self._resumed = 0.0
        self._recent: deque = deque(maxlen=SMOOTHING)
        self._slice_s = REFERENCE_SLICE_S
        self._previous: Any = None
        self._active = False

    def _slice(self) -> None:
        # A garbage collection inside the slice would read as a slow host.
        collecting = gc.isenabled()
        gc.disable()
        began = perf_counter()
        kernel()
        ended = perf_counter()
        if collecting:
            gc.enable()
        self._recent.append(ended - began)
        self._slice_s = sum(self._recent) / len(self._recent)
        self._resumed = ended

    def _tick(self, signum: int, frame: Optional[Any]) -> None:
        if not self._active:  # a signal still pending when the probe stopped
            return
        began = perf_counter()
        self._reference_s += (began - self._resumed) * REFERENCE_SLICE_S / self._slice_s
        self._slice()
        self.probe_s += self._resumed - began
        self.slices += 1
        # One-shot re-arm: the next slice is due an interval after this one
        # ended, so handlers never nest.
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self) -> "SpeedProbe":
        self._slice()  # the speed of the first stretch
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        # Deactivate first: a handler that runs after this point must not
        # re-arm the timer, or its signal would reach the default action.
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def work_clock(self) -> float:
        """``perf_counter()`` minus the time spent in kernel slices so far."""
        return perf_counter() - self.probe_s

    def reference_clock(self) -> float:
        """Seconds of measured work so far, at the reference speed."""
        while True:
            slices = self.slices
            value = self._reference_s + (perf_counter() - self._resumed) * REFERENCE_SLICE_S / self._slice_s
            if slices == self.slices:  # no slice ran while the terms were read
                return value
