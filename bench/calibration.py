"""Host-speed calibration: a fixed kernel timed while the run goes on.

The benchmark host is shared, and its speed drifts by tens of percent over
seconds and minutes as neighbours come and go -- far more than the bounds a
regression check needs.  A timer interrupts the process every
:data:`PERIOD_S` and times one pass of a fixed kernel.  A phase's host
seconds divided by the kernel's slowdown over that phase -- its mean pass
time over :data:`REFERENCE_PASS_S` -- are the phase's seconds at the
reference host speed.  Time spent inside the kernel is left out of the
phase's own timing.

The correction is a plain ratio with no fitted parameter.  Two runs compare
by their host seconds times the ratio of their kernel times, so
:data:`REFERENCE_PASS_S` only sets the unit and cancels out of every
comparison.  For the ratio to hold, contention must slow the kernel as much
as it slows the simulator, so the kernel does the simulator's two kinds of
work: interpreted dictionary and ordered-dictionary traffic, and numpy
passes over arrays.  Contention slows the first more than the simulator
and the second less; timed alone, either part over- or under-corrected by
up to a fifth at a 2x slowdown.  The mean, not the median: contention comes
in bursts within a run, and a run's wall time adds up every burst.

Set-up -- imports and spec expansion -- does no array work, and importing
numpy is part of what it costs, so set-up is sampled by the interpreted
part alone (``HostSpeed(arrays=False)``), which never imports numpy.

The kernel's working set is a few hundred KiB, so it does not evict much of the
simulation's data, and it touches nothing the simulation uses, so results
are unaffected.
"""

from __future__ import annotations

import signal
import statistics
from collections import OrderedDict
from contextlib import contextmanager
from time import perf_counter

#: Seconds per kernel pass that define the reference host speed: one pass's
#: time on a quiet host of 2 shared vCPUs of an Intel Xeon at 2.0 GHz,
#: Python 3.11, numpy 2.4.  Calibrated times read as seconds on that host.
REFERENCE_PASS_S = 0.00225
#: The same for a pass of the interpreted part alone.
REFERENCE_LOOP_PASS_S = 0.00118
#: Interval between kernel passes.
PERIOD_S = 0.04

_arrays: tuple | None = None


def _array_work():
    """numpy and the kernel's fixed arrays, or ``None`` without numpy."""
    global _arrays
    if _arrays is None:
        try:
            import numpy
        except ImportError:  # the simulator runs without numpy; so does this
            _arrays = (None,)
        else:
            rng = numpy.random.default_rng(7)
            _arrays = (
                numpy,
                rng.integers(0, 1 << 20, 16_384),
                rng.integers(0, 16_384, 4_096),
            )
    return _arrays if _arrays[0] is not None else None


def kernel(arrays: bool = True, iterations: int = 2_500, array_passes: int = 4) -> int:
    """Fixed work: a seeded LRU and a counter table under pseudo-random
    keys, then (with ``arrays``) prefix sums, gathers, sorts and uniques
    over a fixed array."""
    counts: dict[int, int] = {}
    lru: OrderedDict[int, int] = OrderedDict()
    x = 12345
    for i in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 1023
        counts[key] = counts.get(key, 0) + 1
        if key in lru:
            lru.move_to_end(key)
        else:
            lru[key] = i
            if len(lru) > 512:
                lru.popitem(last=False)
    work = _array_work() if arrays else None
    if work is not None:
        numpy, values, index = work
        for _ in range(array_passes):
            gathered = numpy.add.accumulate(values)[index]
            x ^= int(numpy.unique(numpy.sort(gathered) & 1023).size)
    return x


class HostSpeed:
    """Kernel pass times taken during one phase of a run."""

    def __init__(self, arrays: bool = True):
        self.arrays = arrays
        self.reference_s = REFERENCE_PASS_S if arrays else REFERENCE_LOOP_PASS_S
        self.samples: list[float] = []
        #: Host seconds spent inside the kernel so far.
        self.spent_s = 0.0
        self._active = False
        self._in_pass = False
        self._previous = None

    def _pass(self, *_signal_args) -> None:
        # A timer tick during a pass (a stalled host) is skipped, not nested.
        if self._in_pass:
            return
        self._in_pass = True
        try:
            started = perf_counter()
            kernel(self.arrays)
            elapsed = perf_counter() - started
            self.samples.append(elapsed)
            self.spent_s += elapsed
        finally:
            self._in_pass = False

    def start(self) -> None:
        """Time one kernel pass every :data:`PERIOD_S` until :meth:`stop`."""
        if self.arrays:
            # One untimed pass builds the arrays and pays numpy's lazy
            # imports (``numpy.unique`` imports ``numpy.ma``) before any
            # timer tick can land inside them.
            kernel(True)
        self._previous = signal.signal(signal.SIGALRM, self._pass)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop sampling; a phase too short for any pass takes one now."""
        if self._active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._active = False
        if not self.samples:
            self._pass()

    @contextmanager
    def sampling(self):
        """Sample the host speed inside the block."""
        self.start()
        try:
            yield self
        finally:
            self.stop()

    def clock(self) -> float:
        """Host seconds, stopped while the kernel runs."""
        return perf_counter() - self.spent_s

    def slowdown(self) -> float:
        """Mean kernel pass time over the reference pass time."""
        return statistics.fmean(self.samples) / self.reference_s

    def scale(self, seconds: float) -> float:
        """``seconds`` of this phase's host time at the reference host speed."""
        return seconds / self.slowdown()
