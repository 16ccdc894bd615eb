"""Host-time spans around the program's public entry points.

The traced run wraps one public method or function per layer boundary (see
:func:`entry_points`) and records a span for every call: its name, its
duration and the span that called it.  Spans are aggregated per
``(name, parent)`` as they close, so memory stays bounded however long the
run; a span's self time is its duration minus the time its child spans
cover.  Wrapping happens at class level before the simulation is built, so
the engines' hoisted bound methods (``access_flat = dram.access_flat``) pick
the wrappers up and no code path changes -- a traced run produces the same
results as an untraced one.

Nothing here edits the program: :meth:`SpanTracer.installed` patches class
and module attributes and restores every original on exit.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter

#: Calls of the recorded tracker kept for the replay (a prefix replays
#: exactly; the cap bounds the traced run's memory).
RECORD_LIMIT = 200_000


def _subclasses(cls) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _subclasses(sub) if c not in found)
    return found


def entry_points() -> list[tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped entry point.

    Span names are ``<layer>.<entry>`` with the repo's module names as
    layers.  Only attributes an owner defines itself are listed, so an
    inherited method is wrapped once, on the class that defines it.
    """
    import repro.attacks  # noqa: F401  (registers every attack class)
    import repro.core.dapper_h  # noqa: F401
    import repro.core.dapper_s  # noqa: F401
    import repro.sim.events.engine as event_engine
    import repro.sim.experiment as experiment
    import repro.trackers.registry  # noqa: F401
    from repro.attacks.base import AttackGenerator
    from repro.core.rgc import RowGroupCounterTable
    from repro.cpu.trace import WorkloadTraceGenerator
    from repro.cpu.tracefile import FileTraceGenerator
    from repro.crypto.llbc import LowLatencyBlockCipher
    from repro.dram.address import AddressMapper
    from repro.dram.dram_system import DRAMSystem
    from repro.mc.controller import MemoryController
    from repro.sim.batch import BatchedSimulator
    from repro.sim.simulator import Simulator
    from repro.trackers.base import RowHammerTracker

    points = [
        (WorkloadTraceGenerator, "next_batch", "cpu.next_batch"),
        (FileTraceGenerator, "next_batch", "cpu.next_batch"),
        (AddressMapper, "decode", "dram.address.decode"),
        (AddressMapper, "decode_batch", "dram.address.decode_batch"),
        (MemoryController, "service", "mc.service"),
        (MemoryController, "service_row", "mc.service_row"),
        (MemoryController, "_apply_response", "mc.apply_response"),
        (DRAMSystem, "access_flat", "dram.access_flat"),
        (DRAMSystem, "counter_access", "dram.counter_access"),
        (DRAMSystem, "victim_refresh", "dram.victim_refresh"),
        (DRAMSystem, "apply_blackout", "dram.apply_blackout"),
        (RowGroupCounterTable, "group_of", "core.rgc.group_of"),
        (RowGroupCounterTable, "members", "core.rgc.members"),
        (LowLatencyBlockCipher, "encrypt", "crypto.llbc.encrypt"),
        (LowLatencyBlockCipher, "decrypt", "crypto.llbc.decrypt"),
        (experiment, "warm_up_tracker", "sim.tracker_warmup"),
        (experiment, "warm_up_tracker_from_plan", "sim.tracker_warmup"),
    ]
    for cls in _subclasses(AttackGenerator):
        for attr in ("next_entry", "next_batch"):
            if attr in vars(cls):
                points.append((cls, attr, f"attacks.{attr}"))
    for cls in _subclasses(RowHammerTracker)[1:]:  # the base is abstract
        if "on_activation" in vars(cls):
            points.append((cls, "on_activation", "trackers.on_activation"))
    for cls in (Simulator, BatchedSimulator, event_engine.EventDrivenSimulator):
        for attr, name in (("_warm_llc", "sim.warm_llc"), ("_drain", "sim.drain")):
            if attr in vars(cls):
                points.append((cls, attr, name))
    return points


#: Span names in report order (entry points sharing a name aggregate).
SPAN_NAMES = (
    "cpu.next_batch",
    "attacks.next_entry",
    "attacks.next_batch",
    "dram.address.decode",
    "dram.address.decode_batch",
    "mc.service",
    "mc.service_row",
    "mc.apply_response",
    "dram.access_flat",
    "dram.counter_access",
    "dram.victim_refresh",
    "dram.apply_blackout",
    "trackers.on_activation",
    "core.rgc.group_of",
    "core.rgc.members",
    "crypto.llbc.encrypt",
    "crypto.llbc.decrypt",
    "sim.tracker_warmup",
    "sim.warm_llc",
    "sim.drain",
)


class CallRecorder:
    """Records one tracker instance's calls so they can be replayed.

    The first tracker named ``tracker_name`` that sees an activation becomes
    the target; its ``on_activation`` calls (with their responses) and
    ``on_refresh_window`` calls are kept in order, up to ``limit``.
    """

    def __init__(self, tracker_name: str, limit: int = RECORD_LIMIT):
        self.tracker_name = tracker_name
        self.limit = limit
        self.target = None
        self.calls: list[tuple] = []

    def activation(self, tracker, row, now_ns, response) -> None:
        if self.target is None and tracker.name == self.tracker_name:
            self.target = tracker
        if tracker is self.target and len(self.calls) < self.limit:
            self.calls.append((True, row, now_ns, response))

    def window(self, tracker, window_index, now_ns) -> None:
        if tracker is self.target and len(self.calls) < self.limit:
            self.calls.append((False, window_index, now_ns, None))


class SpanTracer:
    """Aggregated spans plus the counts the per-layer metrics need."""

    def __init__(self, recorder: CallRecorder | None = None, clock=perf_counter):
        """``clock`` reads host seconds; pass one that stops while something
        else (the host-speed kernel) runs to keep that time out of spans."""
        #: ``(name, parent name or None) -> [calls, total_s, child_s]``
        self.spans: dict[tuple[str, str | None], list] = {}
        #: ``on_activation`` calls that returned a non-empty response.
        self.nonempty_responses = 0
        self.recorder = recorder
        self._clock = clock
        self._stack: list[list] = []

    def _span(self, name: str, fn, observe=None):
        stack = self._stack
        spans = self.spans
        clock = self._clock

        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                entry = spans.get((name, parent))
                if entry is None:
                    entry = spans[(name, parent)] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += frame[1]

        return functools.update_wrapper(span, fn)

    def _observe_activation(self, args, response) -> None:
        if not response.is_empty:
            self.nonempty_responses += 1
        if self.recorder is not None:
            self.recorder.activation(args[0], args[1], args[2], response)

    def _recording_window(self, fn):
        recorder = self.recorder

        def on_refresh_window(tracker, window_index, now_ns):
            recorder.window(tracker, window_index, now_ns)
            return fn(tracker, window_index, now_ns)

        return functools.update_wrapper(on_refresh_window, fn)

    @contextmanager
    def installed(self):
        """Wrap every entry point; restore the originals on exit."""
        from repro.trackers.base import RowHammerTracker

        patches = []
        try:
            for owner, attr, name in entry_points():
                original = vars(owner)[attr]
                observe = (
                    self._observe_activation
                    if name == "trackers.on_activation"
                    else None
                )
                setattr(owner, attr, self._span(name, original, observe))
                patches.append((owner, attr, original))
            if self.recorder is not None:
                for cls in _subclasses(RowHammerTracker):
                    if "on_refresh_window" in vars(cls):
                        original = vars(cls)["on_refresh_window"]
                        setattr(
                            cls,
                            "on_refresh_window",
                            self._recording_window(original),
                        )
                        patches.append((cls, "on_refresh_window", original))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: outermost ``calls`` and ``self_s``.

        A call nested in a span of the same name (a subclass calling its
        base's wrapped method) adds self time but is not a second call.
        """
        out = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        for (name, parent), (calls, total, child) in self.spans.items():
            out[name]["self_s"] += total - child
            if parent != name:
                out[name]["calls"] += calls
        return out

    def calls_under(self, name: str, parent: str) -> int:
        """Calls of ``name`` made directly from a ``parent`` span."""
        entry = self.spans.get((name, parent))
        return entry[0] if entry else 0

    def top_level_s(self) -> float:
        """Host time covered by spans that no other span encloses."""
        return sum(
            total for (_, parent), (_, total, _) in self.spans.items()
            if parent is None
        )
