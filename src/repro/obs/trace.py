"""Cycle-domain event tracing in the Chrome trace (Perfetto) JSON format.

:class:`TraceRecorder` is an observer: attached to a simulation, it
subscribes to the simulation's event bus (:mod:`repro.sim.events.events`)
and turns the events into ``traceEvents`` records viewable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``:

* each core gets its own track of ``X`` (complete) events, one per serviced
  request, spanning issue to completion and annotated with the LLC outcome;
* the memory controller track carries ``i`` (instant) events for DRAM row
  activations, throttle decisions, counter traffic and tREFW window
  crossings, plus ``X`` events spanning structure-reset blackouts;
* the tracker track carries instants for mitigations, group mitigations and
  summary-table inserts/evicts;
* ``C`` (counter) events sample the LLC hit/miss totals every
  ``counter_stride`` requests, giving Perfetto a plottable hit-rate series.

Timestamps: the simulator's cycle-domain clock is nanoseconds; Chrome trace
``ts``/``dur`` are microseconds, so everything is divided by 1000.0 (the
format accepts fractional microseconds).

The recorder caps itself at ``max_events`` records and counts the overflow
in :attr:`dropped` -- long simulations degrade gracefully instead of eating
the host's memory.
"""

from __future__ import annotations

import json

from repro.sim.events.events import (
    BankActivate,
    CounterTraffic,
    GroupRefresh,
    MitigativeRefresh,
    RefreshWindow,
    RequestComplete,
    ResetBlackout,
    Throttle,
    TrackerEvict,
    TrackerInsert,
)

#: Synthetic process id for the whole simulated machine.
PID = 1
#: Thread-track ids: controller, tracker, then one per core at 100 + core_id.
TID_CONTROLLER = 1
TID_TRACKER = 2
TID_CORE_BASE = 100


#: Event kinds recorded as instants: (kind, track, name, args of an event).
_INSTANTS = (
    (BankActivate, TID_CONTROLLER, "ACT",
     lambda e: {"bank": e.bank_index, "row": e.row}),
    (Throttle, TID_CONTROLLER, "throttle",
     lambda e: {"core": e.core_id, "delay_ns": e.delay_ns}),
    (CounterTraffic, TID_CONTROLLER, "counter-traffic",
     lambda e: {"reads": e.reads, "writes": e.writes}),
    (RefreshWindow, TID_CONTROLLER, "tREFW",
     lambda e: {"window": e.window_index}),
    (MitigativeRefresh, TID_TRACKER, "mitigation",
     lambda e: {"row": str(e.row)}),
    (GroupRefresh, TID_TRACKER, "group-mitigation", lambda e: None),
    (TrackerInsert, TID_TRACKER, "insert",
     lambda e: {"row": e.row, "count": e.count}),
    (TrackerEvict, TID_TRACKER, "evict", lambda e: {"row": e.row}),
)


class TraceRecorder:
    """Record a simulation's events as Chrome-trace JSON."""

    def __init__(self, max_events: int = 1_000_000, counter_stride: int = 64):
        self.max_events = int(max_events)
        self.counter_stride = int(counter_stride)
        self.events: list[dict] = []
        self.dropped = 0
        self._cores_seen: set[int] = set()
        self._requests = 0
        self._llc_stats = None

    # -- helpers --------------------------------------------------------

    def _emit(self, event: dict) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    def _instant(self, tid: int, name: str, now_ns: float, args: dict | None = None) -> None:
        event = {
            "ph": "i",
            "pid": PID,
            "tid": tid,
            "ts": now_ns / 1000.0,
            "name": name,
            "s": "t",
        }
        if args:
            event["args"] = args
        self._emit(event)

    # -- observer -------------------------------------------------------

    def attach(self, simulator) -> None:
        """Subscribe to ``simulator.events``; called after warm-up."""
        self._llc_stats = simulator.llc.stats
        subscribe = simulator.events.subscribe
        subscribe(RequestComplete, self._on_request)
        subscribe(ResetBlackout, self._on_blackout)
        for kind, tid, name, args in _INSTANTS:
            subscribe(
                kind,
                lambda event, tid=tid, name=name, args=args: self._instant(
                    tid, name, event.time_ns, args(event)
                ),
            )

    def _on_request(self, event: RequestComplete) -> None:
        core_id = event.core_id
        self._cores_seen.add(core_id)
        self._emit(
            {
                "ph": "X",
                "pid": PID,
                "tid": TID_CORE_BASE + core_id,
                "ts": event.issue_ns / 1000.0,
                "dur": (event.time_ns - event.issue_ns) / 1000.0,
                "name": "write" if event.is_write else "read",
                "args": {"llc": event.llc},
            }
        )
        self._requests += 1
        if self._requests % self.counter_stride == 0:
            stats = self._llc_stats
            self._emit(
                {
                    "ph": "C",
                    "pid": PID,
                    "tid": 0,
                    "ts": event.time_ns / 1000.0,
                    "name": "llc",
                    "args": {"hits": stats.hits, "misses": stats.misses},
                }
            )

    def _on_blackout(self, event: ResetBlackout) -> None:
        self._emit(
            {
                "ph": "X",
                "pid": PID,
                "tid": TID_CONTROLLER,
                "ts": event.time_ns / 1000.0,
                "dur": float(event.blackout.duration_ns) / 1000.0,
                "name": "blackout",
                "args": {},
            }
        )

    # -- output ---------------------------------------------------------

    def chrome_trace(self) -> dict:
        """The full Chrome-trace JSON document."""
        metadata = [
            _thread_name(TID_CONTROLLER, "memory controller"),
            _thread_name(TID_TRACKER, "rowhammer tracker"),
        ]
        for core_id in sorted(self._cores_seen):
            metadata.append(_thread_name(TID_CORE_BASE + core_id, f"core {core_id}"))
        metadata.append(
            {
                "ph": "M",
                "pid": PID,
                "tid": 0,
                "name": "process_name",
                "args": {"name": "repro simulator"},
            }
        )
        return {
            "traceEvents": metadata + self.events,
            "displayTimeUnit": "ns",
            "otherData": {
                "dropped_events": self.dropped,
                "recorded_events": len(self.events),
            },
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)
            handle.write("\n")


def _thread_name(tid: int, name: str) -> dict:
    return {
        "ph": "M",
        "pid": PID,
        "tid": tid,
        "name": "thread_name",
        "args": {"name": name},
    }


def validate_chrome_trace(data, schema) -> list[str]:
    """Validate ``data`` against a minimal JSON-Schema subset.

    Supports the keywords used by ``tools/trace_schema.json``: ``type``
    (object / array / string / number / integer / boolean), ``properties``,
    ``required``, ``items`` and ``enum``.  Returns a list of error strings;
    an empty list means the document conforms.  Hand-rolled so CI needs no
    third-party jsonschema dependency.
    """
    errors: list[str] = []
    _validate(data, schema, "$", errors)
    return errors


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
}


def _validate(data, schema, path: str, errors: list[str], max_errors: int = 20) -> None:
    if len(errors) >= max_errors:
        return
    expected = schema.get("type")
    if expected is not None:
        if expected == "number":
            ok = isinstance(data, (int, float)) and not isinstance(data, bool)
        elif expected == "integer":
            ok = isinstance(data, int) and not isinstance(data, bool)
        else:
            ok = isinstance(data, _TYPES.get(expected, object))
        if not ok:
            errors.append(f"{path}: expected {expected}, got {type(data).__name__}")
            return
    if "enum" in schema and data not in schema["enum"]:
        errors.append(f"{path}: {data!r} not in {schema['enum']}")
        return
    if isinstance(data, dict):
        for name in schema.get("required", ()):
            if name not in data:
                errors.append(f"{path}: missing required property {name!r}")
        for name, subschema in schema.get("properties", {}).items():
            if name in data:
                _validate(data[name], subschema, f"{path}.{name}", errors, max_errors)
    if isinstance(data, list) and "items" in schema:
        for index, item in enumerate(data):
            if len(errors) >= max_errors:
                return
            _validate(item, schema["items"], f"{path}[{index}]", errors, max_errors)
