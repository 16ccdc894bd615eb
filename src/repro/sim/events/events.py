"""Typed simulation events and the subscription bus they flow through.

Every simulation owns one :class:`EventBus`, ``simulator.events``, on both
engines.  It is the only way to observe a run: the trace recorder and the
metrics sampler (:mod:`repro.obs`) are subscribers like any other.  Each
kind has exactly one emission site:

==========================  ============================================
:class:`RequestComplete`    ``Simulator._service_addr``
:class:`BankActivate`       ``MemoryController.service_row``
:class:`Throttle`           ``MemoryController.service_row``
:class:`CounterTraffic`     ``MemoryController._apply_response``
:class:`MitigativeRefresh`  ``MemoryController._apply_response``
:class:`GroupRefresh`       ``MemoryController._apply_group_mitigation``
:class:`ResetBlackout`      ``MemoryController._apply_response``
:class:`RefreshWindow`      ``MemoryController._check_refresh_window``
:class:`TrackerInsert`      ``GrapheneTracker.on_activation``
:class:`TrackerEvict`       ``GrapheneTracker.on_activation``
:class:`RunEnd`             ``Simulator.run``
==========================  ============================================

Events are *observational*: handlers never influence timing or results
(both engines are parity-pinned with and without subscribers).  The
controller and the tracker hold the bus in their ``events`` attribute only
while it has subscribers; otherwise it is ``None`` and each emission site
costs one ``is not None`` check.

This module is intentionally dependency-free (no imports from the rest of
:mod:`repro`) so every component can import it without creating import
cycles through :mod:`repro.sim`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True, slots=True)
class Event:
    """Base class: something that happens at one simulated instant."""

    time_ns: float


@dataclass(frozen=True, slots=True)
class RequestComplete(Event):
    """A core's request completed; ``time_ns`` is its completion time.

    Every request produces one, LLC hits included.  ``llc`` is ``"hit"``,
    ``"miss"`` or ``"bypass"`` (the core's generator skips the LLC).
    """

    core_id: int
    issue_ns: float
    is_write: bool
    llc: str


@dataclass(frozen=True, slots=True)
class BankActivate(Event):
    """Bank ``bank_index`` activated (opened) ``row``.

    Stamped with the completion time of the DRAM access that activated it
    (the request-level model does not expose per-command start times).
    """

    bank_index: int
    row: int


@dataclass(frozen=True, slots=True)
class Throttle(Event):
    """The tracker delayed core ``core_id``'s request by ``delay_ns`` before
    it reached DRAM; ``time_ns`` is the undelayed issue time."""

    core_id: int
    delay_ns: float


@dataclass(frozen=True, slots=True)
class CounterTraffic(Event):
    """A tracker response cost ``reads`` + ``writes`` in-DRAM counter
    accesses."""

    reads: int
    writes: int


@dataclass(frozen=True, slots=True)
class MitigativeRefresh(Event):
    """The controller refreshed the victims of aggressor ``row`` (a
    :class:`~repro.dram.address.RowAddress`)."""

    row: object


@dataclass(frozen=True, slots=True)
class GroupRefresh(Event):
    """The controller refreshed a whole row group of ``num_rows`` rows in
    rank ``rank`` of channel ``channel`` (DAPPER-S style)."""

    channel: int
    rank: int
    num_rows: int


@dataclass(frozen=True, slots=True)
class ResetBlackout(Event):
    """A structure-reset blackout (a :class:`~repro.dram.commands.Blackout`)
    started at ``time_ns``."""

    blackout: object


@dataclass(frozen=True, slots=True)
class RefreshWindow(Event):
    """The simulation crossed into refresh window ``window_index``.

    Emitted once the tracker has run its per-window housekeeping.  Window
    crossings are detected lazily at request-service time (the same rule
    every engine uses), so ``time_ns`` is the service time of the first
    DRAM request observed inside or after the new window -- not the nominal
    boundary ``window_index * tREFW``.
    """

    window_index: int


@dataclass(frozen=True, slots=True)
class TrackerInsert(Event):
    """The tracker inserted ``row`` into its summary table with ``count``."""

    row: int
    count: int


@dataclass(frozen=True, slots=True)
class TrackerEvict(Event):
    """The tracker spilled ``row`` from its summary table."""

    row: int


@dataclass(frozen=True, slots=True)
class RunEnd(Event):
    """The run finished; ``time_ns`` is its elapsed simulated time."""


class EventBus:
    """Exact-type publish/subscribe fabric for observational events.

    ``subscribe`` registers a handler for one event class; ``emit``
    dispatches an event to the handlers of its exact type.
    """

    def __init__(self):
        self._handlers: dict[type, list[Callable]] = {}

    def subscribe(self, event_type: type, handler: Callable) -> None:
        """Register ``handler`` to receive events of exactly ``event_type``."""
        if not (isinstance(event_type, type) and issubclass(event_type, Event)):
            raise TypeError(f"not an event type: {event_type!r}")
        self._handlers.setdefault(event_type, []).append(handler)

    def unsubscribe(self, event_type: type, handler: Callable) -> None:
        """Remove a previously subscribed handler (no-op if absent)."""
        handlers = self._handlers.get(event_type)
        if handlers is None:
            return
        try:
            handlers.remove(handler)
        except ValueError:
            return
        if not handlers:
            del self._handlers[event_type]

    def wants(self, event_type: type) -> bool:
        """Whether at least one handler is subscribed to ``event_type``."""
        return event_type in self._handlers

    def wants_any(self, *event_types: type) -> bool:
        """Whether any of ``event_types`` has a subscriber."""
        return any(t in self._handlers for t in event_types)

    @property
    def has_subscribers(self) -> bool:
        return bool(self._handlers)

    def emit(self, event: Event) -> None:
        """Deliver ``event`` to the handlers of its exact type."""
        handlers = self._handlers.get(type(event))
        if handlers:
            for handler in handlers:
                handler(event)
