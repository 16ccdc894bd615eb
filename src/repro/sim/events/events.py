"""Typed simulation events and the subscription bus they flow through.

The fast engine (:class:`~repro.sim.batch.BatchedSimulator`) publishes every
observable state change as a typed event:

===================  ======================================================
:class:`ServiceComplete` the controller finished servicing a request
:class:`BankActivate`    a DRAM bank opened a row (ACT)
:class:`BankPrecharge`   a DRAM bank closed its open row (PRE)
:class:`RefreshTick`     one per-tREFI auto-refresh (REF) command elapsed
:class:`RefreshWindow`   the simulation crossed a tREFW boundary
:class:`TrackerEpoch`    the tracker ran its periodic refresh-window reset
===================  ======================================================

Events are *observational*: component adapters emit them into the
:class:`EventBus` only while at least one handler is subscribed to the kind,
so an unobserved simulation pays nothing for the event fabric (a single
``None`` check on the controller, and a hoisted boolean in the engine).

Handlers never influence timing or results -- the engine is parity-pinned
against the scalar reference with and without subscribers -- which is what
makes the bus safe to use for tracing, assertions and ad-hoc analysis.

This module is intentionally dependency-free (no imports from the rest of
:mod:`repro`) so component adapters can import it lazily without creating
import cycles through :mod:`repro.sim`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True, slots=True)
class Event:
    """Base class: something that happens at one simulated instant."""

    time_ns: float


@dataclass(frozen=True, slots=True)
class ServiceComplete(Event):
    """The memory controller finished servicing one request.

    ``time_ns`` is the completion time.  Only requests that reach the
    controller produce one -- LLC hits complete inside the cache and never
    become controller work, in every engine.
    """

    core_id: int
    address: int
    is_write: bool
    issue_ns: float


@dataclass(frozen=True, slots=True)
class BankActivate(Event):
    """Bank ``bank_index`` activated (opened) ``row`` at ``time_ns``."""

    bank_index: int
    row: int


@dataclass(frozen=True, slots=True)
class BankPrecharge(Event):
    """Bank ``bank_index`` precharged (closed) ``row``.

    Emitted on row conflicts, where the open-page policy implies a PRE of
    the previously open row before the new ACT.
    """

    bank_index: int
    row: int


@dataclass(frozen=True, slots=True)
class RefreshTick(Event):
    """One per-tREFI auto-refresh (REF) command, issued to every rank.

    ``index`` counts REF commands since time zero (``index * tREFI`` is the
    command's nominal time).  Ticks are enumerated lazily between serviced
    requests, so long idle stretches cost nothing unless someone subscribes.
    """

    index: int


@dataclass(frozen=True, slots=True)
class RefreshWindow(Event):
    """The simulation crossed into refresh window ``window_index``.

    Window crossings are detected lazily at request-service time (the same
    rule every engine uses), so ``time_ns`` is the service time of the first
    DRAM request observed inside or after the new window -- not the nominal
    boundary ``window_index * tREFW``.
    """

    window_index: int


@dataclass(frozen=True, slots=True)
class TrackerEpoch(Event):
    """The tracker ran its periodic per-tREFW housekeeping.

    Emitted right after :meth:`RowHammerTracker.on_refresh_window` for
    window ``window_index`` returned; ``tracker_name`` identifies which
    mitigation's epoch elapsed.
    """

    window_index: int
    tracker_name: str


class EventBus:
    """Exact-type publish/subscribe fabric for observational events.

    ``subscribe`` registers a handler for one event class; ``emit``
    dispatches an event to the handlers of its exact type.  Emission sites
    guard on :meth:`wants` (or on a hoisted boolean derived from it), so a
    bus with no subscribers adds no per-request work.
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
