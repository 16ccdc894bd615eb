"""The observation fabric.

* :mod:`repro.sim.events.events` -- the typed event vocabulary and the
  :class:`EventBus` subscription fabric (dependency-free).  Every
  simulation, on either engine, publishes into one bus, ``simulator.events``.
* :mod:`repro.sim.events.engine` -- ``EventDrivenSimulator``, an alias of
  the fast engine.
"""

from repro.sim.events.events import (
    BankActivate,
    CounterTraffic,
    Event,
    EventBus,
    GroupRefresh,
    MitigativeRefresh,
    RefreshWindow,
    RequestComplete,
    ResetBlackout,
    RunEnd,
    Throttle,
    TrackerEvict,
    TrackerInsert,
)

__all__ = [
    "BankActivate",
    "CounterTraffic",
    "Event",
    "EventBus",
    "GroupRefresh",
    "MitigativeRefresh",
    "RefreshWindow",
    "RequestComplete",
    "ResetBlackout",
    "RunEnd",
    "Throttle",
    "TrackerEvict",
    "TrackerInsert",
]
