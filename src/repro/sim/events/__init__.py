"""The observational event fabric.

* :mod:`repro.sim.events.events` -- typed event classes and the
  :class:`EventBus` subscription fabric (dependency-free).  The fast engine
  (:class:`~repro.sim.batch.BatchedSimulator`) publishes into one bus per
  simulation, ``simulator.events``.
* :mod:`repro.sim.events.engine` -- ``EventDrivenSimulator``, an alias of
  the fast engine.
"""

from repro.sim.events.events import (
    BankActivate,
    BankPrecharge,
    Event,
    EventBus,
    RefreshTick,
    RefreshWindow,
    ServiceComplete,
    TrackerEpoch,
)

__all__ = [
    "BankActivate",
    "BankPrecharge",
    "Event",
    "EventBus",
    "RefreshTick",
    "RefreshWindow",
    "ServiceComplete",
    "TrackerEpoch",
]
