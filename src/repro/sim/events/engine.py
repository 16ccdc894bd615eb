"""``EventDrivenSimulator``: another name for the fast engine.

The quiescent stretch executor is part of
:class:`~repro.sim.batch.BatchedSimulator` (and the event bus of every
engine); this name stays importable for code that refers to it.
"""

from repro.sim.batch import BatchedSimulator

EventDrivenSimulator = BatchedSimulator
