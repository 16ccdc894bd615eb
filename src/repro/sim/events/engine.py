"""``EventDrivenSimulator``: another name for the fast engine.

The quiescent stretch executor and the event bus are part of
:class:`~repro.sim.batch.BatchedSimulator`; this name stays importable for
code that refers to it.
"""

from repro.sim.batch import BatchedSimulator

EventDrivenSimulator = BatchedSimulator
