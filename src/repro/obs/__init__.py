"""Zero-overhead instrumentation: tracing, metrics and pipeline profiling.

Two observers of the simulation's event bus and one profiler (see
docs/observability.md):

* :class:`TraceRecorder` -- cycle-domain event tracing to Chrome-trace /
  Perfetto JSON, one track per component.
* :class:`MetricsSampler` -- counter/gauge time-series on a fixed
  simulated-time grid, persisted to the warehouse ``metrics`` table.
* :class:`PipelineProfiler` -- host wall-time per pipeline stage
  (generation / warm-up / drain / mitigation scan / collect).

An observer is any object with an ``attach(simulator)`` method; it is
called after warm-up and subscribes handlers to ``simulator.events``
(:mod:`repro.sim.events.events`)::

    from repro.obs import MetricsSampler, PipelineProfiler, TraceRecorder
    from repro.sim.experiment import run_workload

    trace = TraceRecorder()
    result = run_workload(tracker="dapper-h", attack="refresh",
                          observers=(trace, MetricsSampler()),
                          profiler=PipelineProfiler())
    trace.write("trace.json")

With no subscriber every emission site is a single ``is not None`` check;
with observers or a profiler attached the ``SimulationResult`` stays
bit-identical (pinned by ``tests/test_obs.py``).
"""

from repro.obs.metrics import MetricsSampler
from repro.obs.profiler import PipelineProfiler
from repro.obs.trace import TraceRecorder, validate_chrome_trace

__all__ = [
    "MetricsSampler",
    "PipelineProfiler",
    "TraceRecorder",
    "validate_chrome_trace",
]
