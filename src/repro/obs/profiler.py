"""Pipeline profiling: host wall-time per simulation stage.

:class:`PipelineProfiler` accumulates ``perf_counter`` wall-time under
named stages -- ``llc-warmup``, ``tracker-warmup``, ``generation``,
``drain``, ``mitigation-scan``, ``collect`` -- either through the
:meth:`stage` context manager or via explicit :meth:`add` calls from hot
loops that cannot afford a ``with`` block per iteration.

Unlike the trace/metrics planes this measures *host* time, not simulated
time, so it is the tool for answering "where does a sweep's wall-clock
go".  It is not an observer of the event bus: the engines, the memory
controller and ``run_workload`` consult it directly (``profiler=``), and
profiling never moves a run off its fast paths.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class PipelineProfiler:
    """Accumulate wall-time per named pipeline stage."""

    def __init__(self):
        self.stage_seconds: dict[str, float] = {}
        self.stage_counts: dict[str, int] = {}

    @contextmanager
    def stage(self, name: str):
        started = perf_counter()
        try:
            yield
        finally:
            self.add(name, perf_counter() - started)

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + seconds
        self.stage_counts[name] = self.stage_counts.get(name, 0) + count

    def report(self) -> dict:
        """Stage breakdown with per-stage fraction of the profiled total."""
        total = sum(self.stage_seconds.values())
        stages = {
            name: {
                "seconds": seconds,
                "count": self.stage_counts.get(name, 0),
                "fraction": (seconds / total) if total > 0 else 0.0,
            }
            for name, seconds in sorted(
                self.stage_seconds.items(), key=lambda item: -item[1]
            )
        }
        return {"stages": stages, "total_seconds": total}
