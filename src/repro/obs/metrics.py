"""Metrics time-series sampling in the simulated-time (cycle) domain.

:class:`MetricsSampler` is an observer that samples a fixed registry of
gauges every ``interval_ns`` of *simulated* time, read off the completion
times of the simulation's requests, and accumulates ``(t_ns, value)``
series.  The gauges are captured at :meth:`attach` time as bound callables
over the live stats objects, so each sample is a handful of attribute reads
-- no dict lookups on the hot path.

Recorded gauges:

``llc.hit_rate`` / ``llc.occupancy``
    Shared-LLC hit rate and fraction of data ways holding a line.
``mc.requests`` / ``mc.throttled_requests`` / ``mc.throttle_time_ns`` /
``mc.mitigation_refreshes``
    Memory-controller counters (cumulative).
``dram.activations``
    Row activations issued so far.
``tracker.activations_observed`` / ``tracker.mitigations_issued``
    Tracker counters (cumulative).
``tracker.table_occupancy``
    Fill fraction of the tracker's summary table, for trackers that
    report one (see ``RowHammerTracker.table_occupancy``).

The series persist to the warehouse ``metrics`` table (schema v3) via
``SqliteStore.put_metrics`` and come back out through ``store metrics`` /
``get_metrics``.
"""

from __future__ import annotations

from repro.sim.events.events import RequestComplete, RunEnd


class MetricsSampler:
    """Sample simulator gauges on a fixed simulated-time grid."""

    def __init__(self, interval_ns: float = 100_000.0):
        if interval_ns <= 0:
            raise ValueError("interval_ns must be positive")
        self.interval_ns = float(interval_ns)
        self.series: dict[str, list[tuple[float, float]]] = {}
        self._gauges: tuple = ()
        self._next_ns = self.interval_ns
        self._last_ns = 0.0

    def attach(self, simulator) -> None:
        """Bind the gauges and subscribe to ``simulator.events``; called
        after warm-up."""
        llc = simulator.llc
        llc_stats = llc.stats
        cstats = simulator.controller.stats
        dram_stats = simulator.dram.stats
        tracker = simulator.tracker
        tstats = tracker.stats
        gauges = [
            ("llc.hit_rate", lambda: llc_stats.hit_rate),
            ("llc.occupancy", llc.occupancy),
            ("mc.requests", lambda: float(cstats.requests)),
            ("mc.throttled_requests", lambda: float(cstats.throttled_requests)),
            ("mc.throttle_time_ns", lambda: cstats.throttle_time_ns),
            ("mc.mitigation_refreshes", lambda: float(cstats.mitigation_refreshes)),
            ("dram.activations", lambda: float(dram_stats.activations)),
            ("tracker.activations_observed", lambda: float(tstats.activations_observed)),
            ("tracker.mitigations_issued", lambda: float(tstats.mitigations_issued)),
        ]
        if tracker.table_occupancy() is not None:
            gauges.append(
                ("tracker.table_occupancy", lambda: float(tracker.table_occupancy()))
            )
        self._gauges = tuple(gauges)
        self.series = {name: [] for name, _ in self._gauges}
        simulator.events.subscribe(RequestComplete, self._on_request)
        simulator.events.subscribe(RunEnd, self._on_run_end)

    def _on_request(self, event: RequestComplete) -> None:
        completion_ns = event.time_ns
        self._last_ns = completion_ns
        if completion_ns >= self._next_ns:
            self._sample(completion_ns)

    def _sample(self, now_ns: float) -> None:
        series = self.series
        for name, gauge in self._gauges:
            series[name].append((now_ns, float(gauge())))
        interval = self.interval_ns
        # Align the next sample to the grid so a long idle gap yields one
        # sample, not a burst of catch-up samples.
        self._next_ns = (now_ns // interval + 1.0) * interval

    def _on_run_end(self, _event: RunEnd) -> None:
        # Close every series with a final sample at the last completion so
        # short runs (< one interval) still produce data.  Skipped when that
        # equals the last grid sample: t_ns is a primary-key column in the
        # warehouse metrics table, so timestamps must not repeat.
        last_recorded = max(
            (points[-1][0] for points in self.series.values() if points),
            default=-1.0,
        )
        if self._last_ns > last_recorded:
            self._sample(self._last_ns)

    @property
    def samples(self) -> int:
        return sum(len(points) for points in self.series.values())

    def to_rows(self) -> list[tuple[str, float, float]]:
        """Flatten the series to ``(metric, t_ns, value)`` rows."""
        rows: list[tuple[str, float, float]] = []
        for name in sorted(self.series):
            for t_ns, value in self.series[name]:
                rows.append((name, t_ns, value))
        return rows
