"""Instrumentation layer: zero overhead when off, bit-identical when on.

The observability contract has two hard requirements, both pinned here:

* **Off is free.**  With no subscriber on the simulation's event bus, the
  controller and the tracker hold no bus at all, so every emission site is
  one ``is not None`` check.
* **On changes nothing.**  Attaching the observers (trace + metrics) and a
  profiler must leave the :class:`SimulationResult` byte-identical on both
  engines -- instrumentation observes the simulation, it never participates.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.config import reduced_row_config
from repro.obs import (
    MetricsSampler,
    PipelineProfiler,
    TraceRecorder,
    validate_chrome_trace,
)
from repro.sim.batch import engine_class
from repro.sim.experiment import build_core_specs_from_plan, run_workload
from repro.sim.sweep import CoreAssignment
from repro.trackers.registry import create_tracker

REQUESTS = 300
ATTACK_WARMUP = 5_000
LLC_WARMUP = 2_000

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "tools" / "trace_schema.json"


def _canon(result) -> dict:
    return json.loads(json.dumps(result.to_dict(), sort_keys=True, default=str))


def _run(tracker: str, engine: str, observers=(), profiler=None, attack="refresh"):
    return run_workload(
        config=reduced_row_config(nrh=500),
        tracker=tracker,
        workload="453.povray",
        attack=attack,
        requests_per_core=REQUESTS,
        attack_warmup_activations=ATTACK_WARMUP,
        llc_warmup_accesses=LLC_WARMUP,
        engine=engine,
        observers=observers,
        profiler=profiler,
    )


def _full_observers():
    return TraceRecorder(), MetricsSampler(interval_ns=50_000.0)


class TestZeroOverhead:
    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_unobserved_run_attaches_no_bus(self, engine):
        # A profiler is not an observer: it leaves the bus detached too.
        config = reduced_row_config(nrh=500)
        simulator = engine_class(engine)(
            config,
            create_tracker("graphene", config),
            build_core_specs_from_plan(
                config,
                (
                    CoreAssignment(role="attack", name="refresh"),
                    *[CoreAssignment(role="workload", name="453.povray")] * 3,
                ),
                REQUESTS,
                config.seed,
            ),
            llc_warmup_accesses=LLC_WARMUP,
            profiler=PipelineProfiler(),
        )
        simulator.run()
        assert simulator.controller.events is None
        assert simulator.tracker.events is None


class TestInstrumentedParity:
    """Observers and a profiler must never change the simulation result."""

    @pytest.mark.parametrize("tracker", ["graphene", "blockhammer"])
    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_observers_are_invisible_to_results(self, tracker, engine):
        reference = _canon(_run(tracker, engine))
        instrumented = _canon(
            _run(tracker, engine, _full_observers(), PipelineProfiler())
        )
        assert instrumented == reference

    def test_instrumented_engines_match_each_other(self):
        scalar_trace, batched_trace = TraceRecorder(), TraceRecorder()
        scalar = _canon(_run("graphene", "scalar", (scalar_trace,)))
        batched = _canon(_run("graphene", "batched", (batched_trace,)))
        assert scalar == batched
        # Both engines emit every kind from the same sites, so the traces
        # must agree event-for-event too.
        assert scalar_trace.events == batched_trace.events


class TestTraceRecorder:
    def test_trace_validates_against_checked_in_schema(self, tmp_path):
        trace = TraceRecorder()
        _run("graphene", "batched", (trace,))
        path = tmp_path / "trace.json"
        trace.write(path)
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        with open(SCHEMA_PATH, encoding="utf-8") as handle:
            schema = json.load(handle)
        assert validate_chrome_trace(document, schema) == []
        assert document["otherData"]["recorded_events"] == len(trace.events)

    @pytest.mark.parametrize("tracker", ["graphene", "breakhammer:graphene"])
    def test_trace_carries_all_tracks(self, tracker):
        trace = TraceRecorder()
        _run(tracker, "batched", (trace,))
        from repro.obs.trace import TID_CONTROLLER, TID_CORE_BASE, TID_TRACKER

        tids = {event["tid"] for event in trace.events}
        assert TID_CONTROLLER in tids           # ACT instants
        assert TID_TRACKER in tids              # mitigations / inserts
        assert any(tid >= TID_CORE_BASE for tid in tids)  # request spans
        names = {event["name"] for event in trace.events}
        assert {"read", "ACT", "mitigation", "insert"} <= names

    def test_event_cap_counts_drops_instead_of_growing(self):
        trace = TraceRecorder(max_events=100)
        _run("graphene", "batched", (trace,))
        assert len(trace.events) == 100
        assert trace.dropped > 0
        data = trace.chrome_trace()
        assert data["otherData"]["dropped_events"] == trace.dropped

    def test_validator_flags_malformed_documents(self):
        with open(SCHEMA_PATH, encoding="utf-8") as handle:
            schema = json.load(handle)
        assert validate_chrome_trace({"traceEvents": []}, schema)   # missing unit
        bad_event = {"traceEvents": [{"ph": "Z", "pid": 1, "name": "x"}],
                     "displayTimeUnit": "ns"}
        assert any("not in" in error
                   for error in validate_chrome_trace(bad_event, schema))


class TestMetricsSampler:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            MetricsSampler(interval_ns=0)

    @pytest.mark.parametrize("tracker", ["graphene", "breakhammer:graphene"])
    def test_series_sampled_on_grid_and_monotonic(self, tracker):
        sampler = MetricsSampler(interval_ns=50_000.0)
        _run(tracker, "batched", (sampler,))
        assert sampler.samples > 0
        assert "tracker.table_occupancy" in sampler.series   # graphene has one
        for name, points in sampler.series.items():
            timestamps = [t_ns for t_ns, _ in points]
            assert timestamps == sorted(timestamps)
            assert len(timestamps) == len(set(timestamps)), name
        # Cumulative counters must never decrease between samples.
        for name in ("mc.requests", "dram.activations",
                     "tracker.activations_observed"):
            values = [value for _, value in sampler.series[name]]
            assert values == sorted(values), name

    def test_to_rows_round_trips_the_series(self):
        sampler = MetricsSampler(interval_ns=50_000.0)
        _run("none", "batched", (sampler,), attack=None)
        rows = sampler.to_rows()
        assert rows and all(len(row) == 3 for row in rows)
        assert rows == sorted(rows, key=lambda row: (row[0], row[1]))

    def test_short_run_still_produces_a_closing_sample(self):
        # One sample at the horizon even when the run is shorter than the
        # sampling interval.
        sampler = MetricsSampler(interval_ns=1e12)
        _run("none", "batched", (sampler,), attack=None)
        assert sampler.samples == len(sampler.series)
        assert all(len(points) == 1 for points in sampler.series.values())


class TestPipelineProfiler:
    def test_scalar_and_batched_stage_sets(self):
        scalar, batched = PipelineProfiler(), PipelineProfiler()
        _run("graphene", "scalar", profiler=scalar)
        _run("graphene", "batched", profiler=batched)
        base = {"llc-warmup", "tracker-warmup", "drain", "collect",
                "mitigation-scan"}
        assert base <= set(scalar.stage_seconds)
        # The batched engine additionally times its vectorised generation.
        assert base | {"generation"} <= set(batched.stage_seconds)

    def test_report_fractions_sum_to_one(self):
        profiler = PipelineProfiler()
        _run("graphene", "batched", profiler=profiler)
        report = profiler.report()
        assert report["total_seconds"] > 0
        fractions = [stage["fraction"] for stage in report["stages"].values()]
        assert abs(sum(fractions) - 1.0) < 1e-9
        seconds = [stage["seconds"] for stage in report["stages"].values()]
        assert seconds == sorted(seconds, reverse=True)


class TestObsCli:
    def _trace(self, tmp_path, *extra):
        from repro.cli import main

        output = tmp_path / "trace.json"
        argv = [
            "obs", "trace", "--tracker", "graphene", "--attack", "refresh",
            "--nrh", "500", "--requests", "200", "-o", str(output), *extra,
        ]
        assert main(argv) == 0
        return output

    def test_obs_trace_writes_a_valid_trace(self, tmp_path, capsys):
        output = self._trace(tmp_path)
        with open(output, encoding="utf-8") as handle:
            trace = json.load(handle)
        with open(SCHEMA_PATH, encoding="utf-8") as handle:
            schema = json.load(handle)
        assert validate_chrome_trace(trace, schema) == []
        printed = capsys.readouterr().out
        assert "metrics" in printed and "profile" in printed

    def test_obs_trace_persists_metrics_to_the_warehouse(self, tmp_path, capsys):
        from repro.cli import main
        from repro.store import SqliteStore

        warehouse = tmp_path / "wh.sqlite"
        self._trace(tmp_path, "--store", str(warehouse))
        store = SqliteStore(warehouse)
        keys = store.metrics_keys()
        assert len(keys) == 1
        (key,) = keys
        assert store.get(key) is not None       # the run itself is stored too
        series = store.get_metrics(key)
        assert "llc.hit_rate" in series and series["llc.hit_rate"]
        # The store metrics verb resolves unique key prefixes.
        capsys.readouterr()
        assert main(["store", "metrics", "--store", str(warehouse),
                     "--key", key[:10], "--metric", "llc.hit_rate"]) == 0
        assert "llc.hit_rate" in capsys.readouterr().out

    def test_obs_trace_suite_mode(self, tmp_path, capsys):
        from repro.cli import main

        suite = Path("examples/suites/demo_campaign.json")
        output = tmp_path / "suite-trace.json"
        assert main(["obs", "trace", "--suite", str(suite), "--index", "0",
                     "--requests", "100", "-o", str(output)]) == 0
        assert output.exists()
        assert main(["obs", "trace", "--suite", str(suite), "--index", "99",
                     "-o", str(output)]) == 2    # out of range

    def test_verbosity_flags_parse(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["-v", "list-trackers"]) == 0
        assert main(["-qq", "list-trackers"]) == 0
