"""Engine parity suite: the fast engine must be bit-identical everywhere.

The fast engine (:mod:`repro.sim.batch`) restructures the per-request hot
path, adds a vectorized quiescent stretch executor and carries the event
bus, but must produce byte-for-byte the same :class:`SimulationResult` as
the scalar reference engine -- for every registered tracker, for
multi-attacker core plans, for trace replay, across worker-pool execution,
through a warehouse replay, with and without numpy, and with event-bus
subscribers attached.  These tests are the contract that lets
``bench_sweep`` advertise its speedup as a pure optimisation.
"""

import dataclasses
import json
import random

import pytest

import repro.crypto.llbc as llbc_mod
import repro.dram.address as address_mod
import repro.sim.batch as batch_mod
import repro.sim.events.events as events_mod
from repro.config import CacheConfig, reduced_row_config
from repro.cpu.trace import TraceEntry
from repro.cpu.tracefile import (
    FileTraceGenerator,
    read_trace,
    record_workload_trace,
    write_trace,
)
from repro.cpu.workloads import WorkloadProfile
from repro.dram.address import AddressMapper
from repro.obs import PipelineProfiler
from repro.scenarios import family_by_name
from repro.sim.batch import BatchedSimulator, engine_class
from repro.sim.experiment import run_workload
from repro.sim.sweep import CoreAssignment, ScenarioSpec, SweepRunner
from repro.trackers.registry import available_trackers


REQUESTS = 400
ATTACK_WARMUP = 20_000
LLC_WARMUP = 5_000


def _canon(result) -> dict:
    """Serialized result, round-tripped the way the warehouse stores it."""
    return json.loads(json.dumps(result.to_dict(), sort_keys=True, default=str))


def _run(
    tracker: str,
    engine: str,
    attack="refresh",
    core_plan=None,
    requests=REQUESTS,
    config=None,
    profiler=None,
):
    return _canon(
        run_workload(
            config=config or reduced_row_config(nrh=500),
            tracker=tracker,
            workload="453.povray",
            attack=attack,
            requests_per_core=requests,
            attack_warmup_activations=ATTACK_WARMUP,
            llc_warmup_accesses=LLC_WARMUP,
            core_plan=core_plan,
            engine=engine,
            profiler=profiler,
        )
    )


def _run_spec(spec, engine, observers=()):
    return _canon(
        run_workload(
            config=spec.config,
            tracker=spec.tracker,
            workload=spec.workload,
            attack=spec.attack,
            requests_per_core=spec.requests_per_core,
            seed=spec.seed,
            attack_warmup_activations=spec.attack_warmup_activations,
            llc_warmup_accesses=spec.llc_warmup_accesses,
            core_plan=spec.core_plan,
            engine=engine,
            observers=observers,
        )
    )


class TestEngineParity:
    @pytest.mark.parametrize("tracker", available_trackers())
    def test_batched_matches_scalar(self, tracker):
        assert _run(tracker, "batched") == _run(tracker, "scalar")

    @pytest.mark.parametrize("tracker", ["none", "graphene"])
    def test_benign_scenarios_match(self, tracker):
        assert _run(tracker, "batched", attack=None) == _run(
            tracker, "scalar", attack=None
        )

    def test_multi_attacker_plan_matches(self):
        plan = (
            CoreAssignment(role="attack", name="refresh"),
            CoreAssignment(role="attack", name="refresh", hammer_rate=0.5),
            CoreAssignment(role="workload", name="453.povray"),
            CoreAssignment(role="workload", name="429.mcf", intensity=0.5),
        )
        assert _run("dapper-h", "batched", attack=None, core_plan=plan) == _run(
            "dapper-h", "scalar", attack=None, core_plan=plan
        )

    def test_event_is_an_alias_of_batched(self):
        assert engine_class("event") is engine_class("batched")


def _small_llc(size_bytes: int, line_size_bytes: int = 64):
    """The reduced-row system with a smaller LLC of the given geometry."""
    return dataclasses.replace(
        reduced_row_config(nrh=500),
        llc=CacheConfig(size_bytes=size_bytes, line_size_bytes=line_size_bytes),
    )


#: A compact benign workload: a 256 KiB footprint (4,096 DRAM lines) keeps
#: its residency map cheap, and 20 accesses per kilo-instruction make it
#: finish its budget long before a low-rate trace core does.
_COMPACT_PROFILE = WorkloadProfile(
    name="compact",
    suite="test",
    apki=20.0,
    row_locality=0.6,
    footprint_bytes=256 * 1024,
    hot_bytes=32 * 1024,
)


def _write_hot_set_trace(path):
    """256 hot lines with gaps far above the LLC hit latency."""
    rng = random.Random(7)
    entries = [
        TraceEntry(
            gap_instructions=rng.randint(2_500, 7_500),
            address=(1 << 20) + 64 * rng.randrange(256),
            is_write=rng.random() < 0.25,
        )
        for _ in range(4_096)
    ]
    write_trace(path, entries)


def _write_hammer_trace(path, org):
    """Alternate LLC hits with row-conflicting misses on one DRAM bank.

    With a 64 KiB LLC there are 64 sets, one per (channel, bank group,
    bank), so the 32 lines of rows 8 and 9 in bank 0 all share set 0 and
    thrash its 16 ways: every one of those accesses misses and activates a
    row, which drives each tracker well past NRH.  The hits go to row 8 of
    every other bank, one line per set.
    """
    mapper = AddressMapper(org)
    hot = [
        mapper.encode(channel, 0, group, bank, 8)
        for channel in range(org.channels)
        for group in range(org.bank_groups_per_rank)
        for bank in range(org.banks_per_group)
    ][1:]
    aggressors = [
        mapper.encode(0, 0, 0, 0, row, column)
        for column in range(16)
        for row in (8, 9)
    ]
    rng = random.Random(11)
    entries = []
    for i in range(2_048):
        if i % 2:
            entries.append(
                TraceEntry(
                    gap_instructions=rng.randint(200, 600),
                    address=aggressors[(i // 2) % len(aggressors)],
                    is_write=False,
                )
            )
        else:
            entries.append(
                TraceEntry(
                    gap_instructions=rng.randint(2_500, 7_500),
                    address=rng.choice(hot),
                    is_write=rng.random() < 0.25,
                )
            )
    write_trace(path, entries)


def _built(domain_sizes):
    """The residency builds expected of a run: the stretch executor is
    numpy-only, so without numpy it never engages and nothing is built."""
    return domain_sizes if batch_mod._np is not None else []


@pytest.fixture
def residency_builds(monkeypatch):
    """Domain sizes of the residency bitmaps the stretch executor builds."""
    builds = []
    original = BatchedSimulator._build_residency

    def spy(self, feed):
        builds.append(feed.dom_size)
        return original(self, feed)

    monkeypatch.setattr(BatchedSimulator, "_build_residency", spy)
    return builds


class TestQuiescentFastPath:
    """Scenarios whose heap goes quiescent engage the stretch executor.

    A single budgeted core next to idle cores empties the scheduler heap on
    the first pop; next to a faster budgeted core it does so once that core
    has finished.  The executor is entered only when the remaining budget
    covers the bitmap's build cost -- one entry per domain line plus every
    LLC line -- so each case sizes its budget or its LLC to clear that bar
    and asserts the bitmap was built: these runs spend nearly all their
    requests on the bitmap / vector-mode paths.  The executor is numpy-only;
    without numpy the same runs check parity alone and expect no build.
    """

    def test_single_budgeted_workload_core_matches(self, residency_builds):
        # 453.povray walks 4 MiB (65,536 lines); a 256 KiB LLC adds 4,096.
        plan = (
            CoreAssignment(role="workload", name="453.povray"),
            CoreAssignment(role="idle"),
            CoreAssignment(role="idle"),
            CoreAssignment(role="idle"),
        )
        config = _small_llc(256 * 1024)
        kwargs = dict(
            attack=None, core_plan=plan, requests=70_000, config=config
        )
        assert _run("graphene", "batched", **kwargs) == _run(
            "graphene", "scalar", **kwargs
        )
        assert residency_builds == _built([65_536])

    def test_llc_line_size_sets_the_domain_units(self, residency_builds):
        # The workload's footprint is counted in 64-byte DRAM lines; with
        # 128-byte LLC lines its domain is 32,768 LLC lines at half the base.
        plan = (
            CoreAssignment(role="idle"),
            CoreAssignment(role="workload", name="453.povray"),
            CoreAssignment(role="idle"),
            CoreAssignment(role="idle"),
        )
        config = _small_llc(64 * 1024, line_size_bytes=128)
        kwargs = dict(
            attack=None, core_plan=plan, requests=40_000, config=config
        )
        assert _run("graphene", "batched", **kwargs) == _run(
            "graphene", "scalar", **kwargs
        )
        assert residency_builds == _built([32_768])

    def test_narrow_llc_lines_set_the_domain_units(self, residency_builds):
        # With 32-byte LLC lines the 4,096 DRAM lines of the footprint span
        # 8,191 LLC lines (addresses are DRAM-line aligned, so the last DRAM
        # line contributes only its first half) starting at twice the base.
        plan = (
            CoreAssignment(role="idle"),
            CoreAssignment(role="workload", profile=_COMPACT_PROFILE),
            CoreAssignment(role="idle"),
            CoreAssignment(role="idle"),
        )
        config = _small_llc(64 * 1024, line_size_bytes=32)
        kwargs = dict(
            attack=None, core_plan=plan, requests=12_000, config=config
        )
        assert _run("graphene", "batched", **kwargs) == _run(
            "graphene", "scalar", **kwargs
        )
        assert residency_builds == _built([8_191])

    @pytest.mark.parametrize("tracker", available_trackers())
    def test_tracker_mitigations_match_in_the_stretch_executor(
        self, tracker, tmp_path, residency_builds
    ):
        # Every other request of the executor's run misses and activates a
        # hammered row, so each tracker's counting, mitigation and throttling
        # runs inside the stretch while the bitmap tracks set 0's evictions.
        config = _small_llc(64 * 1024)
        path = tmp_path / "hammer.trace"
        _write_hammer_trace(path, config.dram)
        plan = (
            CoreAssignment(role="trace", trace=str(path)),
            CoreAssignment(role="idle"),
            CoreAssignment(role="idle"),
            CoreAssignment(role="idle"),
        )
        kwargs = dict(
            attack=None, core_plan=plan, requests=20_000, config=config
        )
        result = _run(tracker, "batched", **kwargs)
        assert result == _run(tracker, "scalar", **kwargs)
        # Rows 8 and 9 of bank 0 with columns up to 15: 16,384 + 960 + 1.
        assert residency_builds == _built([17_345])
        stats = result["tracker_stats"]
        assert stats["activations_observed"] >= 10_000
        if tracker != "none":
            assert stats["mitigations_issued"] + stats["throttled_requests"] > 0

    def test_profiling_keeps_the_stretch_executor(
        self, tmp_path, residency_builds
    ):
        # A profiler times the fast paths an unprofiled run takes; it never
        # routes requests through the scalar service path.
        config = _small_llc(64 * 1024)
        path = tmp_path / "hammer.trace"
        _write_hammer_trace(path, config.dram)
        plan = (
            CoreAssignment(role="trace", trace=str(path)),
            CoreAssignment(role="idle"),
            CoreAssignment(role="idle"),
            CoreAssignment(role="idle"),
        )
        kwargs = dict(
            attack=None, core_plan=plan, requests=20_000, config=config
        )
        profiler = PipelineProfiler()
        assert _run(
            "graphene", "batched", profiler=profiler, **kwargs
        ) == _run("graphene", "scalar", **kwargs)
        assert residency_builds == _built([17_345])
        assert {"generation", "drain", "mitigation-scan"} <= set(
            profiler.stage_seconds
        )

    def test_engages_once_the_other_budgeted_core_finishes(
        self, tmp_path, monkeypatch
    ):
        # The compact workload issues ~100x faster than the hot-set trace,
        # so the trace core is left alone early in its budget and builds the
        # bitmap from an LLC the other core has already churned.
        builds = []
        original = BatchedSimulator._build_residency

        def spy(self, feed):
            builds.append((feed.core.core_id, feed.core.requests_issued))
            return original(self, feed)

        monkeypatch.setattr(BatchedSimulator, "_build_residency", spy)
        path = tmp_path / "hot.trace"
        _write_hot_set_trace(path)
        plan = (
            CoreAssignment(role="workload", profile=_COMPACT_PROFILE),
            CoreAssignment(role="trace", trace=str(path)),
            CoreAssignment(role="idle"),
            CoreAssignment(role="idle"),
        )
        kwargs = dict(
            attack=None,
            core_plan=plan,
            requests=4_000,
            config=_small_llc(64 * 1024),
        )
        assert _run("graphene", "batched", **kwargs) == _run(
            "graphene", "scalar", **kwargs
        )
        if batch_mod._np is None:
            assert builds == []
            return
        assert len(builds) == 1
        core_id, issued = builds[0]
        assert core_id == 1
        assert 0 < issued < 4_000 - (256 + 1_024)

    def test_hot_set_trace_vector_mode_matches(
        self, tmp_path, residency_builds
    ):
        # A small hot set with gaps far above the LLC hit latency drives the
        # whole-run vector mode (accumulated issue times, batched LRU
        # updates, heap-tail reconstruction) for essentially every request.
        path = tmp_path / "hot.trace"
        _write_hot_set_trace(path)
        plan = (
            CoreAssignment(role="trace", trace=str(path)),
            CoreAssignment(role="idle"),
            CoreAssignment(role="idle"),
            CoreAssignment(role="idle"),
        )
        kwargs = dict(
            attack=None,
            core_plan=plan,
            requests=20_000,
            config=_small_llc(64 * 1024),
        )
        assert _run("graphene", "batched", **kwargs) == _run(
            "graphene", "scalar", **kwargs
        )
        assert len(residency_builds) == (1 if batch_mod._np is not None else 0)

    def test_short_quiescent_tail_skips_the_bitmap(self, residency_builds):
        # 5,000 requests cannot repay a 65,536 + 131,072-entry build.
        plan = (
            CoreAssignment(role="workload", name="453.povray"),
            CoreAssignment(role="idle"),
        )
        kwargs = dict(attack=None, core_plan=plan, requests=5_000)
        assert _run("graphene", "batched", **kwargs) == _run(
            "graphene", "scalar", **kwargs
        )
        assert residency_builds == []


class TestTraceReplayParity:
    def _write_povray_trace(self, tmp_path, entries=2_000):
        recorded = record_workload_trace(
            "453.povray", entries, config=reduced_row_config(nrh=500)
        )
        path = tmp_path / "povray.trace"
        write_trace(path, recorded, header="453.povray excerpt")
        return path, recorded

    def test_trace_file_round_trips(self, tmp_path):
        path, recorded = self._write_povray_trace(tmp_path)
        assert read_trace(path) == recorded

    def test_batch_and_snapshot_replay_identically(self, tmp_path):
        path, recorded = self._write_povray_trace(tmp_path, entries=300)
        one_by_one = FileTraceGenerator(path)
        batched = FileTraceGenerator(path)
        first = [one_by_one.next_entry() for _ in range(450)]
        gaps, addresses, writes = batched.next_batch(450)
        assert [e.gap_instructions for e in first] == gaps
        assert [e.address for e in first] == addresses
        assert [e.is_write for e in first] == writes
        # A snapshot taken mid-replay restores the exact stream position.
        state = batched.state_snapshot()
        tail = batched.next_batch(100)
        batched.state_restore(state)
        assert batched.next_batch(100) == tail

    def test_trace_replay_family_matches_across_engines(self, tmp_path):
        path, _ = self._write_povray_trace(tmp_path)
        specs = family_by_name("trace-replay").expand(
            {
                "tracker": "graphene",
                "trace": str(path),
                "attack": "refresh",
                "nrh": 500,
                "geometry": "reduced",
            }
        )
        assert len(specs) == 1
        assert _run_spec(specs[0], "batched") == _run_spec(specs[0], "scalar")


class TestExecutionModeParity:
    def _specs(self):
        return [
            ScenarioSpec(
                tracker=tracker,
                workload="453.povray",
                attack="refresh",
                requests_per_core=REQUESTS,
                attack_warmup_activations=ATTACK_WARMUP,
                llc_warmup_accesses=LLC_WARMUP,
                config=reduced_row_config(nrh=500),
            )
            for tracker in ("none", "graphene", "dapper-h")
        ]

    def test_pool_matches_serial(self):
        serial = SweepRunner().run(self._specs())
        pooled = SweepRunner(jobs=2).run(self._specs())
        for a, b in zip(serial, pooled):
            assert _canon(a.result) == _canon(b.result)

    def test_warehouse_replay_matches_fresh(self, tmp_path):
        store = tmp_path / "warehouse.sqlite"
        first = SweepRunner(store=store).run(self._specs())
        replayed = SweepRunner(store=store).run(self._specs())
        fresh = SweepRunner().run(self._specs())
        for a, b, c in zip(first, replayed, fresh):
            assert _canon(a.result) == _canon(b.result) == _canon(c.result)


class TestPurePythonFallbackParity:
    @pytest.mark.parametrize("tracker", ["dapper-h", "dapper-s"])
    def test_dapper_without_numpy_matches(self, tracker, monkeypatch):
        reference = _run(tracker, "batched")
        monkeypatch.setattr(batch_mod, "_np", None)
        monkeypatch.setattr(llbc_mod, "_np", None)
        # The address mapper too: with numpy it decodes to int64 arrays, so
        # the engine's list path would hand numpy rows to the tracker.
        monkeypatch.setattr(address_mod, "_np", None)
        assert _run(tracker, "scalar") == reference
        assert _run(tracker, "batched") == reference


#: Every observational kind of the simulation's event bus.
_KINDS = (
    events_mod.RequestComplete,
    events_mod.BankActivate,
    events_mod.Throttle,
    events_mod.CounterTraffic,
    events_mod.MitigativeRefresh,
    events_mod.GroupRefresh,
    events_mod.ResetBlackout,
    events_mod.RefreshWindow,
    events_mod.TrackerInsert,
    events_mod.TrackerEvict,
    events_mod.RunEnd,
)


class _EventLog:
    """Observer recording every event of every kind, in emission order."""

    def __init__(self):
        self.events = []

    def attach(self, simulator):
        for kind in _KINDS:
            simulator.events.subscribe(kind, self.events.append)

    def count(self, kind) -> int:
        return sum(type(event) is kind for event in self.events)


def _observed_spec_run(spec, engine):
    log = _EventLog()
    return _run_spec(spec, engine, (log,)), log


class TestEventBusObservation:
    """Subscribers observe the run without perturbing it."""

    #: (tracker, attack, kinds the case must emit) on the 2-window spec.
    CASES = {
        "graphene/row-streaming": (
            "graphene",
            "row-streaming",
            (events_mod.TrackerInsert, events_mod.TrackerEvict),
        ),
        "graphene/refresh": (
            "graphene", "refresh", (events_mod.MitigativeRefresh,)
        ),
        "blockhammer/refresh": (
            "blockhammer", "refresh", (events_mod.Throttle,)
        ),
        "hydra/rcc-conflict": (
            "hydra", "rcc-conflict", (events_mod.CounterTraffic,)
        ),
        "dapper-s/refresh": (
            "dapper-s", "refresh", (events_mod.GroupRefresh,)
        ),
        "abacus/id-streaming": (
            "abacus", "id-streaming", (events_mod.ResetBlackout,)
        ),
    }

    def _spec(self, tracker, attack):
        return family_by_name("multi-refresh-window").expand(
            {
                "tracker": tracker,
                "workload": "453.povray",
                "attack": attack,
                "windows": 2,
                "trefw_scale": 1.0 / 256.0,
                "geometry": "reduced",
                "nrh": 500,
            }
        )[0]

    @pytest.fixture(scope="class")
    def scalar_side(self):
        """Per case, the unobserved reference result and the scalar event
        log, kept from the scalar instance for the batched one (next)."""
        return {}

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_subscribers_preserve_results_and_count_consistently(
        self, case, engine, scalar_side
    ):
        tracker, attack, emitted = self.CASES[case]
        spec = self._spec(tracker, attack)
        # The unobserved fast engine is the reference: the suite above pins
        # it to the unobserved scalar engine.
        reference, scalar_events = scalar_side.pop(case, (None, None))
        if reference is None:
            reference = _run_spec(spec, "batched")
        observed, log = _observed_spec_run(spec, engine)

        # Observation is free of side effects on the simulation itself.
        assert observed == reference

        # Both engines emit one event stream.
        if engine == "scalar":
            scalar_side[case] = (reference, log.events)
        else:
            if scalar_events is None:
                scalar_events = _observed_spec_run(spec, "scalar")[1].events
            assert log.events == scalar_events

        for kind in emitted:
            assert log.count(kind) > 0, kind.__name__
        stats = observed["controller_stats"]
        counter_traffic = [
            e for e in log.events if type(e) is events_mod.CounterTraffic
        ]
        assert log.count(events_mod.RequestComplete) == sum(
            core["requests"] for core in observed["core_results"]
        )
        assert log.count(events_mod.RefreshWindow) == stats["refresh_windows"]
        assert stats["refresh_windows"] >= 2
        assert (
            log.count(events_mod.MitigativeRefresh)
            == stats["mitigation_refreshes"]
        )
        assert log.count(events_mod.GroupRefresh) == stats["group_mitigations"]
        assert (
            log.count(events_mod.ResetBlackout)
            == stats["structure_reset_blackouts"]
        )
        assert (
            sum(e.reads + e.writes for e in counter_traffic)
            == stats["tracker_counter_accesses"]
        )
        assert log.count(events_mod.RunEnd) == 1
        assert log.events[-1] == events_mod.RunEnd(observed["elapsed_ns"])

    def test_subscriber_keeps_a_quiescent_run_off_the_stretch_executor(
        self, tmp_path, residency_builds
    ):
        from repro.sim.experiment import build_core_specs_from_plan
        from repro.trackers.registry import create_tracker

        config = _small_llc(64 * 1024)
        path = tmp_path / "hammer.trace"
        _write_hammer_trace(path, config.dram)
        plan = (
            CoreAssignment(role="trace", trace=str(path)),
            CoreAssignment(role="idle"),
            CoreAssignment(role="idle"),
            CoreAssignment(role="idle"),
        )
        kwargs = dict(
            attack=None, core_plan=plan, requests=20_000, config=config
        )
        reference = _run("graphene", "scalar", **kwargs)
        # Unobserved, the run engages the executor on its first pop.
        assert _run("graphene", "batched", **kwargs) == reference
        assert residency_builds == _built([17_345])

        simulator = BatchedSimulator(
            config,
            create_tracker("graphene", config),
            build_core_specs_from_plan(config, plan, 20_000, config.seed),
            llc_warmup_accesses=LLC_WARMUP,
        )
        completed = []
        simulator.events.subscribe(events_mod.RequestComplete, completed.append)
        observed = _canon(simulator.run())

        # A per-request subscriber routes every request through the scalar
        # service path, which the stretch executor would bypass.
        assert observed == reference
        assert residency_builds == _built([17_345])
        assert len(completed) == 20_000
        assert sum(e.llc == "miss" for e in completed) == (
            observed["controller_stats"]["requests"]
        )

    def test_unsubscribed_bus_emits_nothing(self):
        from repro.sim.events.events import EventBus, RefreshWindow

        bus = EventBus()
        assert not bus.has_subscribers
        assert not bus.wants(RefreshWindow)
        seen = []
        handler = seen.append
        bus.subscribe(RefreshWindow, handler)
        bus.emit(RefreshWindow(0.0, 1))
        bus.unsubscribe(RefreshWindow, handler)
        bus.emit(RefreshWindow(1.0, 2))
        assert len(seen) == 1
        assert not bus.has_subscribers
