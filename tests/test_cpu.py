"""Tests for workload profiles, trace generation and the core model."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

import repro.cpu.trace as trace_mod
from repro.config import CoreConfig, DRAMOrganization
from repro.cpu.core import CoreModel
from repro.cpu.trace import TraceEntry, WorkloadTraceGenerator
from repro.cpu.workloads import (
    ALL_WORKLOADS,
    SUITES,
    get_workload,
    memory_intensive_workloads,
    suite_counts,
    workloads_in_suite,
)
from repro.dram.address import AddressMapper


class TestWorkloadCatalogue:
    def test_total_count_is_57(self):
        assert len(ALL_WORKLOADS) == 57

    def test_suite_counts_match_paper(self):
        counts = suite_counts()
        assert counts == {
            "SPEC2K6": 23,
            "SPEC2K17": 18,
            "TPC": 4,
            "Hadoop": 3,
            "MediaBench": 3,
            "YCSB": 6,
        }

    def test_names_are_unique(self):
        names = [profile.name for profile in ALL_WORKLOADS]
        assert len(names) == len(set(names))

    def test_get_workload(self):
        assert get_workload("429.mcf").suite == "SPEC2K6"
        with pytest.raises(KeyError):
            get_workload("no-such-workload")

    def test_workloads_in_suite(self):
        for suite in SUITES:
            assert all(p.suite == suite for p in workloads_in_suite(suite))
        with pytest.raises(ValueError):
            workloads_in_suite("SPEC2030")

    def test_memory_intensive_set_contains_known_heavy_hitters(self):
        names = {profile.name for profile in memory_intensive_workloads()}
        assert "429.mcf" in names
        assert "510.parest" in names
        assert "453.povray" not in names

    def test_profiles_are_physically_plausible(self):
        for profile in ALL_WORKLOADS:
            assert profile.apki > 0
            assert 0.0 <= profile.row_locality <= 1.0
            assert 0.0 <= profile.write_fraction <= 1.0
            assert profile.footprint_bytes > 0


class TestTraceGenerator:
    def _generator(self, name="429.mcf", core_id=0, seed=1):
        org = DRAMOrganization()
        return WorkloadTraceGenerator(
            get_workload(name), org, AddressMapper(org), core_id, seed
        )

    def test_entries_are_well_formed(self):
        gen = self._generator()
        for _ in range(500):
            entry = gen.next_entry()
            assert isinstance(entry, TraceEntry)
            assert entry.gap_instructions >= 1
            assert entry.address >= 0

    def test_deterministic_given_seed(self):
        a = self._generator(seed=9)
        b = self._generator(seed=9)
        assert [a.next_entry() for _ in range(100)] == [
            b.next_entry() for _ in range(100)
        ]

    def test_different_cores_use_disjoint_regions(self):
        a = self._generator(core_id=0)
        b = self._generator(core_id=1)
        a_addresses = {a.next_entry().address for _ in range(2000)}
        b_addresses = {b.next_entry().address for _ in range(2000)}
        assert not (a_addresses & b_addresses)

    def test_mean_gap_tracks_apki(self):
        gen = self._generator("470.lbm")          # APKI 33 -> ~30 instructions
        gaps = [gen.next_entry().gap_instructions for _ in range(3000)]
        mean = sum(gaps) / len(gaps)
        assert 15 < mean < 60

    def test_write_fraction_roughly_respected(self):
        gen = self._generator("470.lbm")          # 45% writes
        writes = sum(gen.next_entry().is_write for _ in range(4000))
        assert 0.3 < writes / 4000 < 0.6

    def test_high_locality_workload_produces_sequential_runs(self):
        gen = self._generator("462.libquantum")   # locality 0.92
        line = 64
        sequential = 0
        previous = gen.next_entry().address
        for _ in range(2000):
            entry = gen.next_entry()
            if entry.address == previous + line:
                sequential += 1
            previous = entry.address
        assert sequential > 1000

    def test_zero_apki_rejected(self):
        org = DRAMOrganization()
        broken = dataclasses.replace(get_workload("429.mcf"), apki=0.0)
        with pytest.raises(ValueError):
            WorkloadTraceGenerator(broken, org, AddressMapper(org), 0, 1)


_LBM = get_workload("470.lbm")

#: Every catalogued profile plus the edges of the run logic: no sequential
#: runs, runs always a whole row, no hot region, and a footprint shorter
#: than one DRAM row (128 lines), so a run wraps around it more than once.
_PARITY_PROFILES = ALL_WORKLOADS + (
    dataclasses.replace(_LBM, name="no-locality", row_locality=0.0),
    dataclasses.replace(_LBM, name="full-locality", row_locality=1.0),
    dataclasses.replace(_LBM, name="no-reuse", reuse_fraction=0.0),
    dataclasses.replace(
        _LBM, name="sub-row-footprint", row_locality=1.0,
        footprint_bytes=40 * 64, hot_bytes=8 * 64,
    ),
    dataclasses.replace(
        _LBM, name="sub-row-varied-runs", row_locality=0.97,
        footprint_bytes=40 * 64,
    ),
)

#: Block sizes in call order: one entry, a whole engine block, and small
#: odd counts that end blocks inside sequential runs.
_PARITY_COUNTS = (1, 4096, 3, 7, 2, 11, 1, 250, 5, 4096, 13)


class TestBlockGeneration:
    """``next_batch`` and ``next_arrays`` are ``count`` calls of
    ``next_entry``: same entries, same generator and RNG state after."""

    @staticmethod
    def _generator(profile, core_id=1, seed=0xDA99E2):
        org = DRAMOrganization()
        return WorkloadTraceGenerator(
            profile, org, AddressMapper(org), core_id, seed
        )

    @pytest.mark.parametrize("use_numpy", [True, False], ids=["numpy", "no-numpy"])
    @pytest.mark.parametrize(
        "profile", _PARITY_PROFILES, ids=lambda profile: profile.name
    )
    def test_blocks_match_next_entry(self, profile, use_numpy, request):
        if not use_numpy:
            request.getfixturevalue("no_numpy")
        elif trace_mod._np is None:
            pytest.skip("numpy is not installed")
        reference = self._generator(profile)
        batched = self._generator(profile)
        arrayed = self._generator(profile) if use_numpy else None
        stopped_mid_run = False
        for count in _PARITY_COUNTS:
            expected = [reference.next_entry() for _ in range(count)]
            columns = (
                [e.gap_instructions for e in expected],
                [e.address for e in expected],
                [e.is_write for e in expected],
            )
            assert batched.next_batch(count) == columns
            if arrayed is not None:
                arrays = arrayed.next_arrays(count)
                assert [a.dtype.name for a in arrays] == ["int64", "int64", "bool"]
                assert tuple(a.tolist() for a in arrays) == columns
            stopped_mid_run |= reference._run_remaining > 0
            # The next entry reads the cursor and the RNG left behind.
            follow = reference.next_entry()
            assert batched.next_entry() == follow
            if arrayed is not None:
                assert arrayed.next_entry() == follow
        assert stopped_mid_run == (profile.row_locality > 0.0)

    @pytest.mark.parametrize("use_numpy", [True, False], ids=["numpy", "no-numpy"])
    def test_zero_count_leaves_a_fresh_generator_alone(self, use_numpy, request):
        if not use_numpy:
            request.getfixturevalue("no_numpy")
        elif trace_mod._np is None:
            pytest.skip("numpy is not installed")
        profile = get_workload("429.mcf")
        generator = self._generator(profile)
        before = generator.state_fingerprint()
        assert generator.next_batch(0) == ([], [], [])
        if use_numpy:
            arrays = generator.next_arrays(0)
            assert [a.dtype.name for a in arrays] == ["int64", "int64", "bool"]
            assert [a.shape for a in arrays] == [(0,)] * 3
        assert generator.state_fingerprint() == before
        twin = self._generator(profile)
        assert [generator.next_entry() for _ in range(20)] == [
            twin.next_entry() for _ in range(20)
        ]

    def test_batch_and_snapshot_replay_identically(self):
        generator = self._generator(get_workload("hadoop-sort"))
        one_by_one = self._generator(get_workload("hadoop-sort"))
        first = [one_by_one.next_entry() for _ in range(450)]
        gaps, addresses, writes = generator.next_batch(450)
        assert [e.gap_instructions for e in first] == gaps
        assert [e.address for e in first] == addresses
        assert [e.is_write for e in first] == writes
        # A snapshot taken mid-stream restores the exact stream position,
        # also after the generator has run on from it.
        state = generator.state_snapshot()
        tail = generator.next_batch(100)
        generator.next_batch(5_000)
        generator.state_restore(state)
        assert generator.next_batch(100) == tail
        generator.state_restore(state)
        assert [generator.next_entry() for _ in range(100)] == [
            one_by_one.next_entry() for _ in range(100)
        ]


class TestCoreModel:
    def _core(self, mlp=4, gap=10.0, budget=None):
        config = CoreConfig(max_outstanding_misses=mlp)

        class _Gen:
            bypasses_llc = False

            def next_entry(self):  # pragma: no cover - unused
                raise NotImplementedError

        return CoreModel(0, config, _Gen(), budget, mean_gap_instructions=gap)

    def test_effective_mlp_limited_by_rob(self):
        core = self._core(mlp=8, gap=100.0)       # 128-entry ROB / 100 = 1
        assert core.effective_mlp == 1
        core = self._core(mlp=8, gap=1.0)
        assert core.effective_mlp == 8

    def test_issue_time_advances_with_compute_gap(self):
        core = self._core(gap=16.0)
        entry = TraceEntry(gap_instructions=160, address=0, is_write=False)
        issue = core.begin_request(entry)
        assert issue == pytest.approx(160 / core.config.peak_instructions_per_ns)

    def test_mlp_limit_stalls_the_core(self):
        core = self._core(mlp=2, gap=1.0)
        entry = TraceEntry(gap_instructions=1, address=0, is_write=False)
        core.begin_request(entry)
        core.complete_read(1000.0)
        core.begin_request(entry)
        core.complete_read(2000.0)
        issue = core.begin_request(entry)          # both slots full
        assert issue >= 1000.0

    def test_ipc_reflects_memory_latency(self):
        fast = self._core(mlp=4, gap=10.0, budget=100)
        slow = self._core(mlp=4, gap=10.0, budget=100)
        entry = TraceEntry(gap_instructions=10, address=0, is_write=False)
        for core, latency in ((fast, 20.0), (slow, 500.0)):
            for _ in range(100):
                issue = core.begin_request(entry)
                core.complete_read(issue + latency)
            core.note_progress()
        assert fast.result().ipc > slow.result().ipc

    def test_budget_freezes_statistics(self):
        core = self._core(budget=3)
        entry = TraceEntry(gap_instructions=10, address=0, is_write=False)
        for _ in range(3):
            core.begin_request(entry)
        core.note_progress()
        frozen = core.result().instructions
        core.begin_request(entry)
        assert core.result().instructions == frozen

    def test_writes_do_not_occupy_slots(self):
        core = self._core(mlp=1, gap=1.0)
        entry = TraceEntry(gap_instructions=1, address=0, is_write=True)
        first = core.begin_request(entry)
        second = core.begin_request(entry)
        assert second - first < 1.0

    @settings(max_examples=30, deadline=None)
    @given(latency=st.floats(min_value=10.0, max_value=1000.0))
    def test_ipc_monotone_in_latency(self, latency):
        base = self._core(mlp=2, gap=10.0, budget=50)
        worse = self._core(mlp=2, gap=10.0, budget=50)
        entry = TraceEntry(gap_instructions=10, address=0, is_write=False)
        for core, lat in ((base, latency), (worse, latency * 2)):
            for _ in range(50):
                issue = core.begin_request(entry)
                core.complete_read(issue + lat)
            core.note_progress()
        assert base.result().ipc >= worse.result().ipc
