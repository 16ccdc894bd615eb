"""Tests for trace-file reading, writing, recording and replay."""

import pytest
from hypothesis import given, settings, strategies as st

import repro.cpu.tracefile as tracefile_mod
from repro.config import baseline_config, reduced_row_config
from repro.cpu.trace import TraceEntry, WorkloadTraceGenerator
from repro.cpu.tracefile import (
    FileTraceGenerator,
    TraceFormatError,
    read_trace,
    record_trace,
    record_workload_trace,
    write_trace,
)
from repro.cpu.workloads import get_workload
from repro.dram.address import AddressMapper
from repro.sim.simulator import CoreSpec, Simulator


@pytest.fixture
def config():
    return baseline_config()


@pytest.fixture
def sample_entries():
    return [
        TraceEntry(gap_instructions=10, address=0x1000, is_write=False),
        TraceEntry(gap_instructions=3, address=0x2040, is_write=True),
        TraceEntry(gap_instructions=250, address=0xDEADBEEF, is_write=False),
    ]


class TestTraceFileRoundTrip:
    def test_write_then_read_preserves_every_entry(self, tmp_path, sample_entries):
        path = tmp_path / "sample.trace"
        written = write_trace(path, sample_entries)
        assert written == len(sample_entries)
        assert read_trace(path) == sample_entries

    def test_header_comment_is_ignored_on_read(self, tmp_path, sample_entries):
        path = tmp_path / "sample.trace"
        write_trace(path, sample_entries, header="recorded for tests\nsecond line")
        text = path.read_text()
        assert text.startswith("# recorded for tests")
        assert read_trace(path) == sample_entries

    def test_blank_lines_and_comments_are_skipped(self, tmp_path):
        path = tmp_path / "hand_written.trace"
        path.write_text(
            "\n"
            "# a hand-written trace\n"
            "5 0x40 R\n"
            "\n"
            "7 64 W\n"          # decimal addresses are accepted too
        )
        entries = read_trace(path)
        assert entries == [
            TraceEntry(5, 0x40, False),
            TraceEntry(7, 64, True),
        ]

    @pytest.mark.parametrize(
        "bad_line",
        [
            "5 0x40",                  # missing access kind
            "5 0x40 R extra",          # too many fields
            "x 0x40 R",                # non-integer gap
            "5 zz R",                  # non-integer address
            "-1 0x40 R",               # negative gap
            "5 0x40 Q",                # unknown kind
        ],
    )
    def test_malformed_lines_are_rejected_with_line_numbers(self, tmp_path, bad_line):
        path = tmp_path / "bad.trace"
        path.write_text("1 0x0 R\n" + bad_line + "\n")
        with pytest.raises(TraceFormatError, match="line 2"):
            read_trace(path)


class TestFileTraceGenerator:
    def test_replays_in_order(self, sample_entries):
        generator = FileTraceGenerator(sample_entries)
        assert [generator.next_entry() for _ in range(3)] == sample_entries

    def test_loops_by_default_and_counts_replays(self, sample_entries):
        generator = FileTraceGenerator(sample_entries)
        for _ in range(7):
            generator.next_entry()
        assert generator.replays == 2
        assert generator.next_entry() == sample_entries[1]

    def test_non_looping_generator_stops(self, sample_entries):
        generator = FileTraceGenerator(sample_entries, loop=False)
        for _ in range(3):
            generator.next_entry()
        with pytest.raises(StopIteration):
            generator.next_entry()

    def test_loads_directly_from_a_path(self, tmp_path, sample_entries):
        path = tmp_path / "sample.trace"
        write_trace(path, sample_entries)
        generator = FileTraceGenerator(path)
        assert len(generator) == 3
        assert generator.next_entry() == sample_entries[0]

    def test_empty_trace_is_rejected(self):
        with pytest.raises(ValueError):
            FileTraceGenerator([])

    def test_llc_bypass_flag_is_configurable(self, sample_entries):
        assert FileTraceGenerator(sample_entries).bypasses_llc is False
        assert FileTraceGenerator(sample_entries, bypasses_llc=True).bypasses_llc


@pytest.mark.skipif(tracefile_mod._np is None, reason="needs numpy")
class TestArrayHook:
    """``next_arrays`` is ``next_batch`` as numpy arrays over one cursor."""

    @given(
        length=st.integers(min_value=1, max_value=40),
        counts=st.lists(st.integers(min_value=0, max_value=100), max_size=12),
        loop=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_next_batch(self, length, counts, loop, seed):
        np = tracefile_mod._np
        rng = np.random.default_rng(seed)
        entries = [
            TraceEntry(int(gap), int(address), bool(write))
            for gap, address, write in zip(
                rng.integers(0, 10_000, length),
                rng.integers(0, 1 << 34, length),
                rng.random(length) < 0.3,
            )
        ]
        lists = FileTraceGenerator(entries, loop=loop)
        arrays = FileTraceGenerator(entries, loop=loop)
        for count in counts:
            try:
                expected = lists.next_batch(count)
            except StopIteration:
                with pytest.raises(StopIteration):
                    arrays.next_arrays(count)
                assert arrays._cursor == lists._cursor
                assert arrays.replays == lists.replays
                return
            got = arrays.next_arrays(count)
            assert [a.dtype for a in got] == [np.int64, np.int64, np.bool_]
            assert tuple(a.tolist() for a in got) == expected
            assert arrays._cursor == lists._cursor
            assert arrays.replays == lists.replays


class TestRecording:
    def test_record_trace_pulls_the_requested_number(self, config):
        profile = get_workload("429.mcf")
        generator = WorkloadTraceGenerator(
            profile, config.dram, AddressMapper(config.dram), core_id=0, seed=1
        )
        entries = record_trace(generator, 100)
        assert len(entries) == 100
        assert all(isinstance(entry, TraceEntry) for entry in entries)

    def test_record_trace_rejects_non_positive_counts(self, config):
        profile = get_workload("429.mcf")
        generator = WorkloadTraceGenerator(
            profile, config.dram, AddressMapper(config.dram), core_id=0, seed=1
        )
        with pytest.raises(ValueError):
            record_trace(generator, 0)

    def test_record_workload_trace_is_deterministic(self, config):
        one = record_workload_trace("429.mcf", 50, config=config)
        two = record_workload_trace("429.mcf", 50, config=config)
        assert one == two

    def test_record_workload_trace_respects_seed(self, config):
        one = record_workload_trace("429.mcf", 50, config=config, seed=1)
        two = record_workload_trace("429.mcf", 50, config=config, seed=2)
        assert one != two

    def test_recorded_addresses_fit_the_address_space(self, config):
        mapper = AddressMapper(config.dram)
        entries = record_workload_trace("510.parest", 200, config=config)
        for entry in entries:
            assert 0 <= entry.address < (1 << mapper.address_bits)


class TestReplayThroughTheSimulator:
    def test_recorded_and_replayed_streams_give_identical_results(self, tmp_path):
        """Freezing a synthetic workload to a file must not change the simulation."""
        config = reduced_row_config(rows_per_bank=2048)
        budget = 400
        entries = record_workload_trace("429.mcf", budget, config=config)
        path = tmp_path / "mcf.trace"
        write_trace(path, entries)

        def run(generator):
            simulator = Simulator(
                config,
                "dapper-h",
                [CoreSpec(generator=generator, request_budget=budget)],
            )
            return simulator.run()

        live = run(
            WorkloadTraceGenerator(
                get_workload("429.mcf"),
                config.dram,
                AddressMapper(config.dram),
                core_id=0,
                seed=config.seed,
            )
        )
        replayed = run(FileTraceGenerator(path))

        assert replayed.core_results[0].ipc == pytest.approx(
            live.core_results[0].ipc
        )
        assert replayed.dram_stats.activations == live.dram_stats.activations
