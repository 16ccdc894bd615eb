"""Cross-module property-based tests (hypothesis).

The per-module test files already check the targeted properties of each data
structure; this module checks *system-level* invariants that must hold for
arbitrary request streams:

* DRAM timing never goes backwards and never starts a request before it was
  issued;
* the memory controller keeps every tracker's statistics consistent with the
  stream it serviced;
* the DAPPER trackers never let a hammered row's true activation count cross
  the RowHammer threshold, whatever the (randomised) hammering pattern;
* the BreakHammer shim is observationally transparent: it forwards the inner
  tracker's responses unchanged;
* the paced probabilistic trackers (PrIDE, MINT) issue exactly one mitigation
  per pacing window per bank.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis.security import GroundTruthAuditor
from repro.cache.llc import SharedLLC
from repro.config import baseline_config, reduced_row_config
from repro.dram.address import AddressMapper, BankAddress, RowAddress
from repro.dram.dram_system import DRAMSystem
from repro.mc.controller import MemoryController
from repro.trackers.mint import MintTracker
from repro.trackers.pride import PrideTracker
from repro.trackers.registry import create_tracker
from repro.trackers.throttling import BreakHammerShim


def _config():
    return baseline_config(nrh=500)


def _small_config(nrh=200):
    return reduced_row_config(nrh=nrh, rows_per_bank=512)


def _access(dram, decoded, is_write, earliest_ns):
    """``(start_ns, completion_ns, activated, row_hit)`` of ``decoded``."""
    return dram.access_flat(
        decoded.bank_address.flat(dram.org),
        decoded.channel * dram.org.ranks_per_channel + decoded.rank,
        decoded.channel,
        decoded.row,
        is_write,
        earliest_ns,
    )


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #

def _coordinate_strategy(org):
    return st.tuples(
        st.integers(0, org.channels - 1),
        st.integers(0, org.ranks_per_channel - 1),
        st.integers(0, org.bank_groups_per_rank - 1),
        st.integers(0, org.banks_per_group - 1),
        st.integers(0, org.rows_per_bank - 1),
    )


def _row_address(coords) -> RowAddress:
    channel, rank, bank_group, bank, row = coords
    return RowAddress(BankAddress(channel, rank, bank_group, bank), row)


# --------------------------------------------------------------------------- #
# DRAM timing invariants
# --------------------------------------------------------------------------- #

class TestDRAMTimingProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 1),          # channel
                st.integers(0, 1),          # rank
                st.integers(0, 7),          # bank group
                st.integers(0, 3),          # bank
                st.integers(0, 1000),       # row
                st.booleans(),              # is_write
                st.floats(0.0, 200.0),      # issue gap in ns
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_completions_never_precede_issue_and_stats_add_up(self, requests):
        config = _config()
        dram = DRAMSystem(config)
        mapper = AddressMapper(config.dram)
        now = 0.0
        reads = writes = 0
        for channel, rank, bank_group, bank, row, is_write, gap in requests:
            now += gap
            address = mapper.encode(channel, rank, bank_group, bank, row)
            start, completion, _, _ = _access(
                dram, mapper.decode(address), is_write, now
            )
            assert start >= now
            assert completion >= start
            reads += not is_write
            writes += is_write
        assert dram.stats.reads == reads
        assert dram.stats.writes == writes
        assert (
            dram.stats.row_hits + dram.stats.row_misses + dram.stats.row_conflicts
            == len(requests)
        )

    @given(
        st.lists(st.integers(0, 63), min_size=2, max_size=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_bank_activations_are_serialised_by_trc(self, rows):
        """Back-to-back activations of one bank complete at least tRC apart."""
        config = _config()
        dram = DRAMSystem(config)
        mapper = AddressMapper(config.dram)
        last_activation_completion = None
        now = 0.0
        for row in rows:
            _, completion, activated, _ = _access(
                dram, mapper.decode(mapper.encode(0, 0, 0, 0, row)), False, now
            )
            if activated:
                if last_activation_completion is not None:
                    assert (
                        completion - last_activation_completion
                        >= config.timings.trc_ns - 1e-6
                    )
                last_activation_completion = completion
            now = completion


# --------------------------------------------------------------------------- #
# Memory-controller invariants
# --------------------------------------------------------------------------- #

class TestControllerProperties:
    @given(
        st.sampled_from(["dapper-h", "dapper-s", "graphene", "para", "none"]),
        st.lists(
            st.tuples(
                st.integers(0, 511),        # row
                st.integers(0, 7),          # rank-local bank
                st.booleans(),              # is_write
            ),
            min_size=1,
            max_size=120,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_time_is_monotonic_and_request_stats_match(self, tracker_name, stream):
        config = _small_config()
        mapper = AddressMapper(config.dram)
        tracker = create_tracker(tracker_name, config)
        controller = MemoryController(config, DRAMSystem(config), tracker, mapper)
        now = 0.0
        for row, bank_local, is_write in stream:
            bank_group = bank_local // config.dram.banks_per_group
            bank = bank_local % config.dram.banks_per_group
            address = mapper.encode(0, 0, bank_group, bank, row)
            completed = controller.service(address, is_write, now, core_id=0)
            assert completed >= now
            now = completed
        assert controller.stats.requests == len(stream)
        assert (
            controller.stats.read_requests + controller.stats.write_requests
            == len(stream)
        )
        assert tracker.stats.activations_observed <= len(stream)


# --------------------------------------------------------------------------- #
# DAPPER security invariant under randomised hammering
# --------------------------------------------------------------------------- #

class TestDapperSecurityProperty:
    @given(
        st.sampled_from(["dapper-h", "dapper-s"]),
        st.lists(st.integers(0, 15), min_size=1, max_size=4),   # hammered rows
        st.integers(0, 3),                                       # banks used
        st.integers(0, 2**31 - 1),                               # pattern seed
    )
    @settings(max_examples=15, deadline=None)
    def test_no_row_crosses_the_threshold(self, tracker_name, rows, banks, seed):
        """Randomised hammering never drives a row past NRH under DAPPER."""
        config = _small_config(nrh=200)
        mapper = AddressMapper(config.dram)
        tracker = create_tracker(tracker_name, config)
        auditor = GroundTruthAuditor(config)
        controller = MemoryController(
            config, DRAMSystem(config), tracker, mapper, auditor=auditor
        )
        import random

        rng = random.Random(seed)
        hammer_targets = [
            (row * 17 % config.dram.rows_per_bank, bank)
            for row in rows
            for bank in range(banks + 1)
        ]
        now = 0.0
        for _ in range(4_000):
            row, bank_local = rng.choice(hammer_targets)
            bank_group = bank_local // config.dram.banks_per_group
            bank = bank_local % config.dram.banks_per_group
            address = mapper.encode(0, 0, bank_group, bank, row)
            now = controller.service(address, False, now, core_id=0)
        report = auditor.report()
        assert report.is_secure, (
            f"{tracker_name} allowed count {report.max_count} > {report.nrh}"
        )


# --------------------------------------------------------------------------- #
# BreakHammer shim transparency
# --------------------------------------------------------------------------- #

class TestBreakHammerTransparency:
    @given(
        st.lists(
            st.tuples(st.integers(0, 255), st.integers(0, 7)),
            min_size=1,
            max_size=400,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_responses_match_the_inner_tracker(self, stream):
        config = _small_config()
        bare = create_tracker("dapper-h", config)
        shimmed = BreakHammerShim(config, create_tracker("dapper-h", config))
        for row, bank_local in stream:
            bank_group = bank_local // config.dram.banks_per_group
            bank = bank_local % config.dram.banks_per_group
            addr = RowAddress(BankAddress(0, 0, bank_group, bank), row)
            shimmed.note_request_source(0)
            assert bare.on_activation(addr, 0.0) == shimmed.on_activation(addr, 0.0)


# --------------------------------------------------------------------------- #
# Pacing invariants of the sampled probabilistic trackers
# --------------------------------------------------------------------------- #

class TestPacingProperties:
    @given(
        st.sampled_from([MintTracker, PrideTracker]),
        st.lists(st.integers(0, 31), min_size=1, max_size=600),
    )
    @settings(max_examples=30, deadline=None)
    def test_one_mitigation_per_window_per_bank(self, tracker_cls, rows):
        config = _config()
        tracker = tracker_cls(config)
        per_bank = {}
        mitigations = 0
        for row in rows:
            bank_local = row % 8
            bank_group = bank_local // config.dram.banks_per_group
            bank = bank_local % config.dram.banks_per_group
            addr = RowAddress(BankAddress(0, 0, bank_group, bank), row)
            flat = addr.bank.flat(config.dram)
            per_bank[flat] = per_bank.get(flat, 0) + 1
            mitigations += len(tracker.on_activation(addr, 0.0).mitigations)
        expected = sum(
            count // tracker.activations_per_mitigation
            for count in per_bank.values()
        )
        assert mitigations == expected


# --------------------------------------------------------------------------- #
# Shared LLC invariants
# --------------------------------------------------------------------------- #

class TestLLCProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 2**20 - 1), st.booleans(), st.integers(0, 3)),
            min_size=1,
            max_size=400,
        ),
        st.integers(0, 8),
    )
    @settings(max_examples=30, deadline=None)
    def test_occupancy_and_stats_stay_consistent(self, accesses, reserved_ways):
        config = _config()
        llc = SharedLLC(config.llc)
        if reserved_ways:
            llc.reserve_ways(reserved_ways)
        for address, is_write, core in accesses:
            result = llc.access(address * 64, is_write, core_id=core)
            assert result.hit in (True, False)
        assert llc.stats.accesses == len(accesses)
        assert 0.0 <= llc.occupancy() <= 1.0
        assert llc.data_ways == config.llc.ways - reserved_ways
