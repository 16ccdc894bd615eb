"""Interface invariants every registered tracker must satisfy.

These tests are parametrised over the whole registry, so any tracker added in
the future is automatically held to the same contract the memory controller
relies on: responses reference valid DRAM coordinates, storage reports do not
drift with runtime state, periodic resets actually reset, and statistics stay
consistent with the activation stream.
"""

import dataclasses
import hashlib

import pytest

from repro.attacks import attack_by_name
from repro.config import baseline_config
from repro.dram.address import AddressMapper, BankAddress, RowAddress
from repro.dram.commands import MitigationScope
from repro.scenarios.families import full_geometry_config
from repro.sim.experiment import _warmup_rows
from repro.trackers.registry import available_trackers, create_tracker

#: Trackers whose mitigation decisions are deterministic functions of the
#: activation stream (no sampling), used for the reset-behaviour checks.
DETERMINISTIC = (
    "hydra",
    "start",
    "comet",
    "abacus",
    "graphene",
    "prac",
    "dapper-s",
    "dapper-h",
)

ALL_TRACKERS = available_trackers() + ("breakhammer:dapper-h",)


def _row(row=1000, bank=0, bank_group=0, rank=0, channel=0):
    return RowAddress(BankAddress(channel, rank, bank_group, bank), row)


@pytest.fixture(scope="module")
def config():
    return baseline_config(nrh=500)


def _drive(tracker, rows, repeats, now_step=10.0):
    """Activate ``rows`` round-robin ``repeats`` times and collect responses."""
    responses = []
    now = 0.0
    for _ in range(repeats):
        for row in rows:
            responses.append(tracker.on_activation(row, now))
            now += now_step
    return responses


@pytest.mark.parametrize("name", ALL_TRACKERS)
class TestResponseValidity:
    def test_responses_reference_valid_dram_coordinates(self, config, name):
        tracker = create_tracker(name, config)
        org = config.dram
        rows = [_row(row=i * 37 % 5000, bank=i % 4, rank=i % 2) for i in range(32)]
        for response in _drive(tracker, rows, repeats=40):
            assert response.counter_reads >= 0
            assert response.counter_writes >= 0
            for target in response.mitigations:
                assert 0 <= target.row < org.rows_per_bank
                assert 0 <= target.bank.channel < org.channels
                assert 0 <= target.bank.rank < org.ranks_per_channel
                assert 0 <= target.bank.bank_group < org.bank_groups_per_rank
                assert 0 <= target.bank.bank < org.banks_per_group
            for blackout in response.blackouts:
                assert blackout.scope in MitigationScope
                assert blackout.duration_ns >= 0.0
            for group in response.group_mitigations:
                assert group.num_rows > 0
                assert 0 <= group.channel < org.channels
                assert 0 <= group.rank < org.ranks_per_channel

    def test_activation_statistics_match_the_stream(self, config, name):
        tracker = create_tracker(name, config)
        rows = [_row(row=i) for i in range(8)]
        _drive(tracker, rows, repeats=50)
        assert tracker.stats.activations_observed == 8 * 50

    def test_storage_report_does_not_drift_with_runtime_state(self, config, name):
        tracker = create_tracker(name, config)
        before = tracker.storage_report()
        _drive(tracker, [_row(row=i) for i in range(64)], repeats=20)
        tracker.on_refresh_window(1, 1e6)
        after = tracker.storage_report()
        assert before == after

    def test_hook_defaults_are_non_negative(self, config, name):
        tracker = create_tracker(name, config)
        tracker.note_request_source(2)
        assert tracker.throttle_delay_ns(_row(), 0.0) >= 0.0
        assert tracker.completion_delay_ns(_row(), 0.0) >= 0.0
        assert tracker.activation_extension_ns() >= 0.0


@pytest.mark.parametrize("name", DETERMINISTIC)
class TestDeterministicTrackerBehaviour:
    def test_single_activation_never_triggers_a_mitigation(self, config, name):
        """One activation of a cold tracker is far below any threshold."""
        tracker = create_tracker(name, config)
        response = tracker.on_activation(_row(row=123), 0.0)
        assert not response.mitigations
        assert not response.group_mitigations
        assert not response.blackouts

    def test_refresh_window_reset_forgets_accumulated_pressure(self, config, name):
        """After a periodic reset the next activation looks like a cold start."""
        tracker = create_tracker(name, config)
        threshold = config.rowhammer.mitigation_threshold
        target = _row(row=77)
        _drive(tracker, [target], repeats=threshold - 1, now_step=50.0)
        tracker.on_refresh_window(1, config.timings.trefw_ns)
        response = tracker.on_activation(target, config.timings.trefw_ns + 100.0)
        assert not response.mitigations
        assert not response.blackouts

    def test_hammering_one_row_eventually_mitigates_it(self, config, name):
        """Within NRH activations the hammered row's victims get refreshed."""
        tracker = create_tracker(name, config)
        target = _row(row=4242)
        protected = False
        now = 0.0
        for _ in range(config.rowhammer.nrh):
            response = tracker.on_activation(target, now)
            now += 50.0
            hammered_row_covered = any(
                mitigated.row == target.row and mitigated.bank == target.bank
                for mitigated in response.mitigations
            ) or any(
                group.covers(target.rank_row_index(config.dram))
                for group in response.group_mitigations
            )
            if hammered_row_covered or response.blackouts:
                protected = True
                break
        assert protected, f"{name} never refreshed a row hammered NRH times"


#: ``tracker/attack`` streams pinned by digest: each tracker's tailored
#: Perf-Attack (row streaming for BlockHammer, which has none), plus streams
#: that reach the paths a tailored stream does not: START's LRU victim choice
#: (row streaming revisits counter lines in over-full sets), START's and
#: ABACUS' per-row mitigations, BlockHammer's throttle, and DAPPER's reset
#: counters over many aggressors.  The digests were captured from the code
#: before the trackers' activation paths were rewritten for speed.
PINNED_STREAMS = {
    "start/counter-streaming": (
        "31b29368dbc2a5d34e79ed985e432fab"
        "d3a79bf674d710800302753c2d19edf2"
    ),
    "start/row-streaming": (
        "420e423710f3111fa9141a66d7b1b5eb"
        "b1e967664d7ea2f73a8b7f0ac983d75c"
    ),
    "start/rowhammer": (
        "6d31bc23b54ce3fa78d1ac6f37f74f6b"
        "00a4899f1a697893dcb32649ef7c914d"
    ),
    "hydra/rcc-conflict": (
        "03ae6ebfb3c88cff064a67b246830757"
        "51a08e214e264de9f729670f610c836c"
    ),
    "abacus/id-streaming": (
        "56ecf762f49d3c65e3e61633c64bf3c5"
        "22149ed629e699f28747dfaaef15c9da"
    ),
    "abacus/rowhammer": (
        "f43ef81d8c97dc8fe9bae3d0e12d68da"
        "831ef5de8441aba4d7e3f1f2a39cbebb"
    ),
    "comet/rat-thrash": (
        "d6705411f699170a6d8b7b0f9c0eac1a"
        "2b218c42aa19cc3ee1202c12c2c4dfe4"
    ),
    "blockhammer/row-streaming": (
        "13b87b25043f3e9356421992c6619cca"
        "021b6bc66b8efab7278087f146546614"
    ),
    "blockhammer/rowhammer": (
        "7cd79827d322e8d0712eb23c7bd12b23"
        "dba8e7e59d4d293e405c25df87e2becb"
    ),
    "dapper-h/refresh": (
        "c0e00c5c907bd4c4cc5d2ebb00b9c6b4"
        "90028e4df8ee979fa7de8314054f60f5"
    ),
    "dapper-h/many-sided-rowhammer": (
        "06c508402f92d492a8b5b712be99c726"
        "ca12eab10d8a256928642e65621ffbff"
    ),
    "dapper-s/refresh": (
        "6c0ae9d2a6311b9c5d1c767bc40faa5b"
        "5b49b86ba9c2be8929c46bf7dab082db"
    ),
    "dapper-s/rowhammer": (
        "35b648ae49a3410edc049c36e95eccc7"
        "b69d9e7182ebc750ea19a20a57806bfb"
    ),
}


def _stream_digest(name: str, attack: str, activations: int = 20_000) -> str:
    """SHA-256 of one tracker's responses to a replayed attack stream.

    NRH 32 at a 1/256 refresh window makes every pinned stream reach its
    tracker's active paths within 20,000 activations: Hydra's counter
    traffic and mitigations, ABACUS' spillover resets, CoMeT's early and
    periodic resets, BlockHammer's throttling and both DAPPER variants'
    mitigations.  Rows are decoded as the tracker warm-up decodes them, and
    one refresh-window reset lands mid-stream.
    """
    config = full_geometry_config(32, 1.0 / 256.0)
    mapper = AddressMapper(config.dram)
    generator = attack_by_name(attack, config.dram, mapper, seed=7)
    rows = _warmup_rows(generator, mapper, activations)
    tracker = create_tracker(name, config)
    throttles = name == "blockhammer"
    step_ns = config.timings.trrd_s_ns
    now_ns = 0.0
    digest = hashlib.sha256()
    for index, row in enumerate(rows):
        if index == activations // 2:
            tracker.on_refresh_window(1, now_ns)
        delay = tracker.throttle_delay_ns(row, now_ns) if throttles else None
        response = tracker.on_activation(row, now_ns)
        key = (
            response.counter_reads,
            response.counter_writes,
            tuple((*m.bank, m.row) for m in response.mitigations),
            tuple(
                (g.channel, g.rank, g.num_rows, g.rows_per_bank, g.reason)
                for g in response.group_mitigations
            ),
            tuple(
                (b.scope.value, b.channel, b.rank, b.bank_group, b.bank,
                 b.duration_ns, b.reason)
                for b in response.blackouts
            ),
            delay,
        )
        digest.update(repr(key).encode())
        now_ns += step_ns
    digest.update(repr(dataclasses.astuple(tracker.stats)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("stream", sorted(PINNED_STREAMS))
def test_tracker_stream_matches_pinned_digest(stream):
    """Each pinned stream's responses and final statistics are fixed across
    versions of the tracker code, bit for bit."""
    name, attack = stream.split("/", 1)
    assert _stream_digest(name, attack) == PINNED_STREAMS[stream]
