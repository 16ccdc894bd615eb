"""Tests for the attack kernels."""

import random

import pytest

from repro.attacks import attack_by_name, available_attacks, tailored_attack_for
from repro.attacks.cache_thrash import CacheThrashingAttack
from repro.attacks.comet_attack import RATThrashingAttack
from repro.attacks.hydra_attack import RCCConflictAttack
from repro.attacks.refresh_attack import DoubleSidedRowHammerAttack, RefreshAttack
from repro.attacks.streaming import RowStreamingAttack
from repro.config import DRAMOrganization, baseline_config, reduced_row_config
from repro.cpu.trace import generator_batch
from repro.dram.address import AddressMapper


@pytest.fixture
def org():
    return DRAMOrganization()


@pytest.fixture
def mapper(org):
    return AddressMapper(org)


class TestFactory:
    def test_all_registered_attacks_constructible(self, org, mapper):
        for name in (
            "cache-thrashing",
            "rcc-conflict",
            "rat-thrash",
            "row-streaming",
            "counter-streaming",
            "id-streaming",
            "refresh",
            "rowhammer",
        ):
            attack = attack_by_name(name, org, mapper)
            entry = attack.next_entry()
            assert entry.address >= 0

    def test_unknown_attack_rejected(self, org, mapper):
        with pytest.raises(ValueError):
            attack_by_name("nope", org, mapper)

    def test_tailored_mapping(self, org, mapper):
        assert isinstance(tailored_attack_for("hydra", org, mapper), RCCConflictAttack)
        assert isinstance(tailored_attack_for("comet", org, mapper), RATThrashingAttack)
        assert isinstance(tailored_attack_for("start", org, mapper), RowStreamingAttack)
        assert isinstance(tailored_attack_for("abacus", org, mapper), RowStreamingAttack)
        assert isinstance(tailored_attack_for("dapper-h", org, mapper), RefreshAttack)


class TestCacheThrashing:
    def test_goes_through_the_llc(self, org, mapper):
        assert CacheThrashingAttack(org, mapper).bypasses_llc is False

    def test_streams_distinct_lines_larger_than_llc(self, org, mapper):
        attack = CacheThrashingAttack(org, mapper, footprint_bytes=16 * 1024 * 1024)
        addresses = {attack.next_entry().address for _ in range(10_000)}
        assert len(addresses) == 10_000

    def test_footprint_wraps_around(self, org, mapper):
        attack = CacheThrashingAttack(org, mapper, footprint_bytes=64 * 1024)
        first = attack.next_entry().address
        for _ in range(64 * 1024 // 64 - 1):
            attack.next_entry()
        assert attack.next_entry().address == first


class TestRCCConflictAttack:
    def test_rows_collide_in_the_rcc_set(self, org, mapper):
        attack = RCCConflictAttack(org, mapper, target_set=7)
        rows = set()
        for _ in range(len(attack._sequence)):
            decoded = mapper.decode(attack.next_entry().address)
            rows.add((decoded.rank, decoded.bank_group, decoded.bank, decoded.row))
            assert decoded.row % RCCConflictAttack.RCC_SETS == 7
        assert len(rows) == len(attack._sequence)

    def test_consecutive_accesses_hit_different_banks(self, org, mapper):
        attack = RCCConflictAttack(org, mapper)
        first = mapper.decode(attack.next_entry().address)
        second = mapper.decode(attack.next_entry().address)
        assert first.bank_address != second.bank_address

    def test_per_bank_rows_alternate(self, org, mapper):
        attack = RCCConflictAttack(org, mapper)
        by_bank = {}
        for _ in range(2 * len(attack._sequence)):
            decoded = mapper.decode(attack.next_entry().address)
            by_bank.setdefault(decoded.bank_address, set()).add(decoded.row)
        assert all(len(rows) == 2 for rows in by_bank.values())


class TestRowStreaming:
    def test_every_access_is_a_new_row_for_its_bank(self, org, mapper):
        attack = RowStreamingAttack(org, mapper)
        last_row = {}
        for _ in range(4000):
            decoded = mapper.decode(attack.next_entry().address)
            bank = decoded.bank_address
            assert last_row.get(bank) != decoded.row
            last_row[bank] = decoded.row

    def test_distinct_row_ids_mode(self, org, mapper):
        attack = RowStreamingAttack(org, mapper, distinct_row_ids=True)
        rows = [mapper.decode(attack.next_entry().address).row for _ in range(1000)]
        assert len(set(rows)) == 1000

    def test_row_stride(self, org, mapper):
        attack = RowStreamingAttack(org, mapper, row_stride=64, channels=(0,), ranks=(0,))
        seen_rows = set()
        for _ in range(org.banks_per_rank * 3):
            seen_rows.add(mapper.decode(attack.next_entry().address).row)
        assert seen_rows == {0, 64, 128}

    def test_targets_limited_to_requested_ranks(self, org, mapper):
        attack = RowStreamingAttack(org, mapper, channels=(1,), ranks=(0,))
        for _ in range(500):
            decoded = mapper.decode(attack.next_entry().address)
            assert decoded.channel == 1
            assert decoded.rank == 0


class TestRATThrashing:
    def test_uses_more_rows_than_the_rat(self, org, mapper):
        attack = RATThrashingAttack(org, mapper, num_rows=768)
        rows = set()
        for _ in range(len(attack._sequence)):
            decoded = mapper.decode(attack.next_entry().address)
            rows.add((decoded.bank_address, decoded.row))
        assert len(rows) > 128

    def test_sequence_is_cyclic(self, org, mapper):
        attack = RATThrashingAttack(org, mapper)
        first_pass = [attack.next_entry().address for _ in range(len(attack._sequence))]
        second_pass = [attack.next_entry().address for _ in range(len(attack._sequence))]
        assert first_pass == second_pass


class TestRefreshAttack:
    def test_hammers_a_bounded_row_set(self, org, mapper):
        attack = RefreshAttack(org, mapper)
        rows = set()
        for _ in range(4 * attack.hammered_rows):
            decoded = mapper.decode(attack.next_entry().address)
            rows.add((decoded.bank_address, decoded.row))
        assert len(rows) == attack.hammered_rows

    def test_back_to_back_accesses_to_a_bank_differ_in_row(self, org, mapper):
        attack = RefreshAttack(org, mapper)
        last_row = {}
        for _ in range(4 * attack.hammered_rows):
            decoded = mapper.decode(attack.next_entry().address)
            bank = decoded.bank_address
            assert last_row.get(bank) != decoded.row
            last_row[bank] = decoded.row

    def test_channel_restriction(self, org, mapper):
        attack = RefreshAttack(org, mapper, channels=(0,))
        for _ in range(200):
            assert mapper.decode(attack.next_entry().address).channel == 0


class TestDoubleSidedRowHammer:
    def test_alternates_the_two_aggressors(self, org, mapper):
        attack = DoubleSidedRowHammerAttack(org, mapper, victim_row=30_000, banks_used=1)
        rows = [mapper.decode(attack.next_entry().address).row for _ in range(10)]
        assert set(rows) == {29_999, 30_001}

    def test_covers_requested_banks(self, org, mapper):
        attack = DoubleSidedRowHammerAttack(org, mapper, banks_used=4)
        banks = {
            mapper.decode(attack.next_entry().address).bank_address
            for _ in range(16)
        }
        assert len(banks) == 4


def _state(attack) -> dict:
    """Cursors, counters and sequences (the RNG is only used to build)."""
    return {key: value for key, value in vars(attack).items() if key != "rng"}


def _assert_twins_agree(batched, stepped, sizes, rng):
    """Drive one twin through generator_batch and the other through
    next_entry, with a few next_entry calls on both after every batch."""
    for size in sizes:
        expected = [stepped.next_entry() for _ in range(size)]
        assert generator_batch(batched, size) == (
            [entry.gap_instructions for entry in expected],
            [entry.address for entry in expected],
            [entry.is_write for entry in expected],
        )
        for _ in range(rng.randrange(1, 4)):
            assert batched.next_entry() == stepped.next_entry()
        assert _state(batched) == _state(stepped)
    assert batched.requests_generated == stepped.requests_generated


class TestBatchEntryIdentity:
    """Every kernel's batch path emits what ``next_entry`` would, and leaves
    the same cursors and ``requests_generated`` behind."""

    @pytest.mark.parametrize(
        "config",
        [baseline_config(), reduced_row_config()],
        ids=["baseline", "reduced-rows"],
    )
    @pytest.mark.parametrize("name", available_attacks())
    def test_batch_matches_next_entry(self, name, config):
        org = config.dram
        mapper = AddressMapper(org)
        batched = attack_by_name(name, org, mapper, seed=7)
        stepped = attack_by_name(name, org, mapper, seed=7)
        # One bank sweep of the streaming kernels covers every bank once.
        sweep = org.total_banks
        # Wraps counter-streaming's row cursor (stride 64) and id-streaming's
        # row ids at both geometries.
        wrap = sweep * (org.rows_per_bank // 64) + 1
        rng = random.Random(name)
        sizes = [
            sweep - 1,  # ends on the last bank of the first sweep
            1,
            sweep,
            sweep + 1,
            rng.randrange(2, 3 * sweep),
            wrap,
            rng.randrange(2, 5_000),
        ]
        _assert_twins_agree(batched, stepped, sizes, rng)

    @pytest.mark.parametrize(
        "make",
        [
            lambda org, mapper: RowStreamingAttack(org, mapper),
            lambda org, mapper: CacheThrashingAttack(
                org, mapper, footprint_bytes=64 * 1024
            ),
        ],
        ids=["row-streaming", "cache-thrashing"],
    )
    def test_batches_wrap_the_row_cursor_and_the_footprint(self, make):
        # 64 rows per bank: row-streaming wraps after 128 x 64 accesses;
        # the 64 KiB footprint wraps every 1,024.
        org = reduced_row_config(rows_per_bank=64).dram
        mapper = AddressMapper(org)
        rng = random.Random(5)
        sizes = [1, 1_023, 1_025, 8_191, 8_193, rng.randrange(2, 20_000)]
        _assert_twins_agree(make(org, mapper), make(org, mapper), sizes, rng)
