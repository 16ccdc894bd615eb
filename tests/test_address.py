"""Tests for physical-address <-> DRAM-coordinate mapping."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.dram.address as address_mod
from repro.config import DRAMOrganization
from repro.dram.address import AddressMapper, BankAddress, RowAddress


@pytest.fixture
def org():
    return DRAMOrganization()


@pytest.fixture
def mapper(org):
    return AddressMapper(org)


class TestEncodeDecode:
    def test_roundtrip_simple(self, mapper):
        address = mapper.encode(channel=1, rank=0, bank_group=3, bank=2, row=1234, column=5)
        decoded = mapper.decode(address)
        assert decoded.channel == 1
        assert decoded.rank == 0
        assert decoded.bank_group == 3
        assert decoded.bank == 2
        assert decoded.row == 1234
        assert decoded.column == 5

    def test_address_bits_cover_total_capacity(self, mapper, org):
        assert 2 ** mapper.address_bits == org.total_bytes

    def test_out_of_range_row_rejected(self, mapper, org):
        with pytest.raises(ValueError):
            mapper.encode(0, 0, 0, 0, row=org.rows_per_bank)

    def test_out_of_range_channel_rejected(self, mapper):
        with pytest.raises(ValueError):
            mapper.encode(channel=2, rank=0, bank_group=0, bank=0, row=0)

    def test_consecutive_lines_spread_across_channels(self, mapper, org):
        line = org.line_size_bytes
        first = mapper.decode(0)
        second = mapper.decode(line)
        assert first.channel != second.channel

    def test_encode_row_helper(self, mapper):
        row_addr = RowAddress(BankAddress(0, 1, 2, 3), 777)
        address = mapper.encode_row(row_addr, column=9)
        decoded = mapper.decode(address)
        assert decoded.row_address == row_addr
        assert decoded.column == 9

    @settings(max_examples=200, deadline=None)
    @given(
        channel=st.integers(0, 1),
        rank=st.integers(0, 1),
        bank_group=st.integers(0, 7),
        bank=st.integers(0, 3),
        row=st.integers(0, 64 * 1024 - 1),
        column=st.integers(0, 127),
    )
    def test_roundtrip_property(self, channel, rank, bank_group, bank, row, column):
        mapper = AddressMapper(DRAMOrganization())
        address = mapper.encode(channel, rank, bank_group, bank, row, column)
        decoded = mapper.decode(address)
        assert (
            decoded.channel,
            decoded.rank,
            decoded.bank_group,
            decoded.bank,
            decoded.row,
            decoded.column,
        ) == (channel, rank, bank_group, bank, row, column)


class TestBankAddress:
    def test_flat_index_unique(self, org):
        seen = set()
        for channel in range(org.channels):
            for rank in range(org.ranks_per_channel):
                for group in range(org.bank_groups_per_rank):
                    for bank in range(org.banks_per_group):
                        seen.add(BankAddress(channel, rank, group, bank).flat(org))
        assert len(seen) == org.total_banks
        assert min(seen) == 0
        assert max(seen) == org.total_banks - 1

    def test_rank_local_bank(self, org):
        bank = BankAddress(0, 0, 3, 2)
        assert bank.rank_local_bank(org) == 3 * org.banks_per_group + 2


class TestRowAddress:
    def test_rank_row_index_roundtrip(self, mapper, org):
        row_addr = RowAddress(BankAddress(1, 1, 5, 3), 4321)
        index = row_addr.rank_row_index(org)
        recovered = mapper.rank_row_to_row_address(1, 1, index)
        assert recovered == row_addr

    def test_rank_row_index_bounds(self, org):
        last = RowAddress(
            BankAddress(0, 0, org.bank_groups_per_rank - 1, org.banks_per_group - 1),
            org.rows_per_bank - 1,
        )
        assert last.rank_row_index(org) == org.rows_per_rank - 1

    def test_rank_row_out_of_range(self, mapper, org):
        with pytest.raises(ValueError):
            mapper.rank_row_to_row_address(0, 0, org.rows_per_rank)


class TestBatchDecode:
    @pytest.mark.parametrize("use_numpy", [True, False], ids=["numpy", "pure-python"])
    @pytest.mark.parametrize(
        "org",
        [DRAMOrganization(), DRAMOrganization(channels=8, ranks_per_channel=4)],
        ids=["baseline", "large"],
    )
    def test_batch_paths_match_decode(self, org, use_numpy, monkeypatch):
        if not use_numpy:
            monkeypatch.setattr(address_mod, "_np", None)
        elif address_mod._np is None:
            pytest.skip("numpy is not installed")
        mapper = AddressMapper(org)
        rng = random.Random(3)
        # Repeats too, so the row memo serves hits as well as misses.
        addresses = [rng.randrange(1 << mapper.address_bits) for _ in range(500)]
        addresses += addresses[:100]
        decoded = [mapper.decode(address) for address in addresses]
        channel, rank, bank_group, bank, row, column, flat_bank = (
            mapper.decode_batch(addresses)
        )
        assert list(channel) == [d.channel for d in decoded]
        assert list(rank) == [d.rank for d in decoded]
        assert list(bank_group) == [d.bank_group for d in decoded]
        assert list(bank) == [d.bank for d in decoded]
        assert list(row) == [d.row for d in decoded]
        assert list(column) == [d.column for d in decoded]
        assert list(flat_bank) == [d.bank_address.flat(org) for d in decoded]

        rows = mapper.row_addresses_from_flat(flat_bank[:300], row[:300])
        rows += [
            mapper.row_address_from_flat(int(b), int(r))
            for b, r in zip(flat_bank[300:], row[300:])
        ]
        assert rows == [d.row_address for d in decoded]
        assert all(
            type(field) is int for r in rows for field in (*r.bank, r.row)
        )
