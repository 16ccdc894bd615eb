"""Physical address mapping between byte addresses and DRAM coordinates.

Workload generators and attacks often need to target precise DRAM rows and
banks (e.g. "activate 64 rows that live in different banks", or "stream over
every row of a rank").  The :class:`AddressMapper` provides the bijection
between flat physical byte addresses and the ``(channel, rank, bank group,
bank, row, column)`` coordinates used by the memory controller and by the
RowHammer trackers.

The default interleaving places the channel and bank bits directly above the
cache-line offset so that consecutive cache lines spread across channels and
banks (maximising bank-level parallelism), with the column bits above those so
that a single DRAM row still maps to a contiguous-by-stride set of lines, and
the row bits on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

try:  # numpy accelerates batched decode; the scalar path needs nothing.
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image ships numpy
    _np = None

from repro.config import DRAMOrganization


class BankAddress(NamedTuple):
    """Identifies one DRAM bank in the system."""

    channel: int
    rank: int
    bank_group: int
    bank: int

    def flat(self, org: DRAMOrganization) -> int:
        """Flat bank index across the whole system (0 .. total_banks - 1)."""
        idx = self.channel
        idx = idx * org.ranks_per_channel + self.rank
        idx = idx * org.bank_groups_per_rank + self.bank_group
        idx = idx * org.banks_per_group + self.bank
        return idx

    def rank_local_bank(self, org: DRAMOrganization) -> int:
        """Bank index inside its rank (0 .. banks_per_rank - 1)."""
        return self.bank_group * org.banks_per_group + self.bank


class RowAddress(NamedTuple):
    """Identifies one DRAM row: a bank plus a row index inside that bank."""

    bank: BankAddress
    row: int

    def rank_row_index(self, org: DRAMOrganization) -> int:
        """Row index inside the rank's flat row space (used by DAPPER hashing)."""
        return self.bank.rank_local_bank(org) * org.rows_per_bank + self.row


@dataclass(frozen=True)
class DecodedAddress:
    """A fully decoded physical address."""

    channel: int
    rank: int
    bank_group: int
    bank: int
    row: int
    column: int

    @property
    def bank_address(self) -> BankAddress:
        return BankAddress(self.channel, self.rank, self.bank_group, self.bank)

    @property
    def row_address(self) -> RowAddress:
        return RowAddress(self.bank_address, self.row)


#: Builds a :class:`RowAddress` memo entry from its field tuple, skipping
#: the namedtuple's Python-level ``__new__`` (the same object it returns).
_new_tuple = tuple.__new__


def _bits(value: int) -> int:
    """Number of bits needed to index ``value`` distinct items."""
    if value <= 1:
        return 0
    return (value - 1).bit_length()


class AddressMapper:
    """Bijective mapping between physical byte addresses and DRAM coordinates.

    Field order from least to most significant:

    ``offset | channel | bank_group | bank | column | rank | row``
    """

    def __init__(self, org: DRAMOrganization):
        self.org = org
        self._offset_bits = _bits(org.line_size_bytes)
        self._channel_bits = _bits(org.channels)
        self._bg_bits = _bits(org.bank_groups_per_rank)
        self._bank_bits = _bits(org.banks_per_group)
        self._column_bits = _bits(org.lines_per_row)
        self._rank_bits = _bits(org.ranks_per_channel)
        self._row_bits = _bits(org.rows_per_bank)
        # (shift, mask) of the channel, bank group, bank, column, rank and
        # row fields, for the batched decode.
        self._fields = []
        shift = self._offset_bits
        for bits in (
            self._channel_bits,
            self._bg_bits,
            self._bank_bits,
            self._column_bits,
            self._rank_bits,
            self._row_bits,
        ):
            self._fields.append((shift, (1 << bits) - 1))
            shift += bits
        # Every bank by flat index (BankAddress.flat), and the
        # row_address_from_flat memo keyed by flat bank * rows_per_bank + row.
        self._flat_banks = [
            BankAddress(channel, rank, bank_group, bank)
            for channel in range(org.channels)
            for rank in range(org.ranks_per_channel)
            for bank_group in range(org.bank_groups_per_rank)
            for bank in range(org.banks_per_group)
        ]
        self._row_addr_cache: dict[int, RowAddress] = {}

    @property
    def address_bits(self) -> int:
        """Total number of physical address bits covered by the mapping."""
        return (
            self._offset_bits
            + self._channel_bits
            + self._bg_bits
            + self._bank_bits
            + self._column_bits
            + self._rank_bits
            + self._row_bits
        )

    @property
    def row_shift(self) -> int:
        """Bit position of the row field, the most significant one: the
        address of ``row`` is the row-0 address ORed with ``row << row_shift``."""
        return self._fields[-1][0]

    def decode(self, address: int) -> DecodedAddress:
        """Decode a physical byte address into DRAM coordinates."""
        value = address >> self._offset_bits
        channel = value & ((1 << self._channel_bits) - 1)
        value >>= self._channel_bits
        bank_group = value & ((1 << self._bg_bits) - 1)
        value >>= self._bg_bits
        bank = value & ((1 << self._bank_bits) - 1)
        value >>= self._bank_bits
        column = value & ((1 << self._column_bits) - 1)
        value >>= self._column_bits
        rank = value & ((1 << self._rank_bits) - 1)
        value >>= self._rank_bits
        row = value & ((1 << self._row_bits) - 1)
        return DecodedAddress(
            channel=channel,
            rank=rank,
            bank_group=bank_group,
            bank=bank,
            row=row,
            column=column,
        )

    def decode_batch(self, addresses):
        """Vectorized :meth:`decode` over a sequence of byte addresses.

        Returns ``(channel, rank, bank_group, bank, row, column, flat_bank)``
        parallel arrays (numpy int64 when numpy is available, else lists),
        where ``flat_bank`` is :meth:`BankAddress.flat` of each decoded
        address -- the system-wide bank index the controller and DRAM model
        key their state by.
        """
        org = self.org
        if _np is not None:
            values = _np.asarray(addresses, dtype=_np.int64)
            channel, bank_group, bank, column, rank, row = [
                (values >> shift) & mask for shift, mask in self._fields
            ]
            flat_bank = (
                ((channel * org.ranks_per_channel + rank)
                 * org.bank_groups_per_rank + bank_group)
                * org.banks_per_group + bank
            )
            return channel, rank, bank_group, bank, row, column, flat_bank
        channel, bank_group, bank, column, rank, row = [
            [(address >> shift) & mask for address in addresses]
            for shift, mask in self._fields
        ]
        ranks = org.ranks_per_channel
        groups = org.bank_groups_per_rank
        banks = org.banks_per_group
        flat_bank = [
            ((c * ranks + r) * groups + g) * banks + b
            for c, r, g, b in zip(channel, rank, bank_group, bank)
        ]
        return channel, rank, bank_group, bank, row, column, flat_bank

    def row_address_from_flat(self, bank_index: int, row: int) -> RowAddress:
        """Memoized flat bank index + row -> :class:`RowAddress`.

        ``bank_index`` is :meth:`BankAddress.flat`, the ``flat_bank`` of
        :meth:`decode_batch`.  The controller, the batched engine and the
        tracker warm-up work in flat coordinates while trackers take
        :class:`RowAddress` objects; hot rows repeat constantly, so the memo
        turns the reconstruction into a dict hit.
        """
        key = bank_index * self.org.rows_per_bank + row
        cached = self._row_addr_cache.get(key)
        if cached is None:
            cached = _new_tuple(RowAddress, (self._flat_banks[bank_index], row))
            self._row_addr_cache[key] = cached
        return cached

    def row_addresses_from_flat(self, flat_banks, rows) -> list[RowAddress]:
        """:meth:`row_address_from_flat` over the parallel ``flat_bank`` and
        ``row`` arrays (or lists) of :meth:`decode_batch`, through the same
        memo; only the (flat bank, row) pairs it lacks are built."""
        rows_per_bank = self.org.rows_per_bank
        if isinstance(rows, list):
            keys = [bank * rows_per_bank + row for bank, row in zip(flat_banks, rows)]
        else:
            keys = (flat_banks * rows_per_bank + rows).tolist()
        cache = self._row_addr_cache
        banks = self._flat_banks
        for key in set(keys).difference(cache):
            bank_index, row = divmod(key, rows_per_bank)
            cache[key] = _new_tuple(RowAddress, (banks[bank_index], row))
        return list(map(cache.__getitem__, keys))

    def encode(
        self,
        channel: int,
        rank: int,
        bank_group: int,
        bank: int,
        row: int,
        column: int = 0,
        offset: int = 0,
    ) -> int:
        """Encode DRAM coordinates into a physical byte address."""
        org = self.org
        if not 0 <= channel < org.channels:
            raise ValueError(f"channel {channel} out of range")
        if not 0 <= rank < org.ranks_per_channel:
            raise ValueError(f"rank {rank} out of range")
        if not 0 <= bank_group < org.bank_groups_per_rank:
            raise ValueError(f"bank group {bank_group} out of range")
        if not 0 <= bank < org.banks_per_group:
            raise ValueError(f"bank {bank} out of range")
        if not 0 <= row < org.rows_per_bank:
            raise ValueError(f"row {row} out of range")
        if not 0 <= column < org.lines_per_row:
            raise ValueError(f"column {column} out of range")

        value = row
        value = (value << self._rank_bits) | rank
        value = (value << self._column_bits) | column
        value = (value << self._bank_bits) | bank
        value = (value << self._bg_bits) | bank_group
        value = (value << self._channel_bits) | channel
        value = (value << self._offset_bits) | offset
        return value

    def encode_row(self, row_address: RowAddress, column: int = 0) -> int:
        """Encode a :class:`RowAddress` into a physical byte address."""
        bank = row_address.bank
        return self.encode(
            channel=bank.channel,
            rank=bank.rank,
            bank_group=bank.bank_group,
            bank=bank.bank,
            row=row_address.row,
            column=column,
        )

    def rank_row_to_row_address(
        self, channel: int, rank: int, rank_row_index: int
    ) -> RowAddress:
        """Convert a flat per-rank row index back into a :class:`RowAddress`.

        This is the inverse of :meth:`RowAddress.rank_row_index` and is used
        by DAPPER when decrypting a row group back into physical rows to
        refresh.
        """
        org = self.org
        if not 0 <= rank_row_index < org.rows_per_rank:
            raise ValueError(f"rank row index {rank_row_index} out of range")
        bank_local = rank_row_index // org.rows_per_bank
        row = rank_row_index % org.rows_per_bank
        bank_group = bank_local // org.banks_per_group
        bank = bank_local % org.banks_per_group
        return RowAddress(BankAddress(channel, rank, bank_group, bank), row)
