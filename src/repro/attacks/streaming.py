"""Row-streaming attacks.

A single kernel that activates a new DRAM row on every access, rotating over
the banks of the targeted channel(s) so activations are only tRRD apart.
This one pattern is the tailored Perf-Attack against three different defences:

* **START** -- every new row needs a counter, so the reserved LLC region fills
  and every further activation costs a counter fetch and write-back;
* **ABACUS** -- every new row identifier misses the shared Misra-Gries table,
  so the spillover counter climbs to the mitigation threshold and forces a
  full-channel refresh reset;
* **DAPPER-S** (mapping-agnostic streaming attack) -- every group counter
  receives its members' activations and eventually triggers a group-wide
  mitigative refresh, regardless of the secret hash.

Paper context: Section III-B / Figure 2 for the START and ABACUS variants,
Section V-E for the mapping-agnostic use against DAPPER.  Key parameters:
``row_stride`` (64 for START's counter lines) and ``distinct_row_ids``
(ABACUS tracks row identifiers, not physical rows).
"""

from __future__ import annotations

from repro.attacks.base import AttackGenerator
from repro.config import DRAMOrganization
from repro.cpu.trace import TraceEntry
from repro.dram.address import AddressMapper


class RowStreamingAttack(AttackGenerator):
    """Activates every row of the target ranks, bank-interleaved."""

    name = "row-streaming"

    def __init__(
        self,
        org: DRAMOrganization,
        mapper: AddressMapper,
        seed: int = 1,
        channels: tuple[int, ...] | None = None,
        ranks: tuple[int, ...] | None = None,
        row_stride: int = 1,
        distinct_row_ids: bool = False,
    ):
        """``distinct_row_ids`` makes every access use a different row index
        (row 0 in bank 0, row 1 in bank 1, ...), which is the exact pattern the
        paper uses against ABACUS' shared row-identifier tracker."""
        super().__init__(org, mapper, seed)
        self.channels = channels or tuple(range(org.channels))
        self.ranks = ranks or tuple(range(org.ranks_per_channel))
        self.row_stride = max(1, row_stride)
        self.distinct_row_ids = distinct_row_ids
        self._targets = [
            (channel, rank)
            for channel in self.channels
            for rank in self.ranks
        ]
        self._bank_cursor = 0
        self._row_cursor = 0
        self._target_cursor = 0
        self._unique_counter = 0
        # Row-0 address of every step of a row sweep, at index
        # target + len(targets) * bank: the row is the mapper's most
        # significant field, so any access is one of these ORed with
        # ``row << mapper.row_shift``.
        self._sweep = [
            self._encode(channel, rank, bank_local, 0)
            for bank_local in range(org.banks_per_rank)
            for channel, rank in self._targets
        ]

    def next_entry(self) -> TraceEntry:
        channel, rank = self._targets[self._target_cursor]
        bank_local = self._bank_cursor
        if self.distinct_row_ids:
            row = self._unique_counter % self.org.rows_per_bank
            self._unique_counter += 1
        else:
            row = self._row_cursor

        address = self._encode(channel, rank, bank_local, row)

        # Advance: banks fastest (tRRD-limited), then targets, then rows.
        self._target_cursor += 1
        if self._target_cursor >= len(self._targets):
            self._target_cursor = 0
            self._bank_cursor += 1
            if self._bank_cursor >= self.org.banks_per_rank:
                self._bank_cursor = 0
                self._row_cursor = (
                    self._row_cursor + self.row_stride
                ) % self.org.rows_per_bank
        return self._entry(address)

    def next_batch(self, count: int):
        """Closed form of ``count`` :meth:`next_entry` calls, with the same
        cursors and ``requests_generated`` afterwards."""
        sweep = self._sweep
        length = len(sweep)
        targets = len(self._targets)
        rows_per_bank = self.org.rows_per_bank
        shift = self.mapper.row_shift
        step = self._target_cursor + targets * self._bank_cursor
        row = self._row_cursor
        unique = self._unique_counter
        addresses: list[int] = []
        left = count
        while left:
            take = min(length - step, left)
            bases = sweep[step:step + take]
            if self.distinct_row_ids:
                addresses += [
                    base | (((unique + i) % rows_per_bank) << shift)
                    for i, base in enumerate(bases)
                ]
                unique += take
            else:
                high = row << shift
                addresses += [base | high for base in bases]
            left -= take
            step += take
            if step == length:
                step = 0
                row = (row + self.row_stride) % rows_per_bank
        self._target_cursor = step % targets
        self._bank_cursor = step // targets
        self._row_cursor = row
        self._unique_counter = unique
        self.requests_generated += count
        return [self.GAP_INSTRUCTIONS] * count, addresses, [False] * count
