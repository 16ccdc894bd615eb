"""DAPPER-S: the single-hash secure-tracking template (Section V).

DAPPER-S keeps one Row Group Counter (RGC) table per rank inside the memory
controller (no in-DRAM counters, so there is no counter traffic for an
attacker to amplify).  Rows are mapped to groups through a keyed low-latency
block cipher so an attacker cannot choose rows that share a counter.  When a
group counter reaches the mitigation threshold (NRH / 2), DAPPER-S decrypts
the group back to its member rows, refreshes the victims of every member, and
resets the counter.

DAPPER-S is deliberately the simple template: it already defeats the
counter-traffic Perf-Attacks of Hydra/START, but it remains vulnerable to the
two mapping-agnostic attacks (streaming and refresh) quantified in Figure 9,
and its single hash can be reverse-engineered by the Mapping-Capturing attack
analysed in Table II.  Those weaknesses motivate DAPPER-H.
"""

from __future__ import annotations

import math

from repro.config import SystemConfig
from repro.dram.address import RowAddress
from repro.trackers.base import (
    EMPTY_RESPONSE,
    GroupMitigation,
    RowHammerTracker,
    StorageReport,
    TrackerResponse,
)
from repro.core.rgc import RowGroupCounterTable


class DapperSTracker(RowHammerTracker):
    """The DAPPER-S tracker (single secure hash, per-rank RGC table)."""

    name = "dapper-s"

    DEFAULT_GROUP_SIZE = 256

    def __init__(
        self,
        config: SystemConfig,
        group_size: int = DEFAULT_GROUP_SIZE,
        reset_period_ns: float | None = None,
    ):
        """``reset_period_ns`` optionally enables the short re-keying period
        analysed in Section V-D (e.g. 12 us); by default the table is reset
        and re-keyed once per refresh window like the rest of the design."""
        super().__init__(config)
        self.group_size = group_size
        self.reset_period_ns = reset_period_ns
        self._tables: dict[tuple[int, int], RowGroupCounterTable] = {}
        self._next_reset_ns = math.inf if reset_period_ns is None else reset_period_ns
        self._seed = config.seed ^ 0x44505253  # "DPRS"

    # ------------------------------------------------------------------ #

    def _table(self, channel: int, rank: int) -> RowGroupCounterTable:
        key = (channel, rank)
        table = self._tables.get(key)
        if table is None:
            table = RowGroupCounterTable(
                rank_row_bits=self.org.rank_row_bits,
                group_size=self.group_size,
                seed=self._seed ^ (channel * 0x1_0001 + rank * 0x101),
            )
            self._tables[key] = table
        return table

    def _periodic_reset(self, now_ns: float) -> None:
        """Reset and re-key every table, then advance past ``now_ns``."""
        for table in self._tables.values():
            table.reset_and_rekey()
        self.stats.periodic_resets += 1
        while self._next_reset_ns <= now_ns:
            self._next_reset_ns += self.reset_period_ns

    # ------------------------------------------------------------------ #

    def on_activation(self, row: RowAddress, now_ns: float) -> TrackerResponse:
        self.stats.activations_observed += 1
        if now_ns >= self._next_reset_ns:
            self._periodic_reset(now_ns)

        bank = row.bank
        table = self._tables.get((bank.channel, bank.rank))
        if table is None:
            table = self._table(bank.channel, bank.rank)
        org = self.org
        rank_row = (
            bank.bank_group * org.banks_per_group + bank.bank
        ) * org.rows_per_bank + row.row
        group = table.group_of(rank_row)
        count = table.increment(group)
        if count < self.mitigation_threshold:
            return EMPTY_RESPONSE

        # Mitigate the whole group: every member row's victims are refreshed.
        table.set_count(group, 0)
        self._note_mitigation(self.group_size)
        group_size = self.group_size
        mitigation = GroupMitigation(
            channel=row.bank.channel,
            rank=row.bank.rank,
            num_rows=group_size,
            rows_per_bank=group_size / self.org.banks_per_rank,
            covers=lambda rank_row_index, _table=table, _group=group: (
                _table.group_of(rank_row_index) == _group
            ),
            reason="dapper-s-group-refresh",
        )
        return TrackerResponse(group_mitigations=(mitigation,))

    def on_refresh_window(self, window_index: int, now_ns: float) -> TrackerResponse:
        for table in self._tables.values():
            table.reset_and_rekey()
        self.stats.periodic_resets += 1
        return EMPTY_RESPONSE

    # ------------------------------------------------------------------ #

    def storage_report(self) -> StorageReport:
        groups_per_rank = (1 << self.org.rank_row_bits) // self.group_size
        sram_bytes = groups_per_rank * self.org.ranks_per_channel
        return StorageReport(sram_bytes=sram_bytes)

    # Introspection helpers used by tests and the security analysis ------

    def group_of(self, row: RowAddress) -> int:
        """Current group index of a row (depends on the key epoch)."""
        table = self._table(row.bank.channel, row.bank.rank)
        return table.group_of(row.rank_row_index(self.org))

    def group_count(self, channel: int, rank: int, group: int) -> int:
        return self._table(channel, rank).count(group)
