"""Graphene: exact per-bank Misra-Gries tracking (Park et al., MICRO 2020).

Graphene gives every bank its own Misra-Gries summary sized so that *no*
aggressor row can escape it: the number of entries equals the maximum number
of rows that can reach the table threshold within one refresh window, so the
summary degenerates into an exact heavy-hitter counter.  Whenever an entry
reaches the mitigation threshold Graphene refreshes the row's victims and
lowers the entry back to the spillover floor; all state is cleared at every
tREFW boundary.

The paper cites Graphene (reference [46]) as the canonical *precise* tracker
whose storage becomes impractical at ultra-low RowHammer thresholds -- the
per-bank content-addressable tables grow inversely with NRH.  It is included
here as the "ideal tracking" baseline: it is immune to the Perf-Attacks of
Section III because it never touches DRAM for counters and never performs
bulk structure-reset refreshes, but Table III-style storage reports show why
it does not scale.

Paper context: related work (Section VII) and the Table III storage
comparison.  Key parameters: the per-bank summary entry count and table
threshold, both derived from NRH and the refresh window.
"""

from __future__ import annotations

import math

from repro.config import SystemConfig
from repro.dram.address import RowAddress
from repro.sim.events.events import TrackerEvict, TrackerInsert
from repro.trackers.base import (
    EMPTY_RESPONSE,
    RowHammerTracker,
    StorageReport,
    TrackerResponse,
)
from repro.trackers.structures import MisraGriesSummary


def graphene_entries_per_bank(
    nrh: int,
    trefw_ns: float,
    trc_ns: float,
) -> int:
    """Number of Misra-Gries entries Graphene provisions for each bank.

    Graphene sizes each per-bank table so it can hold every row that could
    reach the table threshold (half the mitigation threshold, i.e. NRH / 4)
    within one refresh window: ``(tREFW / tRC) / (NRH / 4)``.  The quarter
    threshold is what guarantees exactness for the Misra-Gries summary.
    """
    activations_per_bank = trefw_ns / trc_ns
    table_threshold = max(1, nrh // 4)
    return max(4, math.ceil(activations_per_bank / table_threshold))


class GrapheneTracker(RowHammerTracker):
    """Exact per-bank aggressor tracking with Misra-Gries tables."""

    name = "graphene"

    def __init__(self, config: SystemConfig):
        super().__init__(config)
        self.entries_per_bank = graphene_entries_per_bank(
            self.nrh,
            trefw_ns=config.timings.trefw_ns,
            trc_ns=config.timings.trc_ns,
        )
        self._tables: dict[int, MisraGriesSummary] = {}
        # RowAddress -> its bank's table: the row-to-bank mapping is fixed,
        # so this memo never invalidates (resets clear table contents only).
        self._row_table: dict[RowAddress, MisraGriesSummary] = {}

    # ------------------------------------------------------------------ #

    def _table(self, bank_flat: int) -> MisraGriesSummary:
        table = self._tables.get(bank_flat)
        if table is None:
            # A per-bank table only ever sees one bank, so the ABACUS-style
            # per-bank bit-vector degenerates to a single always-set bit.
            table = MisraGriesSummary(capacity=self.entries_per_bank, num_banks=1)
            self._tables[bank_flat] = table
        return table

    # ------------------------------------------------------------------ #

    def on_activation(self, row: RowAddress, now_ns: float) -> TrackerResponse:
        self.stats.activations_observed += 1  # inlined _note_activation
        table = self._row_table.get(row)
        if table is None:
            table = self._table(row.bank.flat(self.org))
            self._row_table[row] = table
        events = self.events
        if events is None:
            entry, _counted = table.observe(row.row, 0)
        else:
            # Snapshot insert/evict outcomes without touching the summary's
            # behaviour: spill_victim mirrors observe's own replacement
            # scan, and the events fire only on a new insertion.
            tracked = row.row in table
            victim = None if tracked else table.spill_victim()
            entry, _counted = table.observe(row.row, 0)
            if not tracked and entry is not None:
                if victim is not None:
                    events.emit(TrackerEvict(now_ns, victim))
                events.emit(TrackerInsert(now_ns, row.row, entry.count))

        if entry is not None and entry.count >= self.mitigation_threshold:
            self._note_mitigation()
            table.reset_entry(row.row)
            return TrackerResponse(mitigations=(row,))
        return EMPTY_RESPONSE

    def on_refresh_window(self, window_index: int, now_ns: float) -> TrackerResponse:
        for table in self._tables.values():
            table.reset()
        self.stats.periodic_resets += 1
        return EMPTY_RESPONSE

    def table_occupancy(self) -> float | None:
        """Mean fill fraction across the per-bank summaries seen so far."""
        if not self._tables:
            return 0.0
        filled = sum(len(table) for table in self._tables.values())
        return filled / (len(self._tables) * self.entries_per_bank)

    # ------------------------------------------------------------------ #

    def storage_report(self) -> StorageReport:
        """Storage per 32GB channel: one table per bank of the channel.

        The row-identifier match logic is CAM; counters are SRAM.  This is the
        cost the paper calls impractical at ultra-low thresholds.
        """
        row_id_bits = max(1, (self.org.rows_per_bank - 1).bit_length())
        counter_bits = max(1, (self.mitigation_threshold - 1).bit_length())
        per_bank_cam_bits = self.entries_per_bank * row_id_bits
        per_bank_sram_bits = self.entries_per_bank * counter_bits
        banks = self.org.banks_per_channel
        return StorageReport(
            sram_bytes=per_bank_sram_bits * banks // 8,
            cam_bytes=per_bank_cam_bits * banks // 8,
        )
