"""Hydra: hybrid group/per-row tracking with in-DRAM counters (ISCA 2022).

Hydra keeps a small SRAM Group Counter Table (GCT) whose entries are shared by
groups of 128 rows.  When a group counter crosses 80% of the mitigation
threshold, the group switches to precise per-row tracking: per-row counters
live in a reserved DRAM region (the Row Counter Table, RCT) and a small Row
Counter Cache (RCC, 4K entries per rank, 32-way, random eviction) caches the
hot ones inside the memory controller.  An RCC miss costs one DRAM read (fetch
the counter) plus one DRAM write (write back the evicted counter) -- exactly
the traffic the paper's Perf-Attack amplifies by forcing RCC set conflicts.

Paper context: one of the four scalable trackers attacked in Section III
(Figure 2); its tailored Perf-Attack is the ``rcc-conflict`` kernel.  Key
parameters: 128-row groups, the 80% group-to-per-row promotion threshold,
and the 4K-entry 32-way RCC per rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import SystemConfig
from repro.dram.address import RowAddress
from repro.trackers.base import (
    COUNTER_TRAFFIC,
    EMPTY_RESPONSE,
    RowHammerTracker,
    StorageReport,
    TrackerResponse,
)
from repro.trackers.structures import MISS_EVICTED, SetAssociativeCounterCache


@dataclass
class _RankTrackingState:
    """Per-rank Hydra state: group counters, per-row mode set, RCC, RCT.

    Groups are keyed by ``bank_local * groups_per_bank + row // GROUP_SIZE``
    and rows by ``bank_local * rows_per_bank + row``.  The RCT holds every
    per-row count; the RCC models only which of them are cached.
    """

    gct: dict[int, int] = field(default_factory=dict)
    per_row_groups: set[int] = field(default_factory=set)
    rct: dict[int, int] = field(default_factory=dict)
    rcc: SetAssociativeCounterCache | None = None


class HydraTracker(RowHammerTracker):
    """Hydra with the paper's configuration (GC size 128, 4K-entry RCC)."""

    name = "hydra"

    GROUP_SIZE = 128
    RCC_ENTRIES = 4096
    RCC_WAYS = 32
    GROUP_THRESHOLD_FRACTION = 0.8

    def __init__(self, config: SystemConfig):
        super().__init__(config)
        self.group_threshold = max(
            1, int(self.mitigation_threshold * self.GROUP_THRESHOLD_FRACTION)
        )
        self._ranks: dict[tuple[int, int], _RankTrackingState] = {}
        self._rcc_seed = config.seed ^ 0x48_59_44_52  # "HYDR"
        self._groups_per_bank = -(-self.org.rows_per_bank // self.GROUP_SIZE)

    # ------------------------------------------------------------------ #

    def _rank_state(self, channel: int, rank: int) -> _RankTrackingState:
        key = (channel, rank)
        state = self._ranks.get(key)
        if state is None:
            state = _RankTrackingState(
                rcc=SetAssociativeCounterCache(
                    num_entries=self.RCC_ENTRIES,
                    ways=self.RCC_WAYS,
                    seed=self._rcc_seed ^ hash(key),
                    eviction="random",
                )
            )
            self._ranks[key] = state
        return state

    # ------------------------------------------------------------------ #

    def on_activation(self, row: RowAddress, now_ns: float) -> TrackerResponse:
        stats = self.stats
        stats.activations_observed += 1
        org = self.org
        bank = row.bank
        state = self._ranks.get((bank.channel, bank.rank))
        if state is None:
            state = self._rank_state(bank.channel, bank.rank)
        bank_local = bank.bank_group * org.banks_per_group + bank.bank
        group_key = bank_local * self._groups_per_bank + row.row // self.GROUP_SIZE

        if group_key not in state.per_row_groups:
            gct = state.gct
            count = gct.get(group_key, 0) + 1
            gct[group_key] = count
            if count >= self.group_threshold:
                state.per_row_groups.add(group_key)
            return EMPTY_RESPONSE

        # Per-row tracking through the RCC / RCT.  Row index in the low bits
        # so that the RCC set index is ``row % sets`` (the structure the
        # tailored Perf-Attack exploits).  Every count is written to the RCT,
        # so a cached count always equals its RCT entry: an RCC miss fetches
        # the count (one DRAM read) and writes back the victim it evicts (one
        # DRAM write), and the count itself always comes from the RCT.
        row_key = bank_local * org.rows_per_bank + row.row
        counter_reads = counter_writes = 0
        outcome = state.rcc.access(row_key)
        if outcome:
            counter_reads = 1
            stats.counter_reads += 1
            if outcome == MISS_EVICTED:
                counter_writes = 1
                stats.counter_writes += 1

        rct = state.rct
        count = rct.get(row_key, self.group_threshold) + 1
        if count >= self.mitigation_threshold:
            rct[row_key] = 0
            self._note_mitigation()
            return TrackerResponse(
                counter_reads=counter_reads,
                counter_writes=counter_writes,
                mitigations=(row,),
            )
        rct[row_key] = count
        return COUNTER_TRAFFIC[counter_reads][counter_writes]

    def on_refresh_window(self, window_index: int, now_ns: float) -> TrackerResponse:
        for state in self._ranks.values():
            state.gct.clear()
            state.per_row_groups.clear()
            state.rct.clear()
            state.rcc.reset()
        self.stats.periodic_resets += 1
        return EMPTY_RESPONSE

    # ------------------------------------------------------------------ #

    def storage_report(self) -> StorageReport:
        """SRAM per 32GB channel: GCT (per rank) + RCC tags/counters."""
        org = self.org
        groups_per_rank = org.rows_per_rank // self.GROUP_SIZE
        gct_bits = groups_per_rank * 8                      # 1-byte group counters
        rcc_bits = self.RCC_ENTRIES * (21 + 8)              # tag + counter
        per_rank_bits = gct_bits + rcc_bits
        sram_bytes = per_rank_bits * org.ranks_per_channel // 8
        rct_bytes = org.rows_per_channel                    # 1 byte per row in DRAM
        return StorageReport(sram_bytes=sram_bytes, dram_bytes=rct_bytes)
