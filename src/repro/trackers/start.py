"""START: Scalable Tracking for Any RowHammer Threshold (HPCA 2024).

START dedicates half of the shared last-level cache to per-row RowHammer
counters.  When the number of rows exceeds what the reserved region can hold
(as in the paper's evaluated system: 8M rows vs 4M counter slots), the
counters spill to a reserved DRAM region and the LLC region acts as a counter
cache.  START therefore hurts co-running applications in two ways that the
Perf-Attack amplifies: the LLC capacity available to data is halved, and every
counter-cache miss costs a DRAM read plus a write-back.

Paper context: one of the four scalable trackers attacked in Section III
(Figure 2); its tailored Perf-Attack is the ``counter-streaming`` kernel (a
64-row-stride variant of row streaming, so every activation touches a fresh
counter line).  Key parameters: the reserved LLC fraction (one half) and the
counter-slot-per-row geometry.
"""

from __future__ import annotations

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


class StartTracker(RowHammerTracker):
    """START with half of the LLC reserved for RowHammer counters."""

    name = "start"

    #: Fraction of the LLC reserved for counters (half, per the paper).
    RESERVED_FRACTION = 0.5
    #: Counters per cache line (64B line, 1-byte counters).
    COUNTERS_PER_LINE = 64
    #: Ways of the counter cache built from the reserved region.
    COUNTER_CACHE_WAYS = 16

    def __init__(self, config: SystemConfig):
        super().__init__(config)
        reserved_bytes = int(config.llc.size_bytes * self.RESERVED_FRACTION)
        lines = max(
            self.COUNTER_CACHE_WAYS,
            reserved_bytes // config.llc.line_size_bytes,
        )
        # Round down to a multiple of the associativity.
        lines -= lines % self.COUNTER_CACHE_WAYS
        self._reserved_bytes = reserved_bytes
        self._counter_cache = SetAssociativeCounterCache(
            num_entries=lines,
            ways=self.COUNTER_CACHE_WAYS,
            seed=config.seed ^ 0x53_54_41,  # "STA"
            eviction="lru",
        )
        self._counters: dict[int, int] = {}

    # ------------------------------------------------------------------ #

    def configure_llc(self, llc) -> None:
        reserved_ways = int(round(llc.config.ways * self.RESERVED_FRACTION))
        llc.reserve_ways(reserved_ways)

    # ------------------------------------------------------------------ #

    def on_activation(self, row: RowAddress, now_ns: float) -> TrackerResponse:
        stats = self.stats
        stats.activations_observed += 1
        # The row's index across the whole system: its flat bank index
        # (BankAddress.flat) times the rows per bank, plus the row.
        org = self.org
        bank = row.bank
        row_index = (
            ((bank.channel * org.ranks_per_channel + bank.rank)
             * org.bank_groups_per_rank + bank.bank_group)
            * org.banks_per_group + bank.bank
        ) * org.rows_per_bank + row.row

        counter_reads = counter_writes = 0
        outcome = self._counter_cache.access(row_index // self.COUNTERS_PER_LINE)
        if outcome:
            counter_reads = 1
            stats.counter_reads += 1
            if outcome == MISS_EVICTED:
                counter_writes = 1
                stats.counter_writes += 1

        counters = self._counters
        count = counters.get(row_index, 0) + 1
        if count >= self.mitigation_threshold:
            counters[row_index] = 0
            self._note_mitigation()
            return TrackerResponse(
                counter_reads=counter_reads,
                counter_writes=counter_writes,
                mitigations=(row,),
            )
        counters[row_index] = count
        return COUNTER_TRAFFIC[counter_reads][counter_writes]

    def on_refresh_window(self, window_index: int, now_ns: float) -> TrackerResponse:
        self._counters.clear()
        self._counter_cache.reset()
        self.stats.periodic_resets += 1
        return EMPTY_RESPONSE

    # ------------------------------------------------------------------ #

    def storage_report(self) -> StorageReport:
        # START's dedicated SRAM is tiny (allocation metadata); the real cost
        # is the reserved LLC capacity and the spill region in DRAM.
        return StorageReport(
            sram_bytes=4 * 1024,
            reserved_llc_bytes=self._reserved_bytes,
            dram_bytes=self.org.rows_per_channel,
        )
