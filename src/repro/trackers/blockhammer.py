"""BlockHammer: throttling-based RowHammer prevention (HPCA 2021).

BlockHammer tracks activation rates with per-bank counting Bloom filters and
*throttles* (delays) further activations of rows whose estimated count crosses
a blacklisting threshold, so that no row can legally reach the RowHammer
threshold within a refresh window.  It never issues mitigative refreshes.

At ultra-low thresholds the blacklisting threshold shrinks to the point where
benign rows -- both genuinely warm rows and rows aliased with them in the
Bloom filter -- get throttled, which is the large benign slowdown the paper's
Figure 14 reports (25% at NRH=500, 66% at NRH=125).

Paper context: the throttling-based comparison point of Section VI-I.  Key
parameters: the per-bank counting-Bloom-filter geometry and the blacklisting
threshold derived from NRH and the refresh window.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.dram.address import RowAddress
from repro.trackers.base import (
    EMPTY_RESPONSE,
    RowHammerTracker,
    StorageReport,
    TrackerResponse,
)
from repro.trackers.structures import CountingBloomFilter


class BlockHammerTracker(RowHammerTracker):
    """BlockHammer with per-bank counting Bloom filters and rate throttling."""

    name = "blockhammer"

    CBF_COUNTERS = 1024
    CBF_HASHES = 4
    #: Rows are blacklisted once their estimate exceeds this fraction of NRH.
    BLACKLIST_FRACTION = 0.125
    #: The filters are rotated (cleared) every half refresh window.
    EPOCH_FRACTION = 0.5

    def __init__(self, config: SystemConfig):
        super().__init__(config)
        self.blacklist_threshold = max(1, int(self.nrh * self.BLACKLIST_FRACTION))
        # Minimum spacing enforced between activations of a blacklisted row.
        # The filters are cleared every EPOCH_FRACTION * tREFW, so within one
        # epoch a row gets ``blacklist_threshold`` unthrottled activations plus
        # one throttled activation per interval; the interval is chosen so the
        # per-epoch budget stays below the mitigation threshold (NRH / 2),
        # which keeps the per-refresh-window total below NRH even though the
        # filter history is lost at each epoch boundary.
        epoch_ns = config.timings.trefw_ns * self.EPOCH_FRACTION
        epoch_budget = max(1, self.mitigation_threshold - self.blacklist_threshold - 2)
        self.throttle_interval_ns = epoch_ns / epoch_budget
        self._filters: dict[int, CountingBloomFilter] = {}
        self._next_allowed_ns: dict[tuple[int, int], float] = {}
        self._epoch_ns = config.timings.trefw_ns * self.EPOCH_FRACTION
        self._next_epoch_ns = self._epoch_ns
        self._seed = config.seed ^ 0x424C4B  # "BLK"

    # ------------------------------------------------------------------ #

    def _filter(self, bank_flat: int) -> CountingBloomFilter:
        cbf = self._filters.get(bank_flat)
        if cbf is None:
            cbf = CountingBloomFilter(
                num_counters=self.CBF_COUNTERS,
                num_hashes=self.CBF_HASHES,
                seed=self._seed ^ (bank_flat * 0x9E3779B1),
            )
            self._filters[bank_flat] = cbf
        return cbf

    def _rotate(self, now_ns: float) -> None:
        """Clear the filters once ``now_ns`` has reached the next epoch."""
        for cbf in self._filters.values():
            cbf.reset()
        self._next_allowed_ns.clear()
        self.stats.periodic_resets += 1
        while self._next_epoch_ns <= now_ns:
            self._next_epoch_ns += self._epoch_ns

    # ------------------------------------------------------------------ #

    def throttle_delay_ns(self, row: RowAddress, now_ns: float) -> float:
        if now_ns >= self._next_epoch_ns:
            self._rotate(now_ns)
        bank_flat = row.bank.flat(self.org)
        cbf = self._filters.get(bank_flat)
        if cbf is None:
            cbf = self._filter(bank_flat)
        if cbf.estimate(row.row) < self.blacklist_threshold:
            return 0.0
        key = (bank_flat, row.row)
        next_allowed = self._next_allowed_ns.get(key, 0.0)
        delay = max(0.0, next_allowed - now_ns)
        self._next_allowed_ns[key] = max(next_allowed, now_ns + delay) + (
            self.throttle_interval_ns
        )
        if delay > 0.0:
            self.stats.throttled_requests += 1
            self.stats.throttle_time_ns += delay
        return delay

    def on_activation(self, row: RowAddress, now_ns: float) -> TrackerResponse:
        self.stats.activations_observed += 1
        if now_ns >= self._next_epoch_ns:
            self._rotate(now_ns)
        bank_flat = row.bank.flat(self.org)
        cbf = self._filters.get(bank_flat)
        if cbf is None:
            cbf = self._filter(bank_flat)
        cbf.increment(row.row)
        return EMPTY_RESPONSE

    def on_refresh_window(self, window_index: int, now_ns: float) -> TrackerResponse:
        for cbf in self._filters.values():
            cbf.reset()
        self._next_allowed_ns.clear()
        return EMPTY_RESPONSE

    # ------------------------------------------------------------------ #

    def storage_report(self) -> StorageReport:
        per_bank_bits = self.CBF_COUNTERS * 16 * 2   # dual time-interleaved CBFs
        sram_bytes = per_bank_bits * self.org.banks_per_channel // 8
        return StorageReport(sram_bytes=sram_bytes)
