"""Periodic auto-refresh scheduling.

DDR5 issues an auto-refresh (REF) command to every rank once per tREFI
(3.9 us); the rank is unavailable for tRFC (295 ns) while the refresh runs.
Over a full refresh window (tREFW, 32 ms) the 8K refresh commands walk over
every row of the rank.  The request-level model does not need to know which
rows each REF touches -- it only needs (a) the bandwidth lost to the blackout
windows and (b) the tREFW boundary at which per-row activation counts reset
for security accounting and at which trackers perform their periodic resets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DRAMTimings


@dataclass
class RefreshScheduler:
    """Computes auto-refresh blackouts and refresh-window boundaries."""

    timings: DRAMTimings
    stagger_per_rank_ns: float = 0.0

    def adjust_for_refresh(self, start_ns: float, rank_index: int) -> float:
        """Push ``start_ns`` out of any auto-refresh blackout of the rank.

        Refresh blackouts occupy ``[k * tREFI, k * tREFI + tRFC)`` for every
        integer ``k`` (optionally staggered per rank).
        """
        trefi = self.timings.trefi_ns
        trfc = self.timings.trfc_ns
        phase = (start_ns - rank_index * self.stagger_per_rank_ns) % trefi
        if phase < trfc:
            return start_ns + (trfc - phase)
        return start_ns

    def refresh_window_index(self, now_ns: float) -> int:
        """Index of the refresh window (tREFW interval) containing ``now_ns``."""
        return int(now_ns // self.timings.trefw_ns)

    def refreshes_elapsed(self, now_ns: float) -> int:
        """Number of auto-refresh commands issued per rank up to ``now_ns``."""
        return int(now_ns // self.timings.trefi_ns)

    def refresh_overhead_fraction(self) -> float:
        """Fraction of time a rank is unavailable due to auto refresh."""
        return self.timings.trfc_ns / self.timings.trefi_ns
