"""CoMeT: Count-Min-Sketch-based row tracking (HPCA 2024).

CoMeT shares counters across rows through a per-bank Count-Min Sketch (four
hash functions, 512 counters each) with a mitigation threshold of NRH/4, and
uses a small Recent Aggressor Table (RAT, 128 entries) of per-row counters to
avoid repeatedly mitigating rows whose sketch counters are saturated (the
sketch cannot be selectively reset).  When the RAT cannot capture the working
set of aggressors -- which the tailored Perf-Attack ensures by hammering more
rows than the RAT holds -- CoMeT falls back to resetting its structures by
refreshing every DRAM row of the rank, blocking it for milliseconds.

Paper context: one of the four scalable trackers attacked in Section III
(Figure 2); its tailored Perf-Attack is the ``rat-thrash`` kernel.  Key
parameters: 4 hash functions x 512 counters per bank, mitigation threshold
NRH/4, 128-entry RAT, 25% RAT-miss reset trigger.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field

from repro.config import SystemConfig
from repro.dram.address import RowAddress
from repro.dram.commands import Blackout, MitigationScope
from repro.trackers.base import (
    EMPTY_RESPONSE,
    RowHammerTracker,
    StorageReport,
    TrackerResponse,
)
from repro.trackers.structures import CountMinSketch


@dataclass
class _ChannelState:
    """Per-channel CoMeT state: per-bank sketches plus the shared RAT."""

    sketches: dict[int, CountMinSketch] = field(default_factory=dict)
    rat: OrderedDict = field(default_factory=OrderedDict)
    miss_history: deque = field(default_factory=lambda: deque(maxlen=256))


class CoMeTTracker(RowHammerTracker):
    """CoMeT with the paper's configuration (4x512 CT, 128-entry RAT)."""

    name = "comet"

    CT_HASHES = 4
    CT_WIDTH = 512
    RAT_ENTRIES = 128
    MISS_HISTORY = 256
    MISS_RATE_RESET_THRESHOLD = 0.25
    PERIODIC_RESET_FRACTION = 1.0 / 3.0   # reset every tREFW / 3

    def __init__(self, config: SystemConfig):
        super().__init__(config)
        self.ct_threshold = max(1, self.nrh // 4)
        self._channels: dict[int, _ChannelState] = {}
        self._next_periodic_reset_ns = (
            config.timings.trefw_ns * self.PERIODIC_RESET_FRACTION
        )
        self._seed = config.seed ^ 0x43_4F_4D  # "COM"

    # ------------------------------------------------------------------ #

    def _channel_state(self, channel: int) -> _ChannelState:
        state = self._channels.get(channel)
        if state is None:
            state = _ChannelState()
            self._channels[channel] = state
        return state

    def _sketch_for(self, state: _ChannelState, bank_flat: int) -> CountMinSketch:
        sketch = state.sketches.get(bank_flat)
        if sketch is None:
            sketch = CountMinSketch(
                depth=self.CT_HASHES,
                width=self.CT_WIDTH,
                seed=self._seed ^ (bank_flat * 0x9E3779B1),
            )
            state.sketches[bank_flat] = sketch
        return sketch

    def _structure_reset(self, row: RowAddress, reason: str) -> Blackout:
        """Clear every structure and refresh all rows of the accessed rank."""
        state = self._channel_state(row.bank.channel)
        for sketch in state.sketches.values():
            sketch.reset()
        state.rat.clear()
        state.miss_history.clear()
        self.stats.structure_resets += 1
        duration = (
            self.org.rows_per_bank * self.config.timings.reset_refresh_per_row_ns
        )
        return Blackout(
            scope=MitigationScope.RANK,
            channel=row.bank.channel,
            rank=row.bank.rank,
            duration_ns=duration,
            reason=reason,
        )

    # ------------------------------------------------------------------ #

    def on_activation(self, row: RowAddress, now_ns: float) -> TrackerResponse:
        stats = self.stats
        stats.activations_observed += 1

        # Periodic reset of the sketch and RAT every tREFW/3 (no bulk refresh:
        # the threshold of NRH/4 keeps the periodic reset safe, matching the
        # original CoMeT design; only attack-induced early resets pay the
        # full-rank refresh).
        if now_ns >= self._next_periodic_reset_ns:
            for state in self._channels.values():
                for sketch in state.sketches.values():
                    sketch.reset()
                state.rat.clear()
                state.miss_history.clear()
            stats.periodic_resets += 1
            self._next_periodic_reset_ns += (
                self.config.timings.trefw_ns * self.PERIODIC_RESET_FRACTION
            )

        org = self.org
        bank = row.bank
        state = self._channels.get(bank.channel)
        if state is None:
            state = self._channel_state(bank.channel)
        bank_flat = (
            (bank.channel * org.ranks_per_channel + bank.rank)
            * org.bank_groups_per_rank + bank.bank_group
        ) * org.banks_per_group + bank.bank
        sketch = state.sketches.get(bank_flat)
        if sketch is None:
            sketch = self._sketch_for(state, bank_flat)
        estimate = sketch.increment(row.row)

        rat = state.rat
        rat_key = bank_flat * org.rows_per_bank + row.row
        count = rat.get(rat_key)
        if count is not None:
            # Recently mitigated row: rely on its precise RAT counter rather
            # than the (saturated, non-resettable) sketch estimate.
            rat.move_to_end(rat_key)
            if estimate >= self.ct_threshold:
                state.miss_history.append(False)
            if count + 1 < self.ct_threshold:
                rat[rat_key] = count + 1
                return EMPTY_RESPONSE
            rat[rat_key] = 0
            self._note_mitigation()
            return TrackerResponse(mitigations=(row,))
        if estimate < self.ct_threshold:
            return EMPTY_RESPONSE

        # Sketch saturated for a row the RAT does not know: mitigate it and
        # start tracking it precisely.  This is a RAT miss.
        self._note_mitigation()
        miss_history = state.miss_history
        miss_history.append(True)
        if len(rat) >= self.RAT_ENTRIES:
            rat.popitem(last=False)
        rat[rat_key] = 0
        # Early reset when the RAT miss rate over the last 256 saturation
        # events exceeds 25%.
        if (
            len(miss_history) >= self.MISS_HISTORY
            and (sum(miss_history) / len(miss_history))
            > self.MISS_RATE_RESET_THRESHOLD
        ):
            return TrackerResponse(
                mitigations=(row,),
                blackouts=(self._structure_reset(row, "comet-early-reset"),),
            )
        return TrackerResponse(mitigations=(row,))

    def on_refresh_window(self, window_index: int, now_ns: float) -> TrackerResponse:
        for state in self._channels.values():
            for sketch in state.sketches.values():
                sketch.reset()
            state.rat.clear()
            state.miss_history.clear()
        self.stats.periodic_resets += 1
        return EMPTY_RESPONSE

    # ------------------------------------------------------------------ #

    def storage_report(self) -> StorageReport:
        org = self.org
        banks_per_channel = org.banks_per_channel
        ct_bits = banks_per_channel * self.CT_HASHES * self.CT_WIDTH * 8
        rat_bits = self.RAT_ENTRIES * (21 + 8)
        history_bits = self.MISS_HISTORY
        sram_bytes = (ct_bits + history_bits) // 8
        cam_bytes = rat_bits // 8 + 23 * 1024 // 2
        return StorageReport(sram_bytes=sram_bytes, cam_bytes=cam_bytes)
