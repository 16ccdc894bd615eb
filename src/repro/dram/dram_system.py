"""Request-level DDR5 timing model.

:class:`DRAMSystem` is the timing heart of the reproduction.  It keeps the
mutable state of every bank (open row, next-ACT time, blackout windows), rank
(ACT-to-ACT spacing, refresh blackouts, rank-wide blackouts) and channel (data
bus occupancy, channel-wide blackouts), and turns each memory request into a
completion time while updating that state.

Three kinds of "extra" DRAM work are modelled explicitly because the paper's
results revolve around them:

* **Counter traffic** -- Hydra and START fetch and write back per-row
  RowHammer counters stored in a reserved DRAM region on tracker misses.
  :meth:`DRAMSystem.counter_access` services those accesses so that they
  consume real bank time and data-bus bandwidth.
* **Mitigative refreshes** -- VRR / DRFMsb / RFMsb commands block one bank or
  the same bank across all bank groups for their specified duration
  (:meth:`DRAMSystem.victim_refresh`).
* **Structure resets** -- CoMeT and ABACUS reset their shared tracking
  structures by refreshing *every* row of a rank or channel, blocking it for
  milliseconds (:meth:`DRAMSystem.apply_blackout` with a rank/channel scope).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import MitigationCommand, SystemConfig
from repro.dram.address import BankAddress, RowAddress
from repro.dram.bank import Bank
from repro.dram.commands import Blackout, CommandKind, MitigationScope
from repro.dram.energy import EnergyModel

#: The energy-count keys of :meth:`DRAMSystem.access_flat`, bound once: the
#: same enum members, so ``EnergyModel._counts`` gets the same keys in the
#: same first-insertion order, without an Enum attribute lookup per command.
_ACT = CommandKind.ACT
_RD = CommandKind.RD
_WR = CommandKind.WR


@dataclass
class DRAMStats:
    """Aggregate DRAM statistics for one simulation."""

    reads: int = 0
    writes: int = 0
    activations: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    counter_reads: int = 0
    counter_writes: int = 0
    victim_refreshes: int = 0
    victim_rows_refreshed: int = 0
    blackouts: int = 0
    blackout_time_ns: float = 0.0
    blackout_time_by_reason: dict[str, float] = field(default_factory=dict)


@dataclass(slots=True)
class _RankState:
    next_act_ns: float = 0.0
    blocked_until_ns: float = 0.0


@dataclass(slots=True)
class _ChannelState:
    bus_ready_ns: float = 0.0
    blocked_until_ns: float = 0.0


class DRAMSystem:
    """Timing state machine for the whole DRAM system."""

    #: Number of rows dedicated to the reserved RowHammer-counter region that
    #: Hydra / START place in DRAM.  Counter accesses round-robin over this
    #: region so consecutive tracker misses land on different banks and rows.
    COUNTER_REGION_ROWS = 1024

    def __init__(self, config: SystemConfig, energy: EnergyModel | None = None):
        self.config = config
        self.org = config.dram
        self.timings = config.timings
        self.energy = energy or EnergyModel(
            num_ranks=self.org.channels * self.org.ranks_per_channel
        )
        self.stats = DRAMStats()

        self._banks: list[Bank] = [Bank() for _ in range(self.org.total_banks)]
        self._ranks: list[_RankState] = [
            _RankState()
            for _ in range(self.org.channels * self.org.ranks_per_channel)
        ]
        self._channels: list[_ChannelState] = [
            _ChannelState() for _ in range(self.org.channels)
        ]
        self._counter_cursor = 0
        # Hot-path copies of the (frozen) timing parameters.
        t = config.timings
        self._trp = t.trp_ns
        self._trc = t.trc_ns
        self._trcd = t.trcd_ns
        self._trrd_s = t.trrd_s_ns
        self._tcl = t.tcl_ns
        self._tburst = t.tburst_ns
        self._twr = t.twr_ns
        self._trefi = t.trefi_ns
        self._trfc = t.trfc_ns

    # ------------------------------------------------------------------ #
    # Index helpers
    # ------------------------------------------------------------------ #

    def _bank_index(self, bank: BankAddress) -> int:
        return bank.flat(self.org)

    def _rank_index(self, channel: int, rank: int) -> int:
        return channel * self.org.ranks_per_channel + rank

    def bank_state(self, bank: BankAddress) -> Bank:
        """Expose the mutable bank state (mainly for tests and attacks)."""
        return self._banks[self._bank_index(bank)]

    # ------------------------------------------------------------------ #
    # Main access path
    # ------------------------------------------------------------------ #

    def access_flat(
        self,
        bank_index: int,
        rank_index: int,
        channel_index: int,
        row: int,
        is_write: bool,
        earliest_ns: float,
        extra_act_delay_ns: float = 0.0,
    ) -> tuple[float, float, bool, bool]:
        """Service one request and return its timing, keyed by flat indices.

        Returns ``(start_ns, completion_ns, activated, row_hit)``.  This is
        the single source of truth for request timing: the controller calls
        it with decoded coordinates, and the batched engine with predecoded
        ones.  ``extra_act_delay_ns`` lengthens the activation (used by
        PRAC, whose per-row counter update extends the row cycle).

        Auto-refresh: every rank receives a REF once per tREFI and is
        unavailable for tRFC while it runs, so a request start or an ACT
        that lands in ``[k * tREFI, k * tREFI + tRFC)`` is pushed to the end
        of that REF.  Which rows a REF touches is not modelled.
        """
        # Hot path: ``max`` chains are unrolled into comparisons and the
        # energy helper is inlined (all value-identical -- the operands are
        # non-negative, so tie-breaking cannot differ).
        stats = self.stats
        bank = self._banks[bank_index]
        rank = self._ranks[rank_index]
        channel = self._channels[channel_index]
        trefi = self._trefi
        trfc = self._trfc
        energy_counts = self.energy._counts

        start = earliest_ns
        if bank.ready_ns > start:
            start = bank.ready_ns
        if bank.blocked_until_ns > start:
            start = bank.blocked_until_ns
        if rank.blocked_until_ns > start:
            start = rank.blocked_until_ns
        if channel.blocked_until_ns > start:
            start = channel.blocked_until_ns
        phase = start % trefi
        if phase < trfc:
            start = start + (trfc - phase)

        activated = False
        row_hit = False
        open_row = bank.open_row
        if open_row == row:
            row_hit = True
            stats.row_hits += 1
            col_issue = start
        else:
            if open_row is None:
                stats.row_misses += 1
                act_start = start
            else:
                stats.row_conflicts += 1
                act_start = start + self._trp
            if bank.next_act_ns > act_start:
                act_start = bank.next_act_ns
            if rank.next_act_ns > act_start:
                act_start = rank.next_act_ns
            phase = act_start % trefi
            if phase < trfc:
                act_start = act_start + (trfc - phase)
            activated = True
            bank.activations += 1
            stats.activations += 1
            energy_counts[_ACT] = energy_counts.get(_ACT, 0) + 1
            bank.next_act_ns = act_start + self._trc + extra_act_delay_ns
            rank.next_act_ns = act_start + self._trrd_s
            bank.open_row = row
            col_issue = act_start + self._trcd + extra_act_delay_ns

        transfer_start = col_issue + self._tcl
        if channel.bus_ready_ns > transfer_start:
            transfer_start = channel.bus_ready_ns
        completion = transfer_start + self._tburst
        channel.bus_ready_ns = completion

        if is_write:
            stats.writes += 1
            energy_counts[_WR] = energy_counts.get(_WR, 0) + 1
            ready = completion + self._twr
            if ready > bank.ready_ns:
                bank.ready_ns = ready
        else:
            stats.reads += 1
            energy_counts[_RD] = energy_counts.get(_RD, 0) + 1
            if col_issue > bank.ready_ns:
                bank.ready_ns = col_issue

        return start, completion, activated, row_hit

    # ------------------------------------------------------------------ #
    # Tracker-injected traffic
    # ------------------------------------------------------------------ #

    def counter_access(
        self, channel: int, rank: int, earliest_ns: float, is_write: bool
    ) -> None:
        """Service one access to the reserved in-DRAM RowHammer-counter region.

        Used by trackers that keep per-row counters in DRAM (Hydra's RCT,
        START's spill region).  The access round-robins over a reserved set of
        rows spread across the banks of the rank so that repeated counter
        misses exercise different banks, as the real designs do.  It goes
        straight to :meth:`access_flat`; nothing reads its timing.
        """
        org = self.org
        banks_per_rank = org.bank_groups_per_rank * org.banks_per_group
        self._counter_cursor += 1
        cursor = self._counter_cursor
        rank_index = channel * org.ranks_per_channel + rank
        # The reserved region occupies the top rows of each bank.
        row = org.rows_per_bank - 1 - (
            (cursor // banks_per_rank) % self.COUNTER_REGION_ROWS
        )
        self.access_flat(
            rank_index * banks_per_rank + cursor % banks_per_rank,
            rank_index,
            channel,
            row,
            is_write,
            earliest_ns,
        )
        if is_write:
            self.stats.counter_writes += 1
        else:
            self.stats.counter_reads += 1

    # ------------------------------------------------------------------ #
    # Mitigations and blackouts
    # ------------------------------------------------------------------ #

    def victim_refresh(
        self,
        aggressor: RowAddress,
        blast_radius: int,
        command: MitigationCommand,
        now_ns: float,
    ) -> float:
        """Issue a mitigative refresh for the victims of ``aggressor``.

        Returns the blocking duration charged for the refresh.  The blocking
        scope depends on the command: VRR blocks only the aggressor's bank,
        while DRFMsb / RFMsb block the same bank index across all bank groups
        of the rank.
        """
        t = self.timings
        victims = 2 * blast_radius
        if command is MitigationCommand.VRR:
            duration = t.vrr_per_victim_ns * victims
            scope = MitigationScope.BANK
            kind = CommandKind.VRR
        elif command is MitigationCommand.DRFM_SB:
            duration = t.drfm_sb_ns
            scope = MitigationScope.SAME_BANK_ALL_GROUPS
            kind = CommandKind.DRFM_SB
        else:
            duration = t.rfm_sb_ns
            scope = MitigationScope.SAME_BANK_ALL_GROUPS
            kind = CommandKind.RFM_SB

        bank = aggressor.bank
        blackout = Blackout(
            scope=scope,
            channel=bank.channel,
            rank=bank.rank,
            bank_group=bank.bank_group,
            bank=bank.bank,
            duration_ns=duration,
            reason=f"mitigation:{command.value}",
        )
        self.apply_blackout(blackout, now_ns)
        self.energy.record(kind)
        if victims > 1:
            self.energy.record(CommandKind.VRR, victims - 1)
        self.stats.victim_refreshes += 1
        self.stats.victim_rows_refreshed += victims
        return duration

    def apply_blackout(self, blackout: Blackout, now_ns: float) -> float:
        """Apply a blocking window to the banks covered by ``blackout``.

        Returns the time at which the blackout ends.  The blackout begins when
        the affected structure is next free (so back-to-back resets queue up
        rather than overlap).
        """
        org = self.org
        end = now_ns + blackout.duration_ns
        self.stats.blackouts += 1
        self.stats.blackout_time_ns += blackout.duration_ns
        per_reason = self.stats.blackout_time_by_reason
        per_reason[blackout.reason] = (
            per_reason.get(blackout.reason, 0.0) + blackout.duration_ns
        )

        if blackout.scope is MitigationScope.BANK:
            bank = BankAddress(
                blackout.channel, blackout.rank, blackout.bank_group, blackout.bank
            )
            self._banks[self._bank_index(bank)].block_until(end)
        elif blackout.scope is MitigationScope.SAME_BANK_ALL_GROUPS:
            for group in range(org.bank_groups_per_rank):
                bank = BankAddress(
                    blackout.channel, blackout.rank, group, blackout.bank
                )
                self._banks[self._bank_index(bank)].block_until(end)
        elif blackout.scope is MitigationScope.RANK:
            rank_state = self._ranks[self._rank_index(blackout.channel, blackout.rank)]
            rank_state.blocked_until_ns = max(rank_state.blocked_until_ns, end)
            self._close_rows_in_rank(blackout.channel, blackout.rank)
        elif blackout.scope is MitigationScope.CHANNEL:
            channel_state = self._channels[blackout.channel]
            channel_state.blocked_until_ns = max(channel_state.blocked_until_ns, end)
            for rank in range(org.ranks_per_channel):
                self._close_rows_in_rank(blackout.channel, rank)
        else:  # pragma: no cover - exhaustive over the enum
            raise ValueError(f"unknown blackout scope {blackout.scope}")
        return end

    def _close_rows_in_rank(self, channel: int, rank: int) -> None:
        """Precharge every bank in a rank (rows are closed by a bulk refresh)."""
        org = self.org
        for group in range(org.bank_groups_per_rank):
            for bank in range(org.banks_per_group):
                addr = BankAddress(channel, rank, group, bank)
                self._banks[self._bank_index(addr)].precharge()

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def row_buffer_hit_rate(self) -> float:
        total = self.stats.row_hits + self.stats.row_misses + self.stats.row_conflicts
        if total == 0:
            return 0.0
        return self.stats.row_hits / total

    def energy_report(self, elapsed_ns: float):
        """Forward to the energy model, including auto-refresh energy."""
        refreshes = int(elapsed_ns // self._trefi)  # REF commands per rank
        num_ranks = self.org.channels * self.org.ranks_per_channel
        self.energy.record(CommandKind.REF, refreshes * num_ranks)
        return self.energy.report(elapsed_ns)
