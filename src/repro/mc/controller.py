"""The host-side memory controller.

The controller sits between the shared LLC and the DRAM timing model.  For
every request it:

1. decodes the physical address into DRAM coordinates,
2. asks the RowHammer tracker whether the request must be throttled
   (BlockHammer-style mitigations),
3. services the request through :class:`repro.dram.DRAMSystem`,
4. reports the resulting activation (if any) to the tracker and carries out
   whatever the tracker asks for: extra DRAM accesses to in-DRAM counters,
   victim refreshes, bulk group refreshes, or structure-reset blackouts,
5. keeps the optional ground-truth security auditor informed so every
   simulation can also double as a RowHammer-security check.

It also notifies the tracker of refresh-window (tREFW) boundaries, which is
when periodic structure resets and DAPPER's re-keying happen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from repro.config import SystemConfig
from repro.dram.address import AddressMapper, RowAddress
from repro.dram.commands import Blackout, CommandKind, MitigationScope
from repro.dram.dram_system import DRAMSystem
from repro.sim.events.events import (
    BankActivate,
    CounterTraffic,
    GroupRefresh,
    MitigativeRefresh,
    RefreshWindow,
    ResetBlackout,
    Throttle,
)
from repro.trackers.base import GroupMitigation, RowHammerTracker, TrackerResponse


@dataclass
class ControllerStats:
    """Controller-level statistics."""

    requests: int = 0
    read_requests: int = 0
    write_requests: int = 0
    throttled_requests: int = 0
    throttle_time_ns: float = 0.0
    tracker_counter_accesses: int = 0
    mitigation_refreshes: int = 0
    group_mitigations: int = 0
    structure_reset_blackouts: int = 0
    refresh_windows: int = 0


class MemoryController:
    """Services memory requests and drives the RowHammer tracker."""

    def __init__(
        self,
        config: SystemConfig,
        dram: DRAMSystem,
        tracker: RowHammerTracker,
        mapper: AddressMapper | None = None,
        auditor=None,
    ):
        self.config = config
        self.dram = dram
        self.tracker = tracker
        self.mapper = mapper or AddressMapper(config.dram)
        self.auditor = auditor
        self.stats = ControllerStats()
        # The simulation's event bus while it has subscribers, and the
        # pipeline profiler; the simulator attaches both after warm-up.
        # None keeps every emission site below one pointer comparison.
        self.events = None
        self.profiler = None
        self._last_refresh_window = 0
        # Conservative lower bound (1 ns of slack for float rounding) on the
        # first timestamp at which a new refresh window starts; requests
        # before it skip the window bookkeeping, anything at or past it
        # re-runs the exact floor-division check.
        self._next_window_ns = config.timings.trefw_ns - 1.0
        # Hook-override flags: the base-class hooks are documented no-ops
        # (return 0.0 / do nothing), so the hot path skips the calls entirely
        # for trackers that do not override them.  Behaviour-identical.
        tracker_cls = type(tracker)
        self._tracker_notes_source = (
            tracker_cls.note_request_source
            is not RowHammerTracker.note_request_source
        )
        self._tracker_throttles = (
            tracker_cls.throttle_delay_ns is not RowHammerTracker.throttle_delay_ns
        )
        self._tracker_delays_completion = (
            tracker_cls.completion_delay_ns
            is not RowHammerTracker.completion_delay_ns
        )
        self._tracker_extends_act = (
            tracker_cls.activation_extension_ns
            is not RowHammerTracker.activation_extension_ns
        )
        #: No per-request tracker hook and no auditor: :meth:`service_row`
        #: then reduces to stats, the refresh-window guard, the DRAM access
        #: and ``on_activation``, which the batched engine inlines.
        self.hookless = auditor is None and not (
            self._tracker_notes_source
            or self._tracker_throttles
            or self._tracker_delays_completion
            or self._tracker_extends_act
        )

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #

    def service(
        self,
        address: int,
        is_write: bool,
        earliest_ns: float,
        core_id: int = 0,
    ) -> float:
        """Service one request and return its completion time."""
        decoded = self.mapper.decode(address)
        bank_index = decoded.bank_address.flat(self.config.dram)
        return self.service_row(
            self.mapper.row_address_from_flat(bank_index, decoded.row),
            bank_index,
            decoded.channel * self.config.dram.ranks_per_channel + decoded.rank,
            decoded.channel,
            decoded.row,
            is_write,
            earliest_ns,
            core_id,
        )

    def service_row(
        self,
        row_addr: RowAddress,
        bank_index: int,
        rank_index: int,
        channel_index: int,
        row: int,
        is_write: bool,
        earliest_ns: float,
        core_id: int = 0,
    ) -> float:
        """Service one request given predecoded coordinates.

        Single source of truth for the request path: :meth:`service` wraps it
        with address decode, and the batched engine calls it directly with
        coordinates precomputed by :meth:`AddressMapper.decode_batch`.
        """
        stats = self.stats
        stats.requests += 1
        if is_write:
            stats.write_requests += 1
        else:
            stats.read_requests += 1

        if earliest_ns >= self._next_window_ns:
            self._check_refresh_window(earliest_ns)

        tracker = self.tracker
        if self._tracker_notes_source:
            tracker.note_request_source(core_id)

        events = self.events
        throttled = False
        if self._tracker_throttles:
            delay = tracker.throttle_delay_ns(row_addr, earliest_ns)
            if delay > 0.0:
                throttled = True
                stats.throttle_time_ns += delay
                if events is not None:
                    events.emit(Throttle(earliest_ns, core_id, delay))
                earliest_ns += delay

        extra_act = (
            tracker.activation_extension_ns() if self._tracker_extends_act else 0.0
        )
        _start, completion_ns, activated, _row_hit = self.dram.access_flat(
            bank_index,
            rank_index,
            channel_index,
            row,
            is_write,
            earliest_ns,
            extra_act,
        )
        if activated:
            if events is not None:
                events.emit(BankActivate(completion_ns, bank_index, row))
            if self.auditor is not None:
                self.auditor.on_activation(row_addr, completion_ns)
            response = tracker.on_activation(row_addr, completion_ns)
            if not response.is_empty:
                self._apply_response(response, row_addr, completion_ns)

        if self._tracker_delays_completion:
            response_delay = tracker.completion_delay_ns(row_addr, completion_ns)
            if response_delay > 0.0:
                throttled = True
                stats.throttle_time_ns += response_delay
                completion_ns += response_delay

        # A request delayed at both issue and completion still counts once:
        # throttled_requests counts *requests*, throttle_time_ns the delays.
        if throttled:
            stats.throttled_requests += 1

        return completion_ns

    # ------------------------------------------------------------------ #
    # Tracker response handling
    # ------------------------------------------------------------------ #

    def _apply_response(
        self,
        response: TrackerResponse,
        trigger: RowAddress,
        now_ns: float,
    ) -> None:
        events = self.events
        profiler = self.profiler
        started = perf_counter() if profiler is not None else 0.0
        channel = trigger.bank.channel
        rank = trigger.bank.rank

        for _ in range(response.counter_reads):
            self.dram.counter_access(channel, rank, now_ns, is_write=False)
            self.stats.tracker_counter_accesses += 1
        for _ in range(response.counter_writes):
            self.dram.counter_access(channel, rank, now_ns, is_write=True)
            self.stats.tracker_counter_accesses += 1
        if events is not None and (response.counter_reads or response.counter_writes):
            events.emit(
                CounterTraffic(now_ns, response.counter_reads, response.counter_writes)
            )

        blast_radius = self.config.rowhammer.blast_radius
        command = self.config.rowhammer.mitigation_command
        for aggressor in response.mitigations:
            self.dram.victim_refresh(aggressor, blast_radius, command, now_ns)
            self.stats.mitigation_refreshes += 1
            if events is not None:
                events.emit(MitigativeRefresh(now_ns, aggressor))
            if self.auditor is not None:
                self.auditor.on_mitigation(aggressor, blast_radius)

        for group in response.group_mitigations:
            self._apply_group_mitigation(group, now_ns)

        for blackout in response.blackouts:
            self.dram.apply_blackout(blackout, now_ns)
            self.stats.structure_reset_blackouts += 1
            if events is not None:
                events.emit(ResetBlackout(now_ns, blackout))
            # A rank/channel-wide blackout issued by a tracker corresponds to
            # refreshing every row of that scope, so the ground truth resets.
            if self.auditor is not None and blackout.scope in (
                MitigationScope.RANK,
                MitigationScope.CHANNEL,
            ):
                reset_rank = (
                    blackout.rank if blackout.scope is MitigationScope.RANK else None
                )
                self.auditor.on_structure_reset(blackout.channel, reset_rank)
            # Charge the bulk refresh energy as the equivalent number of
            # auto-refresh commands.
            refresh_equivalents = max(
                1, int(blackout.duration_ns / self.config.timings.trfc_ns)
            )
            self.dram.energy.record(CommandKind.REF, refresh_equivalents)

        if profiler is not None:
            profiler.add("mitigation-scan", perf_counter() - started)

    def _apply_group_mitigation(self, group: GroupMitigation, now_ns: float) -> None:
        """Charge a DAPPER-S style bulk refresh of one row group.

        Every bank of the rank refreshes its share of the group's member rows
        in parallel, so the rank is blocked for ``rows_per_bank * victims *
        tVRR`` and the energy of all the victim refreshes is charged.
        """
        blast_radius = self.config.rowhammer.blast_radius
        victims_per_row = 2 * blast_radius
        duration = (
            group.rows_per_bank
            * victims_per_row
            * self.config.timings.vrr_per_victim_ns
        )
        blackout = Blackout(
            scope=MitigationScope.RANK,
            channel=group.channel,
            rank=group.rank,
            duration_ns=duration,
            reason=group.reason,
        )
        self.dram.apply_blackout(blackout, now_ns)
        self.dram.energy.record(CommandKind.VRR, group.num_rows * victims_per_row)
        self.dram.stats.victim_refreshes += group.num_rows
        self.dram.stats.victim_rows_refreshed += group.num_rows * victims_per_row
        self.stats.group_mitigations += 1
        if self.events is not None:
            self.events.emit(
                GroupRefresh(now_ns, group.channel, group.rank, group.num_rows)
            )
        if self.auditor is not None:
            self.auditor.on_group_mitigation(group)

    # ------------------------------------------------------------------ #
    # Refresh window bookkeeping
    # ------------------------------------------------------------------ #

    def _check_refresh_window(self, now_ns: float) -> None:
        trefw = self.config.timings.trefw_ns
        window = int(now_ns // trefw)
        if window <= self._last_refresh_window:
            return
        for crossed in range(self._last_refresh_window + 1, window + 1):
            self.tracker.on_refresh_window(crossed, now_ns)
            if self.events is not None:
                self.events.emit(RefreshWindow(now_ns, crossed))
            if self.auditor is not None:
                self.auditor.on_refresh_window(crossed)
            self.stats.refresh_windows += 1
        self._last_refresh_window = window
        self._next_window_ns = (window + 1) * trefw - 1.0
