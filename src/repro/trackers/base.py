"""Tracker interface shared by every RowHammer mitigation.

The memory controller calls into the tracker at two points:

* :meth:`RowHammerTracker.throttle_delay_ns` before servicing a request, so
  throttling mitigations (BlockHammer) can delay suspicious activations;
* :meth:`RowHammerTracker.on_activation` after every row activation, which
  returns a :class:`TrackerResponse` describing the work the mitigation needs
  the memory controller to perform: extra DRAM accesses to in-DRAM counters,
  mitigative refreshes for specific aggressor rows, bulk row-group refreshes,
  or full structure resets that blank out a rank or channel.

Every tracker also reports its storage cost (:class:`StorageReport`) so the
Table III comparison can be regenerated from the implementations themselves.

Paper context: this interface realises the controller/tracker interaction of
the paper's evaluation methodology (Section IV); the response vocabulary
(mitigations, group mitigations, counter traffic, blackouts) covers every
mechanism the Perf-Attacks of Section III exploit.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable

from repro.config import SystemConfig
from repro.dram.address import RowAddress
from repro.dram.commands import Blackout


@dataclass(frozen=True)
class GroupMitigation:
    """A bulk mitigative refresh of one row group (DAPPER-S style).

    Rather than enumerate hundreds of member rows eagerly, the mitigation
    carries a membership predicate over the rank's flat row index space; the
    memory controller charges the per-bank refresh cost analytically and the
    security auditor uses the predicate to reset the rows it tracks.
    """

    channel: int
    rank: int
    num_rows: int
    rows_per_bank: float
    covers: Callable[[int], bool]
    reason: str = "group-mitigation"


@dataclass(frozen=True)
class TrackerResponse:
    """Work requested from the memory controller after one activation."""

    counter_reads: int = 0
    counter_writes: int = 0
    mitigations: tuple[RowAddress, ...] = ()
    group_mitigations: tuple[GroupMitigation, ...] = ()
    blackouts: tuple[Blackout, ...] = ()

    @property
    def is_empty(self) -> bool:
        return (
            not self.counter_reads
            and not self.counter_writes
            and not self.mitigations
            and not self.group_mitigations
            and not self.blackouts
        )


#: Response used on the fast path when a tracker has nothing to request.
EMPTY_RESPONSE = TrackerResponse()

#: Shared responses that carry only counter traffic, indexed
#: ``COUNTER_TRAFFIC[counter_reads][counter_writes]`` for up to one read and
#: one write (``[0][0]`` is :data:`EMPTY_RESPONSE`).  Trackers with in-DRAM
#: counters return these, and build a fresh response only when it carries
#: mitigations or blackouts.
COUNTER_TRAFFIC = (
    (EMPTY_RESPONSE, TrackerResponse(counter_writes=1)),
    (
        TrackerResponse(counter_reads=1),
        TrackerResponse(counter_reads=1, counter_writes=1),
    ),
)


@dataclass
class TrackerStats:
    """Aggregate statistics every tracker maintains."""

    activations_observed: int = 0
    mitigations_issued: int = 0
    rows_mitigated: int = 0
    counter_reads: int = 0
    counter_writes: int = 0
    structure_resets: int = 0
    throttled_requests: int = 0
    throttle_time_ns: float = 0.0
    periodic_resets: int = 0


@dataclass(frozen=True)
class StorageReport:
    """Storage cost of a tracker, normalised per 32GB of DRAM (Table III)."""

    sram_bytes: int = 0
    cam_bytes: int = 0
    dram_bytes: int = 0
    reserved_llc_bytes: int = 0

    @property
    def sram_kb(self) -> float:
        return self.sram_bytes / 1024.0

    @property
    def cam_kb(self) -> float:
        return self.cam_bytes / 1024.0

    def die_area_mm2(self) -> float:
        """Rough die-area estimate following the paper's methodology.

        The paper scales published SRAM/CAM macro areas; we use the same
        per-KB constants that reproduce its Table III figures
        (~0.00078 mm^2/KB of SRAM and ~0.0042 mm^2/KB of CAM).
        """
        return 0.00078 * self.sram_kb + 0.0042 * self.cam_kb


class RowHammerTracker(abc.ABC):
    """Abstract base class of every host-side RowHammer mitigation."""

    #: Human-readable tracker name used by the evaluation harness.
    name: str = "base"

    #: The simulation's event bus, attached by the simulator only while it
    #: has subscribers.  Class attribute so unobserved instances carry no
    #: per-object cost.
    events = None

    def __init__(self, config: SystemConfig):
        self.config = config
        self.org = config.dram
        self.nrh = config.rowhammer.nrh
        self.mitigation_threshold = config.rowhammer.mitigation_threshold
        self.stats = TrackerStats()

    # ------------------------------------------------------------------ #
    # Memory-controller hooks
    # ------------------------------------------------------------------ #

    def note_request_source(self, core_id: int) -> None:
        """Inform the tracker which core issued the request being serviced.

        Most mitigations ignore the requester; thread-attribution schemes such
        as the BreakHammer shim use it to charge triggered mitigations to the
        responsible hardware thread.
        """

    def throttle_delay_ns(self, row: RowAddress, now_ns: float) -> float:
        """Extra delay to impose on a request before it activates ``row``.

        Pre-access throttling is the security mechanism of BlockHammer-style
        mitigations: the delayed request also activates later, so a row's
        activation rate is genuinely bounded.
        """
        return 0.0

    def completion_delay_ns(self, row: RowAddress, completion_ns: float) -> float:
        """Extra delay to add to the *response* of the request just serviced.

        Response-side throttling slows the requesting core (its next requests
        wait for this completion) without moving the DRAM access itself, so it
        does not hold banks hostage for co-running applications.  It is the
        hook used by performance-oriented throttling such as the BreakHammer
        shim; mitigations that need to bound activation rates for security
        must use :meth:`throttle_delay_ns` instead.
        """
        return 0.0

    def activation_extension_ns(self) -> float:
        """Extra time every activation takes (PRAC-style counter updates)."""
        return 0.0

    @abc.abstractmethod
    def on_activation(self, row: RowAddress, now_ns: float) -> TrackerResponse:
        """Observe an activation of ``row`` at ``now_ns`` and request work."""

    def on_refresh_window(self, window_index: int, now_ns: float) -> TrackerResponse:
        """Hook called when the simulation crosses a tREFW boundary."""
        return EMPTY_RESPONSE

    # ------------------------------------------------------------------ #
    # Reporting / configuration
    # ------------------------------------------------------------------ #

    def configure_llc(self, llc) -> None:
        """Allow trackers (START) to reserve LLC capacity before the run."""

    @abc.abstractmethod
    def storage_report(self) -> StorageReport:
        """Storage cost normalised to one 32GB DDR5 channel."""

    def table_occupancy(self) -> float | None:
        """Fill fraction of the tracker's summary table, if it has one.

        ``None`` (the default) means "no table to report"; the metrics
        sampler then omits the ``tracker.table_occupancy`` gauge."""
        return None

    # Helper used by subclasses -----------------------------------------

    def _note_activation(self) -> None:
        self.stats.activations_observed += 1

    def _note_mitigation(self, rows: int = 1) -> None:
        self.stats.mitigations_issued += 1
        self.stats.rows_mitigated += rows
