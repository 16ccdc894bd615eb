"""BreakHammer-style thread throttling composed with any tracker.

The paper's related-work section (Section VII-A) describes BreakHammer, a
concurrent proposal that does not mitigate RowHammer itself but *attributes*
every triggered mitigation to the hardware thread whose request caused it and
throttles the memory requests of threads that trigger disproportionately many.
The paper notes that DAPPER "can be combined with BreakHammer to enhance
protection against Perf-Attacks"; this module provides that composition.

:class:`BreakHammerShim` wraps an inner :class:`RowHammerTracker`.  It passes
every hook through unchanged, but it also:

* remembers which core issued the request currently being serviced (the
  memory controller reports this through
  :meth:`repro.trackers.base.RowHammerTracker.note_request_source`);
* charges that core one "mitigation trigger" whenever the inner tracker's
  response contains mitigations, group mitigations or structure-reset
  blackouts;
* once a core's trigger count within the current scoring epoch exceeds both a
  minimum count and a multiple of the other cores' average, rate-limits that
  core by delaying the *responses* of its memory requests so that they are
  spaced at least :data:`BreakHammerShim.MIN_SPACING_NS` apart.  Delaying the
  response (rather than the DRAM access) slows the suspect core's issue rate
  without holding DRAM banks hostage for the co-running benign applications.

Scores are halved at every refresh-window boundary so a benign phase change
does not keep a core blacklisted forever (BreakHammer uses a similar decay).
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.dram.address import RowAddress
from repro.trackers.base import (
    RowHammerTracker,
    StorageReport,
    TrackerResponse,
)


class BreakHammerShim(RowHammerTracker):
    """Per-thread mitigation attribution and throttling around an inner tracker."""

    name = "breakhammer"

    #: A core is never throttled before it has triggered this many mitigations
    #: in the current scoring epoch.
    MIN_TRIGGERS = 8
    #: A core is throttled once its trigger count exceeds this multiple of the
    #: mean trigger count across all cores seen so far in the epoch.
    SUSPECT_RATIO = 2.0
    #: Minimum spacing enforced between consecutive *responses* delivered to a
    #: suspect core.  With a deep outstanding-miss window an attack kernel
    #: completes a request every few nanoseconds, so a 60 ns response spacing
    #: cuts its activation rate by an order of magnitude while leaving benign
    #: cores (which are never suspects) untouched.
    MIN_SPACING_NS = 60.0

    def __init__(self, config: SystemConfig, inner: RowHammerTracker):
        super().__init__(config)
        self.inner = inner
        self.name = f"breakhammer({inner.name})"
        self._triggers: dict[int, int] = {}
        self._next_allowed_ns: dict[int, float] = {}
        self._current_core = 0

    # ------------------------------------------------------------------ #
    # Scoring helpers
    # ------------------------------------------------------------------ #

    def trigger_count(self, core_id: int) -> int:
        """Mitigation triggers attributed to ``core_id`` this epoch."""
        return self._triggers.get(core_id, 0)

    def is_suspect(self, core_id: int) -> bool:
        """Whether ``core_id`` currently exceeds the throttling criterion.

        A core is suspect once it has triggered at least :data:`MIN_TRIGGERS`
        mitigations this epoch *and* its trigger count exceeds
        :data:`SUSPECT_RATIO` times the mean trigger count of the *other*
        observed cores (with a floor of one trigger, so a lone heavy triggerer
        among otherwise quiet cores is still caught).
        """
        count = self._triggers.get(core_id, 0)
        if count < self.MIN_TRIGGERS:
            return False
        others = [c for core, c in self._triggers.items() if core != core_id]
        if not others:
            return True
        mean_others = max(1.0, sum(others) / len(others))
        return count > self.SUSPECT_RATIO * mean_others

    def _attribute(self, response: TrackerResponse) -> None:
        triggered = bool(
            response.mitigations
            or response.group_mitigations
            or response.blackouts
        )
        if triggered:
            core = self._current_core
            self._triggers[core] = self._triggers.get(core, 0) + 1
        # Mirror the inner tracker's mitigation activity so reports built from
        # the shim's statistics stay meaningful.
        if response.mitigations or response.group_mitigations:
            self.stats.mitigations_issued += 1
            self.stats.rows_mitigated += len(response.mitigations) + sum(
                group.num_rows for group in response.group_mitigations
            )
        self.stats.counter_reads += response.counter_reads
        self.stats.counter_writes += response.counter_writes
        self.stats.structure_resets += len(response.blackouts)

    # ------------------------------------------------------------------ #
    # Tracker interface (delegation plus throttling)
    # ------------------------------------------------------------------ #

    def note_request_source(self, core_id: int) -> None:
        self._current_core = core_id
        # Register the core even if it never triggers a mitigation: the
        # suspect criterion compares against the mean over every observed
        # hardware thread, not just the ones that triggered something.
        self._triggers.setdefault(core_id, 0)
        self.inner.note_request_source(core_id)

    def throttle_delay_ns(self, row: RowAddress, now_ns: float) -> float:
        return self.inner.throttle_delay_ns(row, now_ns)

    def completion_delay_ns(self, row: RowAddress, completion_ns: float) -> float:
        """Rate-limit the responses of a suspect core.

        The delay is added to the *response* seen by the requesting core, so
        the core's outstanding-miss window drains more slowly and its request
        rate drops, while the DRAM access itself stays where it was -- benign
        sharers of the same banks are unaffected.
        """
        extra = self.inner.completion_delay_ns(row, completion_ns)
        core = self._current_core
        if self.is_suspect(core):
            allowed = self._next_allowed_ns.get(core, 0.0)
            spacing_delay = max(0.0, allowed - (completion_ns + extra))
            self._next_allowed_ns[core] = (
                max(completion_ns + extra, allowed) + self.MIN_SPACING_NS
            )
            if spacing_delay > 0.0:
                self.stats.throttled_requests += 1
                self.stats.throttle_time_ns += spacing_delay
            extra += spacing_delay
        return extra

    def activation_extension_ns(self) -> float:
        return self.inner.activation_extension_ns()

    def on_activation(self, row: RowAddress, now_ns: float) -> TrackerResponse:
        self._note_activation()
        response = self.inner.on_activation(row, now_ns)
        self._attribute(response)
        return response

    def on_refresh_window(self, window_index: int, now_ns: float) -> TrackerResponse:
        # Decay rather than clear: an attacker that hammers across windows
        # stays suspect, a benign phase that triggered a burst recovers.
        self._triggers = {
            core: count // 2 for core, count in self._triggers.items() if count > 1
        }
        self._next_allowed_ns.clear()
        return self.inner.on_refresh_window(window_index, now_ns)

    @property
    def events(self):
        """The event bus, held by the inner tracker, which emits into it."""
        return self.inner.events

    @events.setter
    def events(self, bus) -> None:
        self.inner.events = bus

    def configure_llc(self, llc) -> None:
        self.inner.configure_llc(llc)

    def table_occupancy(self) -> float | None:
        return self.inner.table_occupancy()

    def storage_report(self) -> StorageReport:
        inner = self.inner.storage_report()
        # One 16-bit trigger counter per hardware thread.
        score_bytes = 2 * self.config.cores.num_cores
        return StorageReport(
            sram_bytes=inner.sram_bytes + score_bytes,
            cam_bytes=inner.cam_bytes,
            dram_bytes=inner.dram_bytes,
            reserved_llc_bytes=inner.reserved_llc_bytes,
        )
