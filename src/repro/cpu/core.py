"""MLP-limited core timing model.

Each core turns a stream of LLC-level accesses into issue times and, from the
completion times the memory hierarchy reports back, into an IPC figure.  The
model is the standard fast-simulation abstraction of an out-of-order core:

* the core executes instructions at its peak rate between memory accesses;
* it can overlap up to ``effective_mlp`` outstanding read misses, where the
  effective memory-level parallelism is limited both by the miss rate (how
  many misses fit in a 128-entry ROB) and by a hard cap;
* when all MLP slots are full the core stalls until the oldest miss returns;
* writes are posted and never block the core.

This captures what the paper's results rely on: a core whose requests are
delayed -- by counter traffic stealing bandwidth, by mitigative refreshes, or
by multi-millisecond structure resets -- retires instructions more slowly in
direct proportion to those delays.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.config import CoreConfig
from repro.cpu.trace import RequestGenerator, TraceEntry


@dataclass(frozen=True)
class CoreResult:
    """Final per-core statistics of one simulation."""

    core_id: int
    instructions: int
    requests: int
    finish_time_ns: float
    ipc: float
    is_attacker: bool


class CoreModel:
    """Timing state of one core during a simulation."""

    def __init__(
        self,
        core_id: int,
        config: CoreConfig,
        generator: RequestGenerator,
        request_budget: int | None,
        mean_gap_instructions: float = 50.0,
        is_attacker: bool = False,
        max_outstanding_override: int | None = None,
    ):
        self.core_id = core_id
        self.config = config
        self.generator = generator
        self.request_budget = request_budget
        self.is_attacker = is_attacker

        gap = max(1.0, mean_gap_instructions)
        rob_limited = max(1, int(config.rob_entries // gap))
        max_outstanding = (
            config.max_outstanding_misses
            if max_outstanding_override is None
            else max_outstanding_override
        )
        self.effective_mlp = max(1, min(max_outstanding, rob_limited))

        self.cpu_time_ns = 0.0
        self.instructions_retired = 0
        self.requests_issued = 0
        self._outstanding: list[float] = []
        self._budget_instructions: int | None = None
        self._budget_finish_ns: float | None = None

    # ------------------------------------------------------------------ #
    # Scheduling interface used by the simulator
    # ------------------------------------------------------------------ #

    @property
    def budget_reached(self) -> bool:
        """Whether this core has issued its full request budget."""
        return (
            self.request_budget is not None
            and self.requests_issued >= self.request_budget
        )

    def next_event_time(self) -> float:
        """Earliest time at which the core could issue its next access."""
        if self._outstanding and len(self._outstanding) >= self.effective_mlp:
            return max(self.cpu_time_ns, self._outstanding[0])
        return self.cpu_time_ns

    def begin_request(self, entry: TraceEntry) -> float:
        """Account for the compute gap before ``entry`` and return its issue time."""
        gap_instructions = entry.gap_instructions
        peak = self.config.peak_instructions_per_ns
        gap_ns = gap_instructions / peak
        issue = self.cpu_time_ns + gap_ns
        if len(self._outstanding) >= self.effective_mlp:
            release = heapq.heappop(self._outstanding)
            issue = max(issue, release)
        self.cpu_time_ns = issue
        self.instructions_retired += gap_instructions
        self.requests_issued += 1
        return issue

    def complete_read(self, completion_ns: float) -> None:
        """Register the completion time of an in-flight read."""
        heapq.heappush(self._outstanding, completion_ns)

    def note_progress(self) -> None:
        """Freeze the budget statistics the first time the budget is reached."""
        if self.budget_reached and self._budget_instructions is None:
            self._budget_instructions = self.instructions_retired
            drain = max(self._outstanding) if self._outstanding else self.cpu_time_ns
            self._budget_finish_ns = max(self.cpu_time_ns, drain)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def finish_time_ns(self) -> float:
        if self._budget_finish_ns is not None:
            return self._budget_finish_ns
        drain = max(self._outstanding) if self._outstanding else self.cpu_time_ns
        return max(self.cpu_time_ns, drain)

    def result(self) -> CoreResult:
        instructions = (
            self._budget_instructions
            if self._budget_instructions is not None
            else self.instructions_retired
        )
        finish = self.finish_time_ns()
        cycles = finish * self.config.freq_ghz
        ipc = instructions / cycles if cycles > 0 else 0.0
        return CoreResult(
            core_id=self.core_id,
            instructions=instructions,
            requests=self.requests_issued,
            finish_time_ns=finish,
            ipc=ipc,
            is_attacker=self.is_attacker,
        )
