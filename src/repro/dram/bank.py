"""Per-bank state for the request-level DRAM timing model."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class Bank:
    """Mutable timing state of one DRAM bank.

    ``open_row``       the row currently held in the row buffer (or ``None``)
    ``ready_ns``       earliest time the bank can accept a new request
    ``next_act_ns``    earliest time a new ACT may be issued (tRC spacing)
    ``blocked_until_ns`` end of any mitigation blackout that targets the bank
    """

    open_row: int | None = None
    ready_ns: float = 0.0
    next_act_ns: float = 0.0
    blocked_until_ns: float = 0.0
    activations: int = field(default=0)
    row_hits: int = field(default=0)
    row_misses: int = field(default=0)
    row_conflicts: int = field(default=0)

    def block_until(self, until_ns: float) -> None:
        """Extend the bank's blackout window (mitigative refresh, reset, ...)."""
        if until_ns > self.blocked_until_ns:
            self.blocked_until_ns = until_ns
        if until_ns > self.ready_ns:
            self.ready_ns = until_ns

    def precharge(self) -> None:
        """Close the open row (used after refreshes and structure resets)."""
        self.open_row = None
