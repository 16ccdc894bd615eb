"""Common machinery for attack request generators.

Attack kernels implement the same :class:`repro.cpu.trace.RequestGenerator`
protocol as benign workload traces, so the simulator schedules them on a core
like any other application: their activation rate is bounded by the core's
memory-level parallelism and by DRAM timing, exactly as a real attacker
process would be.

Most attacks bypass the shared LLC (``bypasses_llc = True``): real attack
kernels either flush their lines or walk footprints far larger than the LLC,
and what matters to the attack is that every access reaches DRAM and causes a
row activation.

Paper context: the threat model of Section III -- the attacker is an
unprivileged process on one (or, with core plans, several) of the cores.
Key parameters: ``GAP_INSTRUCTIONS`` (one instruction of work per access)
and the deep MLP override granted by the experiment layer, which together
set the attacker's peak activation rate.
"""

from __future__ import annotations

from repro.config import DRAMOrganization
from repro.crypto.prng import XorShift64
from repro.cpu.trace import TraceEntry
from repro.dram.address import AddressMapper


class AttackGenerator:
    """Base class for attack request streams."""

    #: Name used by the evaluation harness and reports.
    name = "attack"
    bypasses_llc = True

    #: Attackers issue an access after a single instruction of work.
    GAP_INSTRUCTIONS = 1

    def __init__(self, org: DRAMOrganization, mapper: AddressMapper, seed: int = 1):
        self.org = org
        self.mapper = mapper
        self.rng = XorShift64(seed or 1)
        self.requests_generated = 0

    # ------------------------------------------------------------------ #

    def _entry(self, address: int, is_write: bool = False) -> TraceEntry:
        self.requests_generated += 1
        return TraceEntry(
            gap_instructions=self.GAP_INSTRUCTIONS,
            address=address,
            is_write=is_write,
        )

    def _encode(
        self,
        channel: int,
        rank: int,
        bank_local: int,
        row: int,
        column: int = 0,
    ) -> int:
        """Encode a (channel, rank, rank-local bank, row) target."""
        org = self.org
        bank_group = bank_local // org.banks_per_group
        bank = bank_local % org.banks_per_group
        return self.mapper.encode(
            channel=channel,
            rank=rank,
            bank_group=bank_group,
            bank=bank,
            row=row % org.rows_per_bank,
            column=column % org.lines_per_row,
        )

    def next_entry(self) -> TraceEntry:  # pragma: no cover - overridden
        raise NotImplementedError

    # ------------------------------------------------------------------ #

    def _cycle_batch(self, count: int):
        """Batched equivalent of the read-only sequence-cycling next_entry.

        Subclasses cycling ``_sequence`` alias ``next_batch`` to this; the
        streaming kernels have closed-form ``next_batch`` methods of their
        own, and a kernel with neither is driven per entry by
        :func:`repro.cpu.trace.generator_batch`.
        """
        sequence = self._sequence
        length = len(sequence)
        cursor = self._cursor
        if count <= length - cursor:
            addresses = sequence[cursor:cursor + count]
        else:
            addresses = sequence[cursor:]
            remaining = count - (length - cursor)
            full, tail = divmod(remaining, length)
            addresses = addresses + sequence * full + sequence[:tail]
        self._cursor = (cursor + count) % length
        self.requests_generated += count
        return [self.GAP_INSTRUCTIONS] * count, addresses, [False] * count
