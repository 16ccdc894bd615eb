"""Cache thrashing: the non-RowHammer baseline Performance Attack.

The attacker streams reads over a footprint many times larger than the shared
LLC, evicting the benign cores' working sets and consuming DRAM bandwidth.
The paper uses this attack as the yardstick Perf-Attacks are compared against
(Section III, Figures 1 and 3-5: roughly a 40% average slowdown at the
baseline configuration).  Key parameter: the streamed footprint, a multiple
of the LLC size so no line survives between passes.
"""

from __future__ import annotations

from repro.attacks.base import AttackGenerator
from repro.config import DRAMOrganization
from repro.cpu.trace import TraceEntry
from repro.dram.address import AddressMapper


class CacheThrashingAttack(AttackGenerator):
    """Streams over a large footprint through the LLC."""

    name = "cache-thrashing"
    bypasses_llc = False

    def __init__(
        self,
        org: DRAMOrganization,
        mapper: AddressMapper,
        seed: int = 1,
        footprint_bytes: int = 16 * 1024 * 1024,
    ):
        super().__init__(org, mapper, seed)
        line = org.line_size_bytes
        total_lines = org.total_bytes // line
        self.footprint_lines = min(footprint_bytes // line, total_lines // 2)
        # Walk the upper half of memory so the footprint does not overlap the
        # benign cores' private regions.
        self.base_line = total_lines // 2
        self._cursor = 0

    def next_entry(self) -> TraceEntry:
        line = self.base_line + self._cursor
        self._cursor = (self._cursor + 1) % self.footprint_lines
        return self._entry(line * self.org.line_size_bytes)

    def next_batch(self, count: int):
        """Closed form of ``count`` :meth:`next_entry` calls: the addresses
        of lines ``base_line + (cursor + k) % footprint_lines``."""
        line_size = self.org.line_size_bytes
        footprint = self.footprint_lines
        cursor = self._cursor
        addresses: list[int] = []
        left = count
        while left:
            take = min(footprint - cursor, left)
            first = (self.base_line + cursor) * line_size
            addresses += range(first, first + take * line_size, line_size)
            cursor = (cursor + take) % footprint
            left -= take
        self._cursor = cursor
        self.requests_generated += count
        return [self.GAP_INSTRUCTIONS] * count, addresses, [False] * count
