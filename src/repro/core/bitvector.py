"""Per-bank bit-vectors for DAPPER-H's streaming-attack filter.

DAPPER-H attaches a per-bank bit-vector to every entry of its first RGC table.
The first activation a group sees from a given bank only sets the bank's bit
(it does not increment the counter); subsequent activations from a bank whose
bit is already set increment the counter and clear every other bank's bit.
This stops a streaming attack -- which touches every row once, spread across
banks -- from inflating the group counters, while a genuine aggressor that
hammers the same bank keeps incrementing normally.
"""

from __future__ import annotations


class PerBankBitVector:
    """Bit-vectors (one per RGC entry) over the banks of a rank."""

    def __init__(self, num_entries: int, num_banks: int):
        if num_entries < 1 or num_banks < 1:
            raise ValueError("num_entries and num_banks must be positive")
        self.num_entries = num_entries
        self.num_banks = num_banks
        self._bits = [0] * num_entries

    def observe(self, entry_index: int, bank_index: int) -> bool:
        """Observe an activation from ``bank_index`` for ``entry_index``.

        Returns ``True`` if the activation should increment the RGC (the
        bank's bit was already set); in that case every other bank's bit is
        cleared.  Returns ``False`` if the activation only set the bit.
        """
        if not 0 <= bank_index < self.num_banks:
            raise ValueError(f"bank index {bank_index} out of range")
        mask = 1 << bank_index
        current = self._bits[entry_index]
        if current & mask:
            self._bits[entry_index] = mask
            return True
        self._bits[entry_index] = current | mask
        return False

    def bits(self, entry_index: int) -> int:
        return self._bits[entry_index]

    def clear_entry(self, entry_index: int) -> None:
        self._bits[entry_index] = 0

    def reset_all(self) -> None:
        self._bits[:] = [0] * self.num_entries

    @property
    def storage_bytes(self) -> int:
        return self.num_entries * self.num_banks // 8
