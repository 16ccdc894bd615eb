"""Row Group Counter (RGC) tables.

A Row Group Counter table tracks the activations of *groups* of rows.  DAPPER
randomises the row-to-group assignment with a low-latency block cipher: the
row's index inside its rank is encrypted, and the hashed value divided by the
group size selects the counter.  Because the cipher is a bijection, the
members of a group can always be recovered by decrypting the ``group_size``
consecutive hashed addresses the group covers -- that is how DAPPER finds the
rows to refresh when a counter reaches the mitigation threshold.

The counters are a plain list of Python ints: DAPPER touches one or two of
them per activation, and reading a numpy element back and storing it costs
more than the increment itself.  The mitigation-time cross-table scan reads
many counters at once through :meth:`RowGroupCounterTable.counts_at`.
"""

from __future__ import annotations

from repro.crypto.llbc import LowLatencyBlockCipher


class RowGroupCounterTable:
    """One RGC table with its own cipher over the rank's row-address space."""

    def __init__(
        self,
        rank_row_bits: int,
        group_size: int,
        seed: int,
        counter_bits: int = 8,
    ):
        if group_size < 1 or group_size & (group_size - 1):
            raise ValueError("group_size must be a positive power of two")
        self.rank_row_bits = rank_row_bits
        self.group_size = group_size
        self._group_shift = group_size.bit_length() - 1
        self.counter_bits = counter_bits
        self._ceiling = (1 << counter_bits) - 1
        self.cipher = LowLatencyBlockCipher(rank_row_bits, seed)
        self.num_groups = (1 << rank_row_bits) // group_size
        self._counters = [0] * self.num_groups
        self._member_cache: dict[int, list[int]] = {}

    # ------------------------------------------------------------------ #
    # Mapping
    # ------------------------------------------------------------------ #

    def group_of(self, rank_row_index: int) -> int:
        """Group index the row currently maps to (depends on the key epoch).

        Not memoized: the cipher's round tables make an encryption four
        table lookups.  On the benchmark's dapper-attack workload a
        per-epoch memo hit 33% of 703,055 calls, and over 300,000 rows of
        which a third revisit an earlier row it measured 947 ns per call
        against 696 ns without (Intel Xeon, 2 vCPUs, Python 3.11); it also
        grew with every distinct row of the epoch.  A stream that re-hashes
        a few rows per epoch, like the mapping-capture attack (about 250
        hashes of 3 rows per epoch), is the case a memo would still serve.
        """
        return self.cipher.encrypt(rank_row_index) >> self._group_shift

    def members(self, group_index: int) -> list[int]:
        """All rank-row indices currently mapped to ``group_index``.

        The decryption of a whole group is cached until the next re-keying,
        because mitigation-heavy scenarios (the refresh attack) repeatedly
        mitigate the same few groups.
        """
        if not 0 <= group_index < self.num_groups:
            raise ValueError(f"group {group_index} out of range")
        cached = self._member_cache.get(group_index)
        if cached is not None:
            return cached
        base = group_index * self.group_size
        members = [
            self.cipher.decrypt(base + offset) for offset in range(self.group_size)
        ]
        self._member_cache[group_index] = members
        return members

    # ------------------------------------------------------------------ #
    # Counters
    # ------------------------------------------------------------------ #

    def count(self, group_index: int) -> int:
        return self._counters[group_index]

    def counts_at(self, group_indices) -> list[int]:
        """Counts of many groups at once, in the order of ``group_indices``."""
        return list(map(self._counters.__getitem__, group_indices))

    def increment(self, group_index: int) -> int:
        """Saturating increment; returns the new value."""
        counters = self._counters
        value = counters[group_index] + 1
        if value > self._ceiling:
            value = self._ceiling
        counters[group_index] = value
        return value

    def set_count(self, group_index: int, value: int) -> None:
        self._counters[group_index] = max(0, value)

    def reset_all(self) -> None:
        self._counters[:] = [0] * self.num_groups

    def rekey(self) -> None:
        """Refresh the cipher keys (row-to-group mapping changes entirely)."""
        self.cipher.rekey()
        self._member_cache.clear()

    def reset_and_rekey(self) -> None:
        self.reset_all()
        self.rekey()

    @property
    def storage_bytes(self) -> int:
        return self.num_groups * self.counter_bits // 8
