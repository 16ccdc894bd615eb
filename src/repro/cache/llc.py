"""Shared set-associative last-level cache (LLC).

The LLC matters to the paper in three ways:

* benign workloads filter most of their traffic through it, so their DRAM
  demand depends on their working-set size relative to the LLC;
* the **cache-thrashing attack** (the paper's non-RowHammer baseline attack)
  works by evicting the benign cores' data;
* **START** reserves half of the LLC for RowHammer counters, shrinking the
  capacity available to data and adding counter fetch/writeback traffic.

The model is a conventional set-associative cache with per-set LRU
replacement, per-core statistics, and support for reserving ways
(:meth:`SharedLLC.reserve_ways`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.config import CacheConfig


@dataclass
class CacheStats:
    """Per-core and aggregate LLC statistics."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    per_core_hits: dict[int, int] = field(default_factory=dict)
    per_core_misses: dict[int, int] = field(default_factory=dict)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def core_hit_rate(self, core_id: int) -> float:
        hits = self.per_core_hits.get(core_id, 0)
        misses = self.per_core_misses.get(core_id, 0)
        total = hits + misses
        return hits / total if total else 0.0


@dataclass(frozen=True)
class CacheAccessResult:
    """Outcome of one LLC access."""

    hit: bool
    writeback: bool          # a dirty line was evicted and must be written to DRAM
    evicted_line: int | None = None


class SharedLLC:
    """Set-associative, LRU, write-back shared last-level cache."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self._num_sets = config.num_sets
        self._data_ways = config.ways
        self._reserved_ways = 0
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(self._num_sets)
        ]
        self.stats = CacheStats()

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #

    @property
    def data_ways(self) -> int:
        """Ways available to demand data (total ways minus reserved ways)."""
        return self._data_ways

    @property
    def reserved_ways(self) -> int:
        return self._reserved_ways

    def reserve_ways(self, ways: int) -> None:
        """Reserve ``ways`` ways per set for non-data use (e.g. START counters).

        Reserving ways shrinks the associativity available to demand data; any
        line that no longer fits is evicted immediately.
        """
        if not 0 <= ways < self.config.ways:
            raise ValueError(
                f"cannot reserve {ways} of {self.config.ways} ways"
            )
        self._reserved_ways = ways
        self._data_ways = self.config.ways - ways
        for cache_set in self._sets:
            while len(cache_set) > self._data_ways:
                _, dirty = cache_set.popitem(last=False)
                self.stats.evictions += 1
                if dirty:
                    self.stats.dirty_evictions += 1

    @property
    def data_capacity_bytes(self) -> int:
        return self._num_sets * self._data_ways * self.config.line_size_bytes

    # ------------------------------------------------------------------ #
    # Access path
    # ------------------------------------------------------------------ #

    def _set_index(self, address: int) -> int:
        return (address // self.config.line_size_bytes) % self._num_sets

    def _tag(self, address: int) -> int:
        return address // (self.config.line_size_bytes * self._num_sets)

    def access(self, address: int, is_write: bool, core_id: int = 0) -> CacheAccessResult:
        """Perform one access; allocate on miss; return hit/writeback status."""
        set_index = self._set_index(address)
        tag = self._tag(address)
        cache_set = self._sets[set_index]

        if tag in cache_set:
            cache_set.move_to_end(tag)
            if is_write:
                cache_set[tag] = True
            self.stats.hits += 1
            self.stats.per_core_hits[core_id] = (
                self.stats.per_core_hits.get(core_id, 0) + 1
            )
            return CacheAccessResult(hit=True, writeback=False)

        self.stats.misses += 1
        self.stats.per_core_misses[core_id] = (
            self.stats.per_core_misses.get(core_id, 0) + 1
        )
        writeback = False
        evicted_line = None
        if self._data_ways == 0:
            # Fully reserved cache: every access bypasses to DRAM.
            return CacheAccessResult(hit=False, writeback=False)
        if len(cache_set) >= self._data_ways:
            evicted_tag, dirty = cache_set.popitem(last=False)
            self.stats.evictions += 1
            evicted_line = evicted_tag * self._num_sets + set_index
            if dirty:
                self.stats.dirty_evictions += 1
                writeback = True
        cache_set[tag] = is_write
        return CacheAccessResult(
            hit=False, writeback=writeback, evicted_line=evicted_line
        )

    def flush(self) -> None:
        """Drop every line (used between independent simulations)."""
        for cache_set in self._sets:
            cache_set.clear()

    def occupancy(self) -> float:
        """Fraction of the data ways currently holding a line."""
        if self._data_ways == 0:
            return 0.0
        lines = sum(len(cache_set) for cache_set in self._sets)
        return lines / (self._num_sets * self._data_ways)
