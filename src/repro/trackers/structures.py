"""Generic counting structures used by the baseline RowHammer trackers.

* :class:`CountMinSketch` -- CoMeT's shared counter table.
* :class:`MisraGriesSummary` -- ABACUS' shared aggressor tracker with a
  spillover counter and per-bank bit-vectors.
* :class:`CountingBloomFilter` -- BlockHammer's blacklisting filter.
* :class:`SetAssociativeCounterCache` -- the residency of Hydra's Row Counter
  Cache and of START's reserved-LLC counter cache.

All structures are deterministic: hash seeds are passed in explicitly.
Per-tracker sizing (entry counts, thresholds) lives with each tracker module,
which states its paper section and key parameters.

The structures sit on every tracked activation, so they keep their state in
plain Python lists and dicts of ints: reading an element back from a numpy
array and storing it costs more than the counting itself.  The two sketches
(:class:`CountMinSketch` and :class:`CountingBloomFilter`) memoize each key's
counter indices, a pure function of the key and the hash seeds, until their
next :meth:`reset`: the Perf-Attacks revisit a bounded set of rows, so most
activations skip the hashing.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.crypto.prng import XorShift64

_MASK64 = (1 << 64) - 1


def _mix(value: int, seed: int) -> int:
    """Cheap deterministic 64-bit hash used by the sketch structures."""
    x = (value ^ seed) & _MASK64
    x = (x * 0xFF51AFD7ED558CCD) & _MASK64
    x ^= x >> 33
    x = (x * 0xC4CEB9FE1A85EC53) & _MASK64
    x ^= x >> 33
    return x & _MASK64


class CountMinSketch:
    """Count-Min Sketch with ``depth`` hash rows of ``width`` counters each.

    The ``depth`` rows are stored back to back in one list, so a key's
    indices (memoized per key until :meth:`reset`) address the flat list
    directly.
    """

    def __init__(self, depth: int, width: int, seed: int):
        if depth < 1 or width < 1:
            raise ValueError("depth and width must be positive")
        self.depth = depth
        self.width = width
        self._seeds = [_mix(seed, 0x1000 + i) for i in range(depth)]
        self._counters = [0] * (depth * width)
        self._index_memo: dict[int, tuple[int, ...]] = {}

    def _indices(self, key: int) -> tuple[int, ...]:
        """Hash ``key`` into the memo (callers look it up there first)."""
        width = self.width
        indices = self._index_memo[key] = tuple(
            row * width + _mix(key, seed) % width
            for row, seed in enumerate(self._seeds)
        )
        return indices

    def increment(self, key: int, amount: int = 1) -> int:
        """Increment ``key`` and return the new (over-)estimate."""
        indices = self._index_memo.get(key) or self._indices(key)
        counters = self._counters
        estimate = None
        for index in indices:
            value = counters[index] = counters[index] + amount
            if estimate is None or value < estimate:
                estimate = value
        return estimate

    def estimate(self, key: int) -> int:
        """Current (over-)estimate of ``key``'s count."""
        indices = self._index_memo.get(key) or self._indices(key)
        counters = self._counters
        return min([counters[index] for index in indices])

    def reset(self) -> None:
        self._counters[:] = [0] * len(self._counters)
        self._index_memo.clear()

    @property
    def storage_bits(self) -> int:
        """Storage assuming 1-byte counters (as the paper's configs use)."""
        return self.depth * self.width * 8


@dataclass
class MisraGriesEntry:
    """One entry of the ABACUS-style Misra-Gries summary."""

    row_id: int
    count: int
    bank_bits: int = 0


class MisraGriesSummary:
    """Misra-Gries heavy-hitter summary with a spillover counter.

    Follows the ABACUS formulation: the summary is shared by every bank of a
    channel, entries are keyed by the *row identifier* (the row index inside a
    bank, identical across sibling banks), each entry carries a per-bank
    bit-vector used to avoid over-counting accesses coming from different
    banks, and a spillover counter tracks the count of evicted keys.
    """

    def __init__(self, capacity: int, num_banks: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.num_banks = num_banks
        self.spillover = 0
        self._entries: dict[int, MisraGriesEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, row_id: int) -> bool:
        return row_id in self._entries

    def get(self, row_id: int) -> MisraGriesEntry | None:
        return self._entries.get(row_id)

    def observe(self, row_id: int, bank_index: int) -> tuple[MisraGriesEntry | None, bool]:
        """Observe one activation.

        Returns ``(entry, counted)`` where ``entry`` is the summary entry
        tracking the row (or ``None`` if the activation only advanced the
        spillover counter) and ``counted`` says whether the entry's counter
        was actually incremented (the per-bank bit-vector suppresses the first
        activation seen from each bank).

        Per-bank bit-vector semantics (the ABACUS RAC + SAV formulation):
        ``count`` models the Row Activation Counter, which tracks the
        *maximum* activation count any sibling bank has reached for this row
        identifier, and ``bank_bits`` models the Sibling Activation Vector,
        which records the banks that have caught up to that maximum.  An
        activation from a bank whose SAV bit is clear only sets the bit -- the
        bank is catching up to a count another bank already reached, so the
        maximum is unchanged.  An activation from a bank whose bit is already
        set pushes that bank *past* the recorded maximum: the counter
        increments and the SAV collapses to just that bank's bit, because it
        is now the only bank at the new maximum.  Discarding the other banks'
        pending bits on the collapse is therefore intentional, not lossy:
        those banks were at the previous count level and must set their bit
        again (one suppressed activation each) before they can advance the
        counter.  This keeps the RAC equal to the per-bank maximum (the
        quantity the mitigation threshold must bound) while charging each
        bank's activations at most once per count level.
        """
        bank_bit = 1 << bank_index
        entry = self._entries.get(row_id)
        if entry is not None:
            if entry.bank_bits & bank_bit:
                entry.count += 1
                entry.bank_bits = bank_bit
                return entry, True
            entry.bank_bits |= bank_bit
            return entry, False

        if len(self._entries) < self.capacity:
            entry = MisraGriesEntry(row_id=row_id, count=self.spillover + 1, bank_bits=bank_bit)
            self._entries[row_id] = entry
            return entry, True

        # Replace an entry whose count has fallen to the spillover floor, if any.
        victim_id = None
        for candidate_id, candidate in self._entries.items():
            if candidate.count <= self.spillover:
                victim_id = candidate_id
                break
        if victim_id is not None:
            del self._entries[victim_id]
            entry = MisraGriesEntry(row_id=row_id, count=self.spillover + 1, bank_bits=bank_bit)
            self._entries[row_id] = entry
            return entry, True

        # ABACUS spillover semantics: an unplaced activation (table full, every
        # entry strictly above the spillover floor) advances the shared
        # spillover counter.  Streaming over distinct row identifiers therefore
        # advances it roughly once per ``capacity + 1`` activations, which is
        # the overflow rate the ABACUS Perf-Attack exploits.
        self.spillover += 1
        return None, False

    def spill_victim(self) -> int | None:
        """The row id :meth:`observe` would replace for a new key right now.

        Mirrors the replacement scan above exactly (first entry at or below
        the spillover floor, in insertion order) without mutating anything;
        ``None`` when the table still has room or no entry is replaceable.
        Used by the instrumentation layer to report evictions.
        """
        if len(self._entries) < self.capacity:
            return None
        for candidate_id, candidate in self._entries.items():
            if candidate.count <= self.spillover:
                return candidate_id
        return None

    def reset_entry(self, row_id: int) -> None:
        """Reset a mitigated entry's count to the spillover floor."""
        entry = self._entries.get(row_id)
        if entry is not None:
            entry.count = self.spillover
            entry.bank_bits = 0

    def reset(self) -> None:
        self._entries.clear()
        self.spillover = 0

    @property
    def storage_bits(self) -> int:
        # row id (16 bits) + counter (16 bits) + per-bank bit-vector.
        return self.capacity * (16 + 16 + self.num_banks)


class CountingBloomFilter:
    """Counting Bloom filter used by BlockHammer's blacklisting logic.

    Like :class:`CountMinSketch`, it memoizes each key's counter indices
    until :meth:`reset`.
    """

    def __init__(self, num_counters: int, num_hashes: int, seed: int):
        if num_counters < 1 or num_hashes < 1:
            raise ValueError("counters and hashes must be positive")
        self.num_counters = num_counters
        self.num_hashes = num_hashes
        self._seeds = [_mix(seed, 0x2000 + i) for i in range(num_hashes)]
        self._counters = [0] * num_counters
        self._index_memo: dict[int, tuple[int, ...]] = {}

    def _indices(self, key: int) -> tuple[int, ...]:
        """Hash ``key`` into the memo (callers look it up there first)."""
        num_counters = self.num_counters
        indices = self._index_memo[key] = tuple(
            _mix(key, seed) % num_counters for seed in self._seeds
        )
        return indices

    def increment(self, key: int) -> int:
        indices = self._index_memo.get(key) or self._indices(key)
        counters = self._counters
        estimate = None
        for index in indices:
            value = counters[index] = counters[index] + 1
            if estimate is None or value < estimate:
                estimate = value
        return estimate

    def estimate(self, key: int) -> int:
        indices = self._index_memo.get(key) or self._indices(key)
        counters = self._counters
        return min([counters[index] for index in indices])

    def reset(self) -> None:
        self._counters[:] = [0] * self.num_counters
        self._index_memo.clear()

    @property
    def storage_bits(self) -> int:
        return self.num_counters * 16


#: Outcomes of :meth:`SetAssociativeCounterCache.access`; only a hit is
#: falsy, so ``if outcome:`` tests for a miss.
HIT = 0
MISS = 1
MISS_EVICTED = 2


class SetAssociativeCounterCache:
    """Residency of a set-associative cache of per-row counters.

    Used for Hydra's Row Counter Cache (random eviction) and for modelling
    START's reserved-LLC counter cache (LRU eviction).  Both trackers keep
    the counter values in their backing table -- Hydra writes every new
    count to its RCT, and START never reads the cached values -- so the
    cache tracks only which keys are resident.  One :meth:`access` per
    activation reports a hit, a miss that filled a free way, or a miss that
    evicted a victim (which the tracker charges as a DRAM write-back).
    """

    def __init__(
        self,
        num_entries: int,
        ways: int,
        seed: int,
        eviction: str = "random",
    ):
        if num_entries < ways or num_entries % ways != 0:
            raise ValueError("num_entries must be a positive multiple of ways")
        if eviction not in ("random", "lru"):
            raise ValueError("eviction must be 'random' or 'lru'")
        self.num_entries = num_entries
        self.ways = ways
        self.num_sets = num_entries // ways
        self.eviction = eviction
        self._lru = eviction == "lru"
        self._rng = XorShift64(seed)
        # Per set, the resident keys in eviction order: least recently used
        # first under LRU, fill order under random eviction.
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def access(self, key: int) -> int:
        """Touch ``key``: :data:`HIT`, :data:`MISS` or :data:`MISS_EVICTED`.

        A miss fills ``key``; when its set is full it first evicts the least
        recently used key (LRU) or a key drawn by the seeded generator
        (random).
        """
        # Direct modulo set index, so set-conflict attacks work.
        cache_set = self._sets[key % self.num_sets]
        if key in cache_set:
            self.hits += 1
            if self._lru:
                cache_set.move_to_end(key)
            return HIT
        self.misses += 1
        outcome = MISS
        if len(cache_set) >= self.ways:
            if self._lru:
                cache_set.popitem(last=False)
            else:
                del cache_set[list(cache_set)[self._rng.next_below(len(cache_set))]]
            self.evictions += 1
            outcome = MISS_EVICTED
        cache_set[key] = None
        return outcome

    def reset(self) -> None:
        for cache_set in self._sets:
            cache_set.clear()

    @property
    def occupancy(self) -> int:
        return sum(len(cache_set) for cache_set in self._sets)
