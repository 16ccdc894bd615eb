"""Tests for the generic tracking structures (CMS, Misra-Gries, Bloom, cache)."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.prng import XorShift64
from repro.trackers.structures import (
    HIT,
    MISS,
    MISS_EVICTED,
    CountMinSketch,
    CountingBloomFilter,
    MisraGriesSummary,
    SetAssociativeCounterCache,
    _mix,
)


class TestCountMinSketch:
    def test_estimate_never_underestimates(self):
        sketch = CountMinSketch(depth=4, width=64, seed=1)
        true_counts = {}
        for key in range(200):
            for _ in range(key % 7 + 1):
                sketch.increment(key)
                true_counts[key] = true_counts.get(key, 0) + 1
        for key, count in true_counts.items():
            assert sketch.estimate(key) >= count

    def test_exact_when_no_collisions(self):
        sketch = CountMinSketch(depth=4, width=4096, seed=1)
        sketch.increment(42, amount=10)
        assert sketch.estimate(42) == 10

    def test_reset(self):
        sketch = CountMinSketch(depth=2, width=16, seed=1)
        sketch.increment(1)
        sketch.reset()
        assert sketch.estimate(1) == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CountMinSketch(depth=0, width=16, seed=1)

    @settings(max_examples=50, deadline=None)
    @given(keys=st.lists(st.integers(0, 1000), min_size=1, max_size=300))
    def test_overestimation_property(self, keys):
        sketch = CountMinSketch(depth=4, width=128, seed=3)
        counts = {}
        for key in keys:
            sketch.increment(key)
            counts[key] = counts.get(key, 0) + 1
        for key, count in counts.items():
            assert sketch.estimate(key) >= count


class TestMisraGries:
    def test_tracks_heavy_hitter_exactly_when_space(self):
        summary = MisraGriesSummary(capacity=8, num_banks=4)
        for _ in range(10):
            summary.observe(5, bank_index=0)
        entry = summary.get(5)
        assert entry is not None
        # First observation from the bank only sets the bit.
        assert entry.count == 10 - 1 + 1  # insert counts as 1, then 9 hits... see below

    def test_bank_bit_suppresses_first_activation(self):
        summary = MisraGriesSummary(capacity=4, num_banks=4)
        summary.observe(1, bank_index=0)          # insert (count 1)
        entry, counted = summary.observe(1, bank_index=1)
        assert counted is False                    # new bank: only sets the bit
        entry, counted = summary.observe(1, bank_index=1)
        assert counted is True                     # same bank again: counts

    def test_spillover_grows_with_distinct_keys(self):
        summary = MisraGriesSummary(capacity=16, num_banks=2)
        for key in range(200):
            summary.observe(key, bank_index=key % 2)
        assert summary.spillover > 0

    def test_replacement_uses_spillover_floor(self):
        summary = MisraGriesSummary(capacity=2, num_banks=1)
        summary.observe(1, 0)
        summary.observe(2, 0)
        summary.observe(3, 0)       # unplaced -> spillover = 1
        assert summary.spillover == 1
        summary.observe(4, 0)       # replaces an entry with count <= spillover
        assert 4 in summary

    def test_reset_entry(self):
        summary = MisraGriesSummary(capacity=4, num_banks=1)
        for _ in range(5):
            summary.observe(9, 0)
        summary.reset_entry(9)
        assert summary.get(9).count == summary.spillover

    def test_reset_clears_everything(self):
        summary = MisraGriesSummary(capacity=4, num_banks=1)
        for key in range(10):
            summary.observe(key, 0)
        summary.reset()
        assert len(summary) == 0
        assert summary.spillover == 0

    def test_count_never_underestimates_per_key_activity(self):
        """An entry present in the summary reports at least ... the spillover floor."""
        summary = MisraGriesSummary(capacity=8, num_banks=1)
        for key in range(100):
            summary.observe(key % 12, 0)
        for key in range(12):
            entry = summary.get(key)
            if entry is not None:
                assert entry.count >= summary.spillover


class TestMisraGriesMultiBankSemantics:
    def test_pinned_multi_bank_sequence(self):
        """Pin the exact RAC/SAV evolution of a traced multi-bank sequence.

        ``count`` is the per-row maximum over sibling banks, ``bank_bits``
        the set of banks currently at that maximum.  An activation from a
        bank whose bit is already set advances the maximum and collapses the
        vector to that bank alone; a bank with a clear bit only catches up.
        """
        summary = MisraGriesSummary(capacity=2, num_banks=4)
        sequence = [
            (7, 0), (7, 1), (7, 0), (7, 0), (7, 2),
            (7, 1), (9, 3), (11, 0), (13, 1), (7, 1),
        ]
        expected = [
            (1, 0b0001, True, 0),    # insert from bank 0
            (1, 0b0011, False, 0),   # bank 1 catches up: bit only
            (2, 0b0001, True, 0),    # bank 0 advances; SAV collapses
            (3, 0b0001, True, 0),
            (3, 0b0101, False, 0),   # bank 2 catches up
            (3, 0b0111, False, 0),   # bank 1 catches up
            (1, 0b1000, True, 0),    # second entry inserted
            (None, None, False, 1),  # table full, no victim: spillover
            (2, 0b0010, True, 1),    # evicts the floor entry (row 9)
            (4, 0b0010, True, 1),    # bank 1 was at the max: advances
        ]
        for (row, bank), (count, bits, counted, spill) in zip(sequence, expected):
            entry, was_counted = summary.observe(row, bank)
            assert was_counted is counted, (row, bank)
            assert summary.spillover == spill, (row, bank)
            if count is None:
                assert entry is None, (row, bank)
            else:
                assert entry.count == count, (row, bank)
                assert entry.bank_bits == bits, (row, bank)


class TestSketchReference:
    """Sketch estimates equal a direct loop over the hash, whose indices the
    sketches memoize per key until their next reset."""

    def _keys(self, n=600):
        # 150 distinct keys, so most increments hit the index memo.
        rng = XorShift64(0xC0FFEE)
        return [rng.next_below(150) * 7919 for _ in range(n)]

    def _check(self, structure, indices, size):
        """Replay the key stream into ``structure`` and into a reference list
        of ``size`` counters addressed by ``indices(key)``; reset both
        mid-stream."""
        keys = self._keys()
        reference = [0] * size
        seen = set()
        for step, key in enumerate(keys):
            if step == len(keys) // 2:
                structure.reset()
                reference = [0] * size
                seen.clear()
                assert not structure._index_memo
            for index in indices(key):
                reference[index] += 1
            seen.add(key)
            want = min(reference[index] for index in indices(key))
            assert structure.increment(key) == want
            assert len(structure._index_memo) == len(seen)
        for key in set(keys) | {1, 2, 3}:
            assert structure.estimate(key) == min(
                reference[index] for index in indices(key)
            )

    def test_count_min_sketch_matches_reference(self):
        seeds = [_mix(7, 0x1000 + i) for i in range(4)]
        # The sketch's four rows of 64 counters, back to back.
        self._check(
            CountMinSketch(depth=4, width=64, seed=7),
            lambda key: [
                row * 64 + _mix(key, seed) % 64 for row, seed in enumerate(seeds)
            ],
            4 * 64,
        )

    def test_counting_bloom_filter_matches_reference(self):
        seeds = [_mix(11, 0x2000 + i) for i in range(3)]
        self._check(
            CountingBloomFilter(num_counters=128, num_hashes=3, seed=11),
            lambda key: [_mix(key, seed) % 128 for seed in seeds],
            128,
        )


class TestCountingBloomFilter:
    def test_estimate_never_underestimates(self):
        cbf = CountingBloomFilter(num_counters=128, num_hashes=3, seed=1)
        for _ in range(25):
            cbf.increment(7)
        assert cbf.estimate(7) >= 25

    def test_unrelated_key_estimate_small(self):
        cbf = CountingBloomFilter(num_counters=4096, num_hashes=4, seed=1)
        for _ in range(50):
            cbf.increment(1)
        assert cbf.estimate(999_999) <= 50

    def test_reset(self):
        cbf = CountingBloomFilter(num_counters=64, num_hashes=2, seed=1)
        cbf.increment(3)
        cbf.reset()
        assert cbf.estimate(3) == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CountingBloomFilter(num_counters=0, num_hashes=1, seed=1)


class _LookupThenFill:
    """Reference model of the counter cache: a lookup, then a fill on a miss.

    This is how Hydra and START drove the cache when it stored counter
    values; :meth:`SetAssociativeCounterCache.access` must give the same
    outcomes and draw the same random victims.
    """

    def __init__(self, num_entries, ways, seed, eviction):
        self.ways = ways
        self.lru = eviction == "lru"
        self.rng = XorShift64(seed)
        self.sets = [OrderedDict() for _ in range(num_entries // ways)]

    def lookup(self, key):
        cache_set = self.sets[key % len(self.sets)]
        if key in cache_set:
            if self.lru:
                cache_set.move_to_end(key)
            return cache_set[key]
        return None

    def fill(self, key, value):
        cache_set = self.sets[key % len(self.sets)]
        evicted = None
        if key not in cache_set and len(cache_set) >= self.ways:
            if self.lru:
                victim = next(iter(cache_set))
            else:
                victim = list(cache_set.keys())[self.rng.next_below(len(cache_set))]
            evicted = (victim, cache_set.pop(victim))
        cache_set[key] = value
        if self.lru:
            cache_set.move_to_end(key)
        return evicted

    def access(self, key):
        if self.lookup(key) is not None:
            return HIT
        return MISS if self.fill(key, 0) is None else MISS_EVICTED


class TestSetAssociativeCounterCache:
    def test_hit_after_miss(self):
        cache = SetAssociativeCounterCache(num_entries=64, ways=4, seed=1)
        assert cache.access(10) == MISS
        assert cache.access(10) == HIT
        assert (cache.hits, cache.misses, cache.evictions) == (1, 1, 0)

    def test_eviction_on_full_set(self):
        cache = SetAssociativeCounterCache(num_entries=16, ways=2, seed=1)
        sets = cache.num_sets
        keys = [0, sets, 2 * sets]      # all map to set 0 (2 ways)
        assert [cache.access(key) for key in keys] == [MISS, MISS, MISS_EVICTED]
        assert cache.evictions == 1
        assert cache.occupancy == 2
        # Exactly one of the first two keys was evicted.
        assert sorted(cache.access(key) for key in keys[:2]) != [HIT, HIT]

    def test_set_conflict_attack_pattern_misses(self):
        """Rows congruent modulo the set count overwhelm a single set."""
        cache = SetAssociativeCounterCache(num_entries=4096, ways=32, seed=1, eviction="random")
        sets = cache.num_sets
        colliding = [7 + i * sets for i in range(64)]
        for _ in range(4):
            for key in colliding:
                cache.access(key)
        # With 64 rows on a 32-way set, a large fraction of accesses must miss.
        assert cache.misses > cache.hits

    def test_lru_eviction_order(self):
        cache = SetAssociativeCounterCache(num_entries=4, ways=2, seed=1, eviction="lru")
        sets = cache.num_sets
        a, b, c = 0, sets, 2 * sets
        cache.access(a)
        cache.access(b)
        cache.access(a)                 # a is now most recently used
        assert cache.access(c) == MISS_EVICTED
        assert cache.access(a) == HIT   # so b was the victim
        assert cache.access(b) == MISS_EVICTED

    @pytest.mark.parametrize("eviction", ["lru", "random"])
    def test_matches_lookup_then_fill_model(self, eviction):
        cache = SetAssociativeCounterCache(
            num_entries=64, ways=4, seed=0xBEEF, eviction=eviction
        )
        model = _LookupThenFill(64, 4, 0xBEEF, eviction)
        rng = XorShift64(0x5EED)
        # 96 keys, 6 per set of 4 ways: hits, plain misses and evictions.
        keys = [rng.next_below(96) * 5 for _ in range(3000)]
        outcomes = [cache.access(key) for key in keys]
        assert outcomes == [model.access(key) for key in keys]
        assert {HIT, MISS, MISS_EVICTED} <= set(outcomes)
        assert cache.hits == outcomes.count(HIT)
        assert cache.misses == len(keys) - cache.hits
        assert cache.evictions == outcomes.count(MISS_EVICTED)
        assert [list(s) for s in cache._sets] == [list(s) for s in model.sets]

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            SetAssociativeCounterCache(num_entries=10, ways=4, seed=1)
        with pytest.raises(ValueError):
            SetAssociativeCounterCache(num_entries=8, ways=4, seed=1, eviction="fifo")

    def test_reset(self):
        cache = SetAssociativeCounterCache(num_entries=8, ways=2, seed=1)
        cache.access(1)
        cache.reset()
        assert cache.occupancy == 0
        assert cache.access(1) == MISS
