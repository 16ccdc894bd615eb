"""Batched simulation engine: the fast engine of the simulator.

:class:`BatchedSimulator` is a drop-in replacement for
:class:`~repro.sim.simulator.Simulator` that produces **bit-identical**
:class:`~repro.sim.simulator.SimulationResult` objects while restructuring
the per-request hot path around batches:

* request generation is prefetched in blocks.  Workload traces and trace
  files hand each block over as numpy arrays through their ``next_arrays``
  hook (a workload trace builds it from a pregenerated RNG block), and one
  array refill serves both the per-request loop and the stretch executor;
  other generators go through :func:`repro.cpu.trace.generator_batch`
  (sequence-cycling and streaming attacks have closed-form ``next_batch``
  methods);
* address decode runs vectorized over each prefetched block
  (:meth:`repro.dram.address.AddressMapper.decode_batch`), so the event loop
  works in predecoded flat coordinates and only reconstructs
  :class:`~repro.dram.address.RowAddress` objects when a request actually
  reaches DRAM, through the (flat bank, row) memo of
  :meth:`~repro.dram.address.AddressMapper.row_address_from_flat`, which the
  DRAM tail fills itself;
* the LLC warm-up phase is settled in bulk: its statistics are discarded
  anyway, so only the final tag/LRU/dirty state is materialised;
* the measured loop inlines the LLC hit path and keeps draining the *same*
  core while its next event is strictly earlier than the scheduler heap's
  head, so runs of non-interacting accesses (LLC hits, same-row streaks) stay
  out of the heap entirely.  A core switch is one ``heapq.heapreplace``,
  and what stays fixed for the drain (each core's budget, MLP, peak issue
  rate, feed and outstanding-miss heap) comes from one per-core record.
  LLC misses and the requests of LLC-bypassing attack kernels share one
  DRAM tail: it inlines
  :meth:`~repro.mc.controller.MemoryController.service_row` when the
  controller is ``hookless`` (no per-request tracker hook, no auditor) and
  calls it otherwise -- the same single source of truth the scalar engine
  uses -- and charges an LLC miss's write-back and hit latency after it;
* once the heap goes *quiescent* -- a single budgeted core remains, so no
  inter-core interleaving decision can ever be needed again -- a vectorized
  stretch executor takes over.  It refills in blocks of
  :data:`_FAST_BATCH` entries held as numpy arrays (from the generator's
  ``next_arrays`` hook), and a residency bitmap
  over the core's line domain classifies them: probes gallop from
  :data:`_FIRST_PROBE` entries, doubling while every probed line is
  LLC-resident, and the leading resident run -- provably all hits --
  retires in one go.  A run whose gaps all reach the hit latency retires
  with numpy arithmetic: one ``np.add.accumulate`` for its issue times and
  one ``np.sort`` of ``(line, position, write)`` keys, from which each
  distinct line is moved to its set's MRU end once, in last-access order,
  and dirtied once if the run wrote it.  Per-entry lists are built only
  when the per-request path first needs them in a block (a miss, or a run
  shorter than 16 entries or holding a gap below the hit latency).
  Building the bitmap costs one entry per domain line plus a scan of every
  LLC line, so the executor is entered only when the core's remaining
  budget is at least that many requests; shorter tails stay on the
  per-request loop.

Observation goes through the simulation's event bus (``self.events``, see
:mod:`repro.sim.events.events`).  Only a subscriber to a per-request kind
(:class:`~repro.sim.events.events.RequestComplete` or
:class:`~repro.sim.events.events.BankActivate`) moves the drain off its
fast paths: every request then routes through the scalar reference
:meth:`~repro.sim.simulator.Simulator._service_addr`, which emits them.
Every other kind is emitted by the controller and tracker code that all
paths share, so those subscribers -- and a pipeline profiler -- keep the
inlined paths and the stretch executor.

Why bit-identity holds: every request generator is feedback-free (its
``next_entry`` consumes only private state seeded at construction), so
prefetching entries ahead of simulated time cannot change any stream.  The
global service order is preserved exactly -- a core is only continued while
``core.next_event_time() < heap[0][0]`` *strictly*, because on a time tie the
scalar engine pops the heap entry (its tie-breaking sequence number is always
older than the would-be re-push).  Every floating-point operation on the
timing path is performed by the same shared code in the same order; the
stretch executor's ``gap / peak`` is precomputed elementwise by numpy, which
is bit-identical to the scalar division for int64 gaps, and its bitmap only
replaces the ``tag in cache_set`` membership *test* for runs it can prove
are hits.  Within a hit run nothing leaves the cache, so each set's final
LRU order depends only on the order of its lines' last accesses, and a
dirty bit once set stays set: collapsing the run's updates to one per
distinct line leaves every set exactly as the scalar engine does.

The scalar :class:`~repro.sim.simulator.Simulator` remains the reference
model; ``REPRO_SIM_ENGINE=scalar`` selects it globally and the parity suite
(``tests/test_engine_parity.py``) pins the two engines against each other for
every registered tracker.
"""

from __future__ import annotations

import copy
import heapq
import os
from dataclasses import is_dataclass
from time import perf_counter

from repro.cpu.trace import WorkloadTraceGenerator, generator_batch
from repro.cpu.tracefile import FileTraceGenerator
from repro.dram.address import RowAddress
from repro.sim.events.events import BankActivate, RequestComplete
from repro.sim.simulator import Simulator
from repro.trackers.base import EMPTY_RESPONSE

try:  # numpy accelerates decode/set-index precompute; optional.
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image ships numpy
    _np = None

#: Upper bound on a residency-bitmap line domain (2**26 lines = 4 GiB of
#: 64-byte lines).  Generators with a wider or unknown address domain simply
#: do not get the vectorized stretch executor.
_MAX_DOMAIN_LINES = 1 << 26

#: Entries per refill once the stretch executor engages: one block is
#: retired with a handful of numpy passes, so larger blocks amortise their
#: fixed cost, while 16K entries keep the block's arrays (and the lists a
#: miss builds) small next to the process.
_FAST_BATCH = 16384

#: First hit-run probe of the stretch executor after a miss; each probe that
#: finds every entry resident doubles the next one, up to the block.
_FIRST_PROBE = 64


def _state_fingerprint(value, depth: int = 0):
    """Hashable fingerprint of a generator's (pre-warm-up) state.

    Equal fingerprints guarantee identical behaviour: the fingerprint covers
    every attribute that ``next_entry`` can read (RNG state included).  Types
    the recursion does not recognise fall back to ``repr``; an address-bearing
    repr merely misses the cache, it can never produce a wrong hit.

    Objects may opt out of attribute recursion by providing their own
    ``state_fingerprint()``: workload traces list the values they read,
    file-backed traces hash their entry list once instead of reproducing it
    attribute by attribute, and :class:`~repro.crypto.prng.XorShift64`
    covers the outputs it has buffered.
    """
    custom = getattr(value, "state_fingerprint", None)
    if custom is not None and callable(custom):
        return custom()
    if isinstance(value, (bool, int, float, str, bytes, type(None))):
        return value
    if isinstance(value, (list, tuple)):
        return (type(value).__name__,) + tuple(
            _state_fingerprint(v, depth + 1) for v in value
        )
    if isinstance(value, dict):
        return ("dict",) + tuple(
            sorted(
                (repr(k), _state_fingerprint(v, depth + 1))
                for k, v in value.items()
            )
        )
    if is_dataclass(value):
        return (type(value).__qualname__, repr(value))
    if depth < 4 and hasattr(value, "__dict__"):
        return (type(value).__qualname__,) + tuple(
            (k, _state_fingerprint(v, depth + 1))
            for k, v in sorted(vars(value).items())
        )
    return repr(value)


def _generator_snapshot(generator):
    """Capture a generator's mutable state for the warm-up memo.

    Generators may expose ``state_snapshot``/``state_restore`` to avoid the
    default deep copy of their whole ``__dict__`` -- trace replay carries
    thousands of immutable entries, and a workload trace its profile, DRAM
    organisation and address mapper, but each only a cursor's worth of
    mutable state (plus, for a workload trace, its RNG's).
    """
    snapshot = getattr(generator, "state_snapshot", None)
    if snapshot is not None and callable(snapshot):
        return snapshot()
    return copy.deepcopy(vars(generator))


#: Post-warm-up (generator state, LLC set contents) memo, keyed by the full
#: pre-warm-up state of every warmed generator plus the LLC geometry.  Sweeps
#: run the same workload mix under many trackers, and the warm-up does not
#: depend on the tracker at all, so most scenarios replay a cached warm-up.
_WARM_CACHE: dict = {}
_WARM_CACHE_MAX = 8


def _array_hook(generator):
    """The generator's ``next_arrays`` block hook, or ``None`` when it has
    none or numpy is unavailable."""
    if _np is None:
        return None
    return getattr(generator, "next_arrays", None)


def _line_domain(generator, line_size: int) -> tuple[int, int]:
    """``(base_line, num_lines)`` in ``line_size``-byte lines covering every
    address the generator can emit, or ``(0, 0)`` when no finite domain is
    known.

    :class:`WorkloadTraceGenerator` walks a private contiguous footprint,
    counted in DRAM lines, which need not be the LLC's lines;
    :class:`FileTraceGenerator` replays a fixed entry list.  Both reduce to
    a byte range.  Anything else (attack kernels, ad-hoc generators) reports
    no domain and runs on the per-request path.
    """
    if isinstance(generator, WorkloadTraceGenerator):
        dram_line = generator.org.line_size_bytes
        low = generator._base_line * dram_line
        high = (generator._base_line + generator._footprint_lines - 1) * dram_line
    elif isinstance(generator, FileTraceGenerator) and generator._addresses:
        low = min(generator._addresses)
        high = max(generator._addresses)
    else:
        return 0, 0
    base = low // line_size
    size = high // line_size - base + 1
    if size > _MAX_DOMAIN_LINES:
        return 0, 0
    return base, size


#: A feed's ``block`` before its lists are built, and the DRAM coordinates
#: of a block that is not predecoded.
_NO_BLOCK = (None,) * 9
_NOT_DECODED = (None,) * 4


class _CoreFeed:
    """Prefetched, predecoded request block for one core.

    ``block`` holds the block's parallel per-entry lists as one tuple,
    ``(gaps, writes, rows, flat_banks, rank_idx, channels, tags, set_idx,
    addresses)``: the issue gaps, write flags and addresses, the decoded
    DRAM coordinates and the LLC tag and set indices, with a cursor
    (``idx``) into them.  It is rebuilt whenever the lists are replaced, so
    the drain takes the whole block in one unpacking.  ``refill`` fetches
    the next block from the core's generator.  Budgeted cores never prefetch
    past their remaining request budget.

    A generator with a ``next_arrays`` hook (workload traces and trace
    files, with numpy) hands every block over as numpy arrays: ``gaps_np``,
    ``addresses_np``, ``writes_np``, the precomputed issue deltas
    ``gap_ns_np`` and ``offsets_np``, each entry's line relative to the
    residency bitmap's domain.  The per-request loop reads the lists built
    from them; the stretch executor needs the hook, and once it engages for
    this core (:meth:`activate_fast`) blocks grow to :data:`_FAST_BATCH`
    entries whose lists are built only when the per-request path first
    needs them (:meth:`materialise`).  DRAM coordinates are then not
    predecoded (``flat_banks`` is ``None``), so misses decode through
    ``controller.service``.
    """

    __slots__ = (
        "core", "generator", "next_arrays", "bypasses_llc", "mapper",
        "ranks_per_channel", "line_size", "num_sets", "batch",
        "block", "size", "idx",
        "dom_base", "dom_size", "fast_active", "peak",
        "gaps_np", "addresses_np", "writes_np", "gap_ns_np", "offsets_np",
    )

    def __init__(self, core, mapper, config, batch: int):
        self.core = core
        self.generator = core.generator
        self.next_arrays = _array_hook(core.generator)
        self.bypasses_llc = core.generator.bypasses_llc
        self.mapper = mapper
        self.ranks_per_channel = config.dram.ranks_per_channel
        self.line_size = config.llc.line_size_bytes
        self.num_sets = config.llc.num_sets
        self.batch = batch
        self.block = _NO_BLOCK
        self.size = 0
        self.idx = 0
        self.dom_base, self.dom_size = (
            _line_domain(core.generator, self.line_size)
            if self.next_arrays is not None
            else (0, 0)
        )
        self.fast_active = False
        self.peak = core.config.peak_instructions_per_ns
        self.gaps_np = self.addresses_np = self.writes_np = None
        self.gap_ns_np = self.offsets_np = None

    def refill(self) -> None:
        core = self.core
        count = self.batch
        budget = core.request_budget
        if budget is not None:
            count = min(count, budget - core.requests_issued)
        self.size = count
        self.idx = 0
        if self.next_arrays is None:
            self._refill_lists(count)
            return
        self._set_arrays(*self.next_arrays(count))
        if not self.fast_active:
            self.materialise(self._decode(self.addresses_np))

    def _refill_lists(self, count: int) -> None:
        """Refill from a generator without the array hook, or without
        numpy: the block arrives as lists."""
        gaps, addresses, writes = generator_batch(self.generator, count)
        if self.bypasses_llc or _np is not None:
            decoded = self._decode(addresses)
        else:
            # Without numpy, predecoding every entry of a hit-dominated core
            # costs more than it saves; misses decode lazily via service().
            decoded = _NOT_DECODED
        tags = set_idx = None
        if not self.bypasses_llc:
            if _np is not None:
                lines = _np.asarray(addresses, dtype=_np.int64) // self.line_size
                set_idx = (lines % self.num_sets).tolist()
                tags = (lines // self.num_sets).tolist()
            else:
                line_size = self.line_size
                num_sets = self.num_sets
                lines = [address // line_size for address in addresses]
                set_idx = [line % num_sets for line in lines]
                tags = [line // num_sets for line in lines]
        self.block = (gaps, writes, *decoded, tags, set_idx, addresses)

    def _decode(self, addresses) -> tuple:
        """The block's DRAM coordinates as lists: ``(rows, flat_banks,
        rank_idx, channels)``."""
        ch, rk, _, _, rows, _, flat = self.mapper.decode_batch(addresses)
        if _np is not None:
            return (
                rows.tolist(),
                flat.tolist(),
                (ch * self.ranks_per_channel + rk).tolist(),
                ch.tolist(),
            )
        rpc = self.ranks_per_channel
        return rows, flat, [c * rpc + r for c, r in zip(ch, rk)], ch

    def _set_arrays(self, gaps, addresses, writes) -> None:
        """Take a block from the array hook; its lists are built later."""
        self.block = _NO_BLOCK
        self.gaps_np = gaps
        self.addresses_np = addresses
        self.writes_np = writes
        # Elementwise int64 / float is bit-identical to the scalar
        # ``gap / peak`` (exact int->float conversion, one IEEE divide).
        self.gap_ns_np = gaps / self.peak
        self.offsets_np = addresses // self.line_size - self.dom_base

    def materialise(self, decoded: tuple = _NOT_DECODED) -> None:
        """Build the current block's per-entry lists from its arrays, with
        the DRAM coordinates ``decoded`` by :meth:`_decode` (none for a
        stretch block)."""
        lines = self.offsets_np + self.dom_base
        self.block = (
            self.gaps_np.tolist(),
            self.writes_np.tolist(),
            *decoded,
            (lines // self.num_sets).tolist(),
            (lines % self.num_sets).tolist(),
            self.addresses_np.tolist(),
        )

    def activate_fast(self) -> None:
        """Switch to the stretch executor's refill; the current block came
        from the array hook too, so its arrays and lists both stay."""
        self.fast_active = True
        self.batch = _FAST_BATCH


class BatchedSimulator(Simulator):
    """Batch-structured engine, bit-identical to :class:`Simulator`."""

    #: Entries prefetched per core per refill of the measured loop.
    BATCH = 4096
    #: Warm-up accesses generated per core per chunk (bounds peak memory).
    WARM_CHUNK = 16384

    # ------------------------------------------------------------------ #

    def _warm_llc(self) -> None:
        """Bulk-settle the LLC warm-up.

        The scalar warm-up plays entries round-robin through
        :meth:`SharedLLC.access` and then throws the statistics away; only
        the final tag/LRU/dirty state survives into measurement.  This
        version batch-generates each core's entries (as arrays from the
        ``next_arrays`` hook when the generator has one) and replays the
        same round-robin interleaving against the set dictionaries
        directly, skipping all statistics bookkeeping.
        """
        if self.llc_warmup_accesses <= 0:
            return
        warm_cores = [
            core for core in self.cores if not core.generator.bypasses_llc
        ]
        if not warm_cores:
            return
        llc = self.llc
        sets = llc._sets
        num_sets = llc._num_sets
        data_ways = llc._data_ways
        line_size = llc.config.line_size_bytes

        # The warm-up depends only on the warmed generators' initial state
        # and the LLC geometry -- not on the tracker or attack under test --
        # so sweeps replay a memoized warm-up instead of regenerating it.
        cache_key = None
        if all(hasattr(core.generator, "__dict__") for core in warm_cores):
            cache_key = (
                # Stored RNG buffers are numpy arrays when numpy is in use,
                # which the pure-Python paths must not be handed.
                _np is not None,
                self.llc_warmup_accesses,
                num_sets,
                data_ways,
                line_size,
                tuple(
                    _state_fingerprint(core.generator) for core in warm_cores
                ),
            )
        cached = _WARM_CACHE.get(cache_key) if cache_key is not None else None
        if cached is not None:
            generator_states, set_states = cached
            for core, state in zip(warm_cores, generator_states):
                # Generators with a snapshot/restore protocol (e.g. trace
                # replay, whose entry arrays are immutable) restore in O(1)
                # instead of deep-copying their whole state dict back.
                restore = getattr(core.generator, "state_restore", None)
                if restore is not None and callable(restore):
                    restore(state)
                else:
                    core.generator.__dict__.update(copy.deepcopy(state))
            for live, stored in zip(sets, set_states):
                live.clear()
                live.update(stored)
            llc.stats = type(llc.stats)()
            return

        remaining = self.llc_warmup_accesses
        while remaining > 0:
            count = min(self.WARM_CHUNK, remaining)
            remaining -= count
            batches = []
            for core in warm_cores:
                hook = _array_hook(core.generator)
                if hook is not None:
                    _, addresses, writes = hook(count)
                else:
                    _, addresses, writes = generator_batch(core.generator, count)
                if not data_ways:
                    continue  # bypass LLC: generate (to advance the
                    # stream) but nothing to replay into an empty cache
                if _np is not None:
                    lines = _np.asarray(addresses, dtype=_np.int64) // line_size
                    set_idx = lines % num_sets
                    tags = lines // num_sets
                    writes = _np.asarray(writes, dtype=bool)
                else:
                    set_idx = tags = None
                    lines = [address // line_size for address in addresses]
                batches.append((set_idx, tags, lines, writes))
            if not data_ways:
                continue
            # Flatten the round-robin interleave into one stream per chunk.
            if _np is not None:
                seq_set = _np.stack(
                    [b[0] for b in batches], axis=1
                ).ravel().tolist()
                seq_tag = _np.stack(
                    [b[1] for b in batches], axis=1
                ).ravel().tolist()
                seq_write = _np.stack(
                    [b[3] for b in batches], axis=1
                ).ravel().tolist()
            else:
                seq_set = [
                    line % num_sets
                    for group in zip(*(b[2] for b in batches))
                    for line in group
                ]
                seq_tag = [
                    line // num_sets
                    for group in zip(*(b[2] for b in batches))
                    for line in group
                ]
                seq_write = [
                    write
                    for group in zip(*(b[3] for b in batches))
                    for write in group
                ]
            for set_index, tag, write in zip(seq_set, seq_tag, seq_write):
                cache_set = sets[set_index]
                if tag in cache_set:
                    cache_set.move_to_end(tag)
                    if write:
                        cache_set[tag] = True
                else:
                    if len(cache_set) >= data_ways:
                        cache_set.popitem(last=False)
                    cache_set[tag] = write
        # Mirror the scalar engine: measurement starts from fresh statistics.
        llc.stats = type(llc.stats)()

        if cache_key is not None:
            if len(_WARM_CACHE) >= _WARM_CACHE_MAX:
                _WARM_CACHE.pop(next(iter(_WARM_CACHE)))
            _WARM_CACHE[cache_key] = (
                [_generator_snapshot(core.generator) for core in warm_cores],
                [s.copy() for s in sets],
            )

    # ------------------------------------------------------------------ #

    def _build_residency(self, feed: _CoreFeed):
        """Bool bitmap of which lines of ``feed``'s domain are LLC-resident.

        Built once, at the instant the heap goes quiescent; from then on
        only this core mutates the LLC, and the slow-path miss branch keeps
        the bitmap in sync with insertions and evictions.
        """
        dom_base = feed.dom_base
        dom_end = dom_base + feed.dom_size
        bitmap = _np.zeros(feed.dom_size, dtype=bool)
        num_sets = self.llc._num_sets
        for set_index, cache_set in enumerate(self.llc._sets):
            for tag in cache_set:
                line = tag * num_sets + set_index
                if dom_base <= line < dom_end:
                    bitmap[line - dom_base] = True
        return bitmap

    # ------------------------------------------------------------------ #

    def _drain(self):
        """Advance every core until all benign budgets are exhausted.

        Identical scheduling semantics to :meth:`Simulator._drain`; see the
        module docstring for why the run-batching rule and the stretch
        executor preserve the exact global service order.
        """
        benign_pending = {
            core.core_id
            for core in self.cores
            if core.request_budget is not None
        }
        if not benign_pending:
            raise ValueError("at least one core needs a finite request budget")

        controller = self.controller
        # One record per core of what stays fixed for the whole drain: the
        # budget, bypass flag, MLP and peak issue rate are set when the core
        # is built, and ``_outstanding`` (the core's own heap) is only ever
        # mutated in place.
        records = {}
        for core in self.cores:
            feed = _CoreFeed(core, self.mapper, self.config, self.BATCH)
            records[core.core_id] = (
                core,
                feed,
                core.request_budget,
                feed.bypasses_llc,
                core._outstanding,
                core.effective_mlp,
                core.config.peak_instructions_per_ns,
            )

        llc = self.llc
        sets = llc._sets
        num_sets = llc._num_sets
        data_ways = llc._data_ways
        stats = llc.stats
        per_core_hits = stats.per_core_hits
        per_core_misses = stats.per_core_misses
        hit_latency = self.config.llc.hit_latency_ns
        line_size = self.config.llc.line_size_bytes
        service_row = controller.service_row
        service = controller.service
        # The tail fills the mapper's (flat bank, row) memo itself, building
        # each RowAddress without the namedtuple's Python-level __new__.
        row_cache = self.mapper._row_addr_cache
        bank_of = self.mapper._flat_banks
        new_tuple = tuple.__new__
        rows_per_bank = self.config.dram.rows_per_bank
        # The DRAM tail below inlines service_row for a hookless controller:
        # a call saved per request, and attack kernels take that tail on
        # every access.  Any hook falls back to service_row.
        hookless = controller.hookless
        cstats = controller.stats
        access_flat = controller.dram.access_flat
        on_activation = controller.tracker.on_activation
        apply_response = controller._apply_response
        heappush = heapq.heappush
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        # A subscriber to a per-request kind routes every request through
        # the scalar reference path, which emits it; that path is
        # arithmetic-identical to the inlined fast paths (parity-pinned), so
        # only wall-clock -- never the SimulationResult -- changes.
        route = (
            self._service_addr
            if self.events.wants_any(RequestComplete, BankActivate)
            else None
        )
        prof = self.profiler

        sequence = 0
        heap: list[tuple[float, int, int]] = []
        for core in self.cores:
            heappush(heap, (core.next_event_time(), sequence, core.core_id))
            sequence += 1

        # Quiescent stretch executor.  Only the last budgeted core can find
        # the heap empty (every other core has left it), so the residency
        # bitmap is built at most once per drain.  Building it costs one
        # entry per domain line plus a scan of every LLC line; the executor
        # is entered only when the remaining budget is at least that cost.
        np = _np
        stretch_ok = route is None and np is not None and data_ways > 0
        build_cost = num_sets * data_ways
        probe = _FIRST_PROBE

        # ``core_id`` is the core to drain next: a switch hands the current
        # core back with one ``heapreplace``, and a finished core's successor
        # is popped; ``None`` once no benign budget is left.
        core_id = heappop(heap)[2]
        while core_id is not None:
            core, feed, budget, bypasses, outstanding, mlp, peak = records[
                core_id
            ]
            fast = (
                not heap
                and stretch_ok
                and budget is not None
                and not bypasses
                and feed.dom_size > 0
                and budget - core.requests_issued
                >= feed.dom_size + build_cost
            )
            if fast:
                fastmap = self._build_residency(feed)
                dom_base = feed.dom_base
                dom_end = dom_base + feed.dom_size
                feed.activate_fast()
                # Twice each position in a block, for a run's sort keys.
                doubled = np.arange(0, 2 * _FAST_BATCH, 2, dtype=np.int64)
            # The core's hot scheduling state lives in locals while the core
            # is being drained (written back at every exit point below).  The
            # inlined blocks mirror CoreModel.begin_request / complete_read /
            # next_event_time exactly.
            cpu_time = core.cpu_time_ns
            instructions = core.instructions_retired
            requests = core.requests_issued
            i = feed.idx
            size = feed.size
            (
                gaps, writes, rows, flat_banks, rank_idx, channels,
                tags_arr, set_arr, addresses,
            ) = feed.block
            while True:
                if i >= size:
                    core.requests_issued = requests  # refill reads the budget
                    if prof is not None:
                        _t = perf_counter()
                        feed.refill()
                        prof.add("generation", perf_counter() - _t)
                    else:
                        feed.refill()
                    i = 0
                    size = feed.size
                    (
                        gaps, writes, rows, flat_banks, rank_idx, channels,
                        tags_arr, set_arr, addresses,
                    ) = feed.block

                if fast:
                    # Gallop over the block: probe _FIRST_PROBE entries,
                    # doubling while every probed line is resident.  The
                    # leading run of resident lines is provably all LLC
                    # hits and retires in one go; the first non-resident
                    # entry (a miss) then falls through to the reference
                    # branch below, which keeps the bitmap in sync.  A
                    # refill never fetches past the budget, so the block's
                    # end bounds every probe.
                    offsets = feed.offsets_np
                    stop = i
                    missed = False
                    while stop < size:
                        reach = stop + probe
                        if reach > size:
                            reach = size
                        resident = fastmap[offsets[stop:reach]]
                        k = int(resident.argmin())
                        if not resident[k]:
                            stop += k
                            missed = True
                            probe = _FIRST_PROBE
                            break
                        stop = reach
                        if probe < _FAST_BATCH:
                            probe += probe
                    run = stop - i
                    gap_ns_np = feed.gap_ns_np
                    # Whole-run vector mode.  When (a) every inter-access
                    # gap is at least the hit latency and (b) nothing in
                    # the outstanding-miss heap completes after the first
                    # issue, the MLP release clamp provably never binds:
                    # every issue time is exactly ``previous + gap``.
                    vector = (
                        run >= 16
                        and float(gap_ns_np[i:stop].min()) >= hit_latency
                        and (
                            not outstanding
                            or max(outstanding) <= cpu_time + gap_ns_np[i]
                        )
                    )
                    if tags_arr is None and (missed or (run and not vector)):
                        feed.materialise()
                        (
                            gaps, writes, rows, flat_banks, rank_idx,
                            channels, tags_arr, set_arr, addresses,
                        ) = feed.block
                    if run:
                        if vector:
                            # ``np.add.accumulate`` performs the identical
                            # chain of IEEE additions.  The per-set LRU
                            # state depends only on each line's *last*
                            # access: one sort of ``(line, position, write)``
                            # keys groups the run by line, each group's last
                            # key is that line's last access and any odd key
                            # in it marks a write, so every distinct line is
                            # moved to its set's MRU end (and dirtied once)
                            # in last-access order.  The heap's final content
                            # is the tail of the sorted union of old entries
                            # and in-run hit completions (pops always remove
                            # the global minimum because completions arrive
                            # in non-decreasing order).
                            seq = np.empty(run + 1)
                            seq[0] = cpu_time
                            seq[1:] = gap_ns_np[i:stop]
                            issues = np.add.accumulate(seq)
                            cpu_time = float(issues[run])
                            run_writes = feed.writes_np[i:stop]
                            run_lines = offsets[i:stop]
                            # key = line | 2 * position | write; below
                            # 2**42, as domain offsets stay below 2**26 and
                            # runs within a block.
                            shift = run.bit_length() + 1
                            keys = (run_lines << shift) + doubled[:run]
                            keys += run_writes
                            keys.sort()
                            edges = np.flatnonzero(np.diff(keys >> shift)) + 1
                            firsts = np.concatenate(([0], edges))
                            lasts = np.append(edges, run) - 1
                            written = np.bitwise_or.reduceat(keys & 1, firsts)
                            # 2 * last position + written, in access order
                            order = np.sort(
                                (keys[lasts] & ((1 << shift) - 2)) + written
                            )
                            touched = run_lines[order >> 1] + dom_base
                            for set_index, tag, dirty in zip(
                                (touched % num_sets).tolist(),
                                (touched // num_sets).tolist(),
                                (order & 1).tolist(),
                            ):
                                cache_set = sets[set_index]
                                cache_set.move_to_end(tag)
                                if dirty:
                                    cache_set[tag] = True
                            # Only the heap's final content matters, and it
                            # is the largest ``mlp`` values of the union --
                            # materialise just that tail.
                            read_pos = np.flatnonzero(~run_writes)
                            n_reads = read_pos.shape[0]
                            if n_reads >= mlp:
                                outstanding[:] = (
                                    issues[1:][read_pos[n_reads - mlp:]]
                                    + hit_latency
                                ).tolist()
                            elif n_reads:
                                merged = sorted(outstanding)
                                merged.extend(
                                    (
                                        issues[1:][read_pos] + hit_latency
                                    ).tolist()
                                )
                                outstanding[:] = merged[
                                    max(0, len(merged) - mlp):
                                ]
                        else:
                            j = i
                            while j < stop:
                                issue_ns = cpu_time + gaps[j] / peak
                                if len(outstanding) >= mlp:
                                    release = heappop(outstanding)
                                    if release > issue_ns:
                                        issue_ns = release
                                cpu_time = issue_ns
                                tag = tags_arr[j]
                                cache_set = sets[set_arr[j]]
                                cache_set.move_to_end(tag)
                                if writes[j]:
                                    cache_set[tag] = True
                                else:
                                    heappush(
                                        outstanding, issue_ns + hit_latency
                                    )
                                j += 1
                        stats.hits += run
                        per_core_hits[core_id] = (
                            per_core_hits.get(core_id, 0) + run
                        )
                        requests += run
                        instructions += int(feed.gaps_np[i:stop].sum())
                        i = stop
                        if requests >= budget:
                            feed.idx = i
                            core.cpu_time_ns = cpu_time
                            core.instructions_retired = instructions
                            core.requests_issued = requests
                            core.note_progress()
                            benign_pending.discard(core_id)
                            core_id = (
                                heappop(heap)[2]
                                if benign_pending and heap
                                else None
                            )
                            break
                    if not missed:
                        continue

                is_write = writes[i]
                gap = gaps[i]
                issue_ns = cpu_time + gap / peak
                if len(outstanding) >= mlp:
                    release = heappop(outstanding)
                    if release > issue_ns:
                        issue_ns = release
                cpu_time = issue_ns
                instructions += gap
                requests += 1

                if route is not None:
                    completion_ns = route(
                        core, addresses[i], is_write, issue_ns
                    )
                elif not bypasses and (tag := tags_arr[i]) in (
                    cache_set := sets[set_arr[i]]
                ):
                    # Inlined SharedLLC.access hit path.
                    cache_set.move_to_end(tag)
                    if is_write:
                        cache_set[tag] = True
                    stats.hits += 1
                    per_core_hits[core_id] = per_core_hits.get(core_id, 0) + 1
                    completion_ns = issue_ns + hit_latency
                else:
                    writeback_line = None
                    if not bypasses:
                        stats.misses += 1
                        per_core_misses[core_id] = (
                            per_core_misses.get(core_id, 0) + 1
                        )
                        if data_ways:
                            if len(cache_set) >= data_ways:
                                evicted_tag, dirty = cache_set.popitem(
                                    last=False
                                )
                                stats.evictions += 1
                                evicted_line = (
                                    evicted_tag * num_sets + set_arr[i]
                                )
                                if dirty:
                                    stats.dirty_evictions += 1
                                    writeback_line = evicted_line
                                if fast and dom_base <= evicted_line < dom_end:
                                    fastmap[evicted_line - dom_base] = False
                            cache_set[tag] = is_write
                            if fast:
                                line = tag * num_sets + set_arr[i]
                                if dom_base <= line < dom_end:
                                    fastmap[line - dom_base] = True
                    # The one DRAM tail, for LLC bypasses and misses alike.
                    # Blocks that are not predecoded (stretch blocks, and
                    # LLC cores without numpy) have no ``flat_banks``; their
                    # misses decode through ``service``.
                    if flat_banks is None:
                        completion_ns = service(
                            addresses[i], is_write, issue_ns, core_id
                        )
                    else:
                        row = rows[i]
                        flat = flat_banks[i]
                        key = flat * rows_per_bank + row
                        row_addr = row_cache.get(key)
                        if row_addr is None:
                            row_addr = row_cache[key] = new_tuple(
                                RowAddress, (bank_of[flat], row)
                            )
                        if hookless:
                            # Inlined service_row for a hookless controller.
                            cstats.requests += 1
                            if is_write:
                                cstats.write_requests += 1
                            else:
                                cstats.read_requests += 1
                            if issue_ns >= controller._next_window_ns:
                                controller._check_refresh_window(issue_ns)
                            _s, completion_ns, activated, _h = access_flat(
                                flat, rank_idx[i], channels[i], row,
                                is_write, issue_ns, 0.0,
                            )
                            if activated:
                                response = on_activation(
                                    row_addr, completion_ns
                                )
                                if (
                                    response is not EMPTY_RESPONSE
                                    and not response.is_empty
                                ):
                                    apply_response(
                                        response, row_addr, completion_ns
                                    )
                        else:
                            completion_ns = service_row(
                                row_addr, flat, rank_idx[i], channels[i],
                                row, is_write, issue_ns, core_id,
                            )
                    if not bypasses:
                        if writeback_line is not None:
                            service(
                                writeback_line * line_size, True,
                                completion_ns, core_id,
                            )
                        completion_ns += hit_latency

                i += 1
                if not is_write:
                    heappush(outstanding, completion_ns)
                if budget is not None and requests >= budget:
                    # note_progress is a no-op until the budget is reached,
                    # so calling it only here matches the scalar engine.
                    feed.idx = i
                    core.cpu_time_ns = cpu_time
                    core.instructions_retired = instructions
                    core.requests_issued = requests
                    core.note_progress()
                    benign_pending.discard(core_id)
                    core_id = (
                        heappop(heap)[2] if benign_pending and heap else None
                    )
                    break
                if outstanding and len(outstanding) >= mlp:
                    head = outstanding[0]
                    next_ns = head if head > cpu_time else cpu_time
                else:
                    next_ns = cpu_time
                # Strictly earlier than the heap head: on a tie the scalar
                # engine serves the heap entry first (older sequence number).
                # So the head is strictly smaller than this core's new entry,
                # and one ``heapreplace`` returns what a push and then a pop
                # would, leaving the same entries in the heap.
                if heap and heap[0][0] <= next_ns:
                    feed.idx = i
                    core.cpu_time_ns = cpu_time
                    core.instructions_retired = instructions
                    core.requests_issued = requests
                    core_id = heapreplace(
                        heap, (next_ns, sequence, core_id)
                    )[2]
                    sequence += 1
                    break


#: ``event`` is an alias of ``batched``: the stretch executor lives on the
#: one fast engine, and the name keeps working in scripts and
#: ``REPRO_SIM_ENGINE``.
_ENGINES = {
    "scalar": Simulator,
    "batched": BatchedSimulator,
    "event": BatchedSimulator,
}


def engine_class(name: str | None = None) -> type[Simulator]:
    """Resolve a simulation engine by name.

    ``None`` falls back to the ``REPRO_SIM_ENGINE`` environment variable and
    then to ``"batched"``.  Both engines produce bit-identical results:
    ``scalar`` is the reference model (and escape hatch), ``batched`` the
    fast engine (``event`` is accepted as an alias of it).
    """
    chosen = name or os.environ.get("REPRO_SIM_ENGINE") or "batched"
    try:
        return _ENGINES[chosen]
    except KeyError:
        raise ValueError(
            f"unknown simulation engine {chosen!r}; "
            f"expected one of {sorted(_ENGINES)}"
        ) from None
