"""Synthetic memory-access traces.

The original evaluation replays instruction traces of 57 SPEC2006 / SPEC2017 /
TPC / Hadoop / MediaBench / YCSB applications through Ramulator's core model.
Those traces are not available here, so each workload is replaced by a
deterministic synthetic generator (:class:`WorkloadTraceGenerator`) that
produces LLC-level accesses with the workload's memory intensity, row-buffer
locality, working-set footprint and read/write mix (see
``repro/cpu/workloads.py`` and DESIGN.md for the substitution rationale).

A trace entry carries the number of instructions executed since the previous
LLC access (``gap_instructions``), the physical address, and whether it is a
write.  Attack generators in :mod:`repro.attacks` implement the same
:class:`RequestGenerator` protocol so the simulator treats benign cores and
attacker cores uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.config import DRAMOrganization
from repro.crypto.prng import XorShift64
from repro.dram.address import AddressMapper

try:  # numpy builds whole trace blocks; everything works without it.
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image ships numpy
    _np = None

#: ``next_float``'s divisor, and its largest output.
_TWO53 = float(1 << 53)
_MAX_FLOAT = ((1 << 53) - 1) / _TWO53


@dataclass(frozen=True)
class TraceEntry:
    """One LLC-level memory access."""

    gap_instructions: int
    address: int
    is_write: bool


class RequestGenerator(Protocol):
    """Protocol implemented by workload traces and attack generators."""

    #: Whether requests from this generator bypass the shared LLC.  Attack
    #: kernels that must reach DRAM on every access (streaming over huge
    #: footprints, or explicit cache-line flushes) set this to ``True``.
    bypasses_llc: bool

    def next_entry(self) -> TraceEntry:
        """Produce the next access of the (conceptually infinite) stream."""
        ...


def generator_batch(generator, count: int):
    """Next ``count`` entries of any generator as parallel lists.

    Returns ``(gaps, addresses, writes)``.  Generators that implement a
    ``next_batch`` fast path (workload traces, trace files, the sequence-
    cycling and streaming attacks) are used directly; anything else falls
    back to per-entry calls, so the result is always exactly what ``count``
    calls of ``next_entry`` would produce.
    """
    batch = getattr(generator, "next_batch", None)
    if batch is not None:
        return batch(count)
    gaps = [0] * count
    addresses = [0] * count
    writes = [False] * count
    next_entry = generator.next_entry
    for i in range(count):
        entry = next_entry()
        gaps[i] = entry.gap_instructions
        addresses[i] = entry.address
        writes[i] = entry.is_write
    return gaps, addresses, writes


class IdleGenerator:
    """A core that never issues memory traffic.

    Used for the no-attack baseline configurations, where the attacker core of
    an attack configuration is replaced by an idle core so that normalized
    performance isolates the effect of the attack plus the mitigation.
    """

    bypasses_llc = False

    def next_entry(self) -> TraceEntry:  # pragma: no cover - never called
        raise RuntimeError("IdleGenerator does not produce requests")


class WorkloadTraceGenerator:
    """Synthetic LLC-access stream for one workload running on one core.

    The address stream walks a per-core private footprint.  With probability
    ``row_locality`` the next access is the next cache line within the current
    DRAM row (so high-locality workloads enjoy row-buffer hits and LLC hits);
    otherwise it jumps to a random line of the footprint.  Instruction gaps
    are drawn around ``1000 / apki`` with a small deterministic jitter.
    """

    bypasses_llc = False

    def __init__(
        self,
        profile: "WorkloadProfileLike",
        org: DRAMOrganization,
        mapper: AddressMapper,
        core_id: int,
        seed: int,
    ):
        if profile.apki <= 0:
            raise ValueError("workload must have a positive access rate")
        self.profile = profile
        self.org = org
        self.mapper = mapper
        self.core_id = core_id
        self._rng = XorShift64(seed ^ (0x5151 + core_id * 0x9E37))
        line = org.line_size_bytes

        # Each core owns a private, contiguous slice of physical memory so
        # homogeneous copies do not share data.  The slice starts at a
        # per-core offset and spans the workload footprint.
        total_lines = org.total_bytes // line
        self._footprint_lines = max(
            1, min(int(profile.footprint_bytes) // line, total_lines // 8)
        )
        region_stride = total_lines // 8
        self._base_line = (core_id % 8) * region_stride
        self._lines_per_row = org.lines_per_row

        self._mean_gap = max(1, int(round(1000.0 / profile.apki)))
        self._current_line = self._base_line
        self._run_remaining = 0
        self._reuse_fraction = getattr(profile, "reuse_fraction", 0.0)
        hot_bytes = getattr(profile, "hot_bytes", 0)
        self._hot_lines = max(1, min(self._footprint_lines, hot_bytes // line))

    def _random_jump(self) -> None:
        if self._reuse_fraction and self._rng.next_float() < self._reuse_fraction:
            # Temporal locality: revisit the workload's small hot region.
            offset = self._rng.next_below(self._hot_lines)
        else:
            offset = self._rng.next_below(self._footprint_lines)
        self._current_line = self._base_line + offset
        # A fresh jump starts a sequential run whose expected length reflects
        # the workload's row-buffer locality.
        locality = self.profile.row_locality
        if locality >= 1.0:
            self._run_remaining = self._lines_per_row
        elif locality <= 0.0:
            self._run_remaining = 0
        else:
            mean_run = locality / (1.0 - locality)
            self._run_remaining = min(
                self._lines_per_row,
                1 + int(self._rng.next_float() * 2 * mean_run),
            )

    def next_entry(self) -> TraceEntry:
        if self._run_remaining > 0:
            self._run_remaining -= 1
            self._current_line += 1
            if (
                self._current_line
                >= self._base_line + self._footprint_lines
            ):
                self._current_line = self._base_line
        else:
            self._random_jump()

        address = self._current_line * self.org.line_size_bytes
        is_write = self._rng.next_float() < self.profile.write_fraction
        jitter = self._rng.next_below(max(1, self._mean_gap // 2) * 2 + 1)
        gap = max(1, self._mean_gap - self._mean_gap // 2 + jitter)
        return TraceEntry(gap_instructions=gap, address=address, is_write=is_write)

    def next_batch(self, count: int):
        """Next ``count`` entries as parallel ``(gaps, addresses, writes)``.

        Bit-identical to ``count`` calls of :meth:`next_entry` (same RNG
        consumption order, same addresses/gaps/write flags, same generator
        state afterwards).  With numpy it is :meth:`next_arrays` as lists;
        without, one tight loop over a pregenerated RNG block.
        """
        if _np is not None:
            gaps, addresses, writes = self.next_arrays(count)
            return gaps.tolist(), addresses.tolist(), writes.tolist()
        # Worst case per entry: reuse float + jump draw + run-length float +
        # write float + jitter draw.  Over-reserving is free: unconsumed
        # outputs stay buffered in the RNG for later calls.
        reuse = self._reuse_fraction
        locality = self.profile.row_locality
        worst = 3 + (1 if reuse else 0) + (1 if 0.0 < locality < 1.0 else 0)
        block, start = self._rng.reserve(count * worst)
        buf = block[start:start + count * worst]
        pos = 0

        line_size = self.org.line_size_bytes
        base = self._base_line
        footprint = self._footprint_lines
        limit = base + footprint
        lines_per_row = self._lines_per_row
        mean_gap = self._mean_gap
        jitter_mod = max(1, mean_gap // 2) * 2 + 1
        gap_base = mean_gap - mean_gap // 2
        hot = self._hot_lines
        write_fraction = self.profile.write_fraction
        mean_run = locality / (1.0 - locality) if 0.0 < locality < 1.0 else 0.0

        # Each draw position is read either as a float or as a modulus, so
        # the float view of the whole block is precomputed; it matches
        # next_float bit-for-bit ((u >> 11) / 2**53 in both paths).
        floats = [(value >> 11) / _TWO53 for value in buf]

        cur = self._current_line
        run = self._run_remaining
        gaps = [0] * count
        addresses = [0] * count
        writes = [False] * count
        for i in range(count):
            if run > 0:
                run -= 1
                cur += 1
                if cur >= limit:
                    cur = base
            else:
                if reuse:
                    if floats[pos] < reuse:
                        pos += 1
                        cur = base + buf[pos] % hot
                    else:
                        pos += 1
                        cur = base + buf[pos] % footprint
                    pos += 1
                else:
                    cur = base + buf[pos] % footprint
                    pos += 1
                if locality >= 1.0:
                    run = lines_per_row
                elif locality <= 0.0:
                    run = 0
                else:
                    length = 1 + int(floats[pos] * 2 * mean_run)
                    pos += 1
                    run = length if length < lines_per_row else lines_per_row
            addresses[i] = cur * line_size
            writes[i] = floats[pos] < write_fraction
            pos += 1
            gap = gap_base + buf[pos] % jitter_mod
            pos += 1
            gaps[i] = gap if gap > 1 else 1

        self._current_line = cur
        self._run_remaining = run
        self._rng.consume(pos)
        return gaps, addresses, writes

    def next_arrays(self, count: int):
        """Next ``count`` entries as numpy arrays ``(gaps, addresses,
        writes)`` of dtypes int64, int64 and bool.

        Bit-identical to ``count`` calls of :meth:`next_entry`, the
        generator's and the RNG's state afterwards included.  An entry
        inside a sequential run draws two outputs (write float, gap jitter);
        a jump first draws ``lead`` more: a reuse float when the profile has
        a hot region, its target, and a run-length float when locality is
        fractional.  So each jump's run length fixes where the next jump's
        draws start.  One Python loop steps over the jumps only, through a
        table of every draw position's successor (plain arithmetic when the
        run length cannot vary); numpy then gathers each entry's line, write
        flag and gap from the reserved draws.
        """
        np = _np
        if count <= 0:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=bool),
            )
        reuse = self._reuse_fraction
        locality = self.profile.row_locality
        lines_per_row = self._lines_per_row
        footprint = self._footprint_lines
        base = self._base_line
        drawn_run = 0.0 < locality < 1.0
        lead = (1 if reuse else 0) + 1 + (1 if drawn_run else 0)
        if locality >= 1.0:
            shortest = longest = lines_per_row
        elif locality <= 0.0:
            shortest = longest = 0
        else:
            mean_run = locality / (1.0 - locality)
            shortest = min(lines_per_row, 1)
            longest = min(lines_per_row, 1 + int(_MAX_FLOAT * 2 * mean_run))

        # The entries left in the current run come first; every later jump
        # but the last is followed by at least ``shortest`` run entries,
        # which bounds the draws the block can need.
        head = min(self._run_remaining, count)
        most_jumps = -(-(count - head) // (1 + shortest))
        need = 2 * count + lead * most_jumps
        block, start = self._rng.reserve(need)
        draws = block[start:start + need]

        # The jumps' first draw positions and run lengths.  Before jump k
        # come 2 draws per entry and ``lead`` per earlier jump, so a jump
        # drawing from position p is entry (p - lead * k) / 2.
        if shortest == longest:
            jumps = np.arange(most_jumps, dtype=np.int64)
            jumps *= lead + 2 + 2 * shortest
            jumps += 2 * head
            last_run = shortest
        else:
            # runs[p]: run length of a jump drawing from position p, whose
            # run-length float is draw p + lead - 1 (same IEEE operations
            # as next_entry: (f * 2) * mean_run, truncated).
            runs = (draws[lead - 1:] >> 11) / _TWO53 * 2 * mean_run
            runs = np.minimum(runs.astype(np.int64) + 1, lines_per_row)
            successor = memoryview(
                runs * 2 + np.arange(lead + 2, lead + 2 + runs.shape[0])
            )
            positions = []
            append = positions.append
            p = 2 * head
            bound = 2 * count
            while p < bound:
                append(p)
                p = successor[p]
                bound += lead
            jumps = np.array(positions, dtype=np.int64)
            last_run = int(runs[positions[-1]]) if positions else 0
        at = (jumps - lead * np.arange(jumps.shape[0])) // 2

        if reuse:
            hot = (draws[jumps] >> 11) / _TWO53 < reuse
            targets = draws[jumps + 1]
            offsets = np.where(
                hot,
                targets % np.uint64(self._hot_lines),
                targets % np.uint64(footprint),
            )
        else:
            offsets = draws[jumps] % np.uint64(footprint)

        # seen[i]: jumps at or before entry i, so entry i's write float is
        # draw 2i + lead * seen[i] and its jitter the draw after.  A run
        # walks on from its origin line, wrapping around the footprint.
        index = np.arange(count, dtype=np.int64)
        seen = np.zeros(count, dtype=np.int64)
        seen[at] = 1
        np.cumsum(seen, out=seen)
        origin = np.empty(jumps.shape[0] + 1, dtype=np.int64)
        origin[0] = self._current_line - base + 1
        origin[1:] = offsets.astype(np.int64) - at
        lines = (origin[seen] + index) % footprint + base
        written = 2 * index + lead * seen
        writes = (draws[written] >> 11) / _TWO53 < self.profile.write_fraction
        mean_gap = self._mean_gap
        jitter = draws[written + 1] % np.uint64(max(1, mean_gap // 2) * 2 + 1)
        # mean_gap >= 1, so every gap is at least 1 without a clamp.
        gaps = jitter.astype(np.int64) + (mean_gap - mean_gap // 2)

        self._current_line = int(lines[-1])
        if at.shape[0]:
            self._run_remaining = last_run - (count - 1 - int(at[-1]))
        else:
            self._run_remaining -= count
        self._rng.consume(int(written[-1]) + 2)
        return gaps, lines * self.org.line_size_bytes, writes

    def state_fingerprint(self) -> tuple:
        """Compact state fingerprint for the warm-up memo (see
        :func:`repro.sim.batch._state_fingerprint`): every value
        :meth:`next_entry` and :meth:`next_arrays` read, instead of a
        recursion through the profile, the DRAM organisation and the
        address mapper."""
        profile = self.profile
        return (
            "workload-trace",
            profile.row_locality,
            profile.write_fraction,
            self.org.line_size_bytes,
            self._footprint_lines,
            self._base_line,
            self._lines_per_row,
            self._mean_gap,
            self._reuse_fraction,
            self._hot_lines,
            self._current_line,
            self._run_remaining,
            self._rng.state_fingerprint(),
        )

    def state_snapshot(self) -> tuple:
        """Mutable state only (see :func:`repro.sim.batch._generator_snapshot`):
        the cursor and the RNG's state; everything else is fixed at
        construction."""
        return (
            self._current_line,
            self._run_remaining,
            self._rng.state_snapshot(),
        )

    def state_restore(self, state: tuple) -> None:
        self._current_line, self._run_remaining, rng_state = state
        self._rng.state_restore(rng_state)


class WorkloadProfileLike(Protocol):
    """Structural type for workload profiles (avoids an import cycle)."""

    apki: float
    row_locality: float
    footprint_bytes: int
    write_fraction: float
    reuse_fraction: float
    hot_bytes: int
