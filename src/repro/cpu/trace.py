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
        state afterwards), but runs as one tight loop over a pregenerated RNG
        block instead of per-entry method calls and object construction.
        """
        # Worst case per entry: reuse float + jump draw + run-length float +
        # write float + jitter draw.  Over-reserving is free: unconsumed
        # outputs stay buffered in the RNG for later calls.
        reuse = self._reuse_fraction
        locality = self.profile.row_locality
        worst = 3 + (1 if reuse else 0) + (1 if 0.0 < locality < 1.0 else 0)
        block, start = self._rng.reserve(count * worst)
        segment = block[start:start + count * worst]
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
        two53 = float(1 << 53)

        # Each draw position is read either as a float or as a modulus, so
        # the float view of the whole segment can be precomputed vectorized;
        # it matches next_float bit-for-bit ((u >> 11) / 2**53 in both paths).
        # Moduli stay scalar: their values are branch-dependent and cheap.
        if isinstance(segment, list):
            buf = segment
            floats = [(value >> 11) / two53 for value in segment]
        else:
            buf = segment.tolist()
            floats = ((segment >> 11) / two53).tolist()

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


class WorkloadProfileLike(Protocol):
    """Structural type for workload profiles (avoids an import cycle)."""

    apki: float
    row_locality: float
    footprint_bytes: int
    write_fraction: float
    reuse_fraction: float
    hot_bytes: int
