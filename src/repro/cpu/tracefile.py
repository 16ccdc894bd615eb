"""Reading, writing and replaying memory-access trace files.

The paper's evaluation is trace-driven: instruction traces of the 57
benchmark applications are replayed through the simulator.  The synthetic
:class:`~repro.cpu.trace.WorkloadTraceGenerator` stands in for those traces,
but downstream users may have real traces of their own (or want to freeze a
synthetic stream for exact reproducibility across runs and machines).  This
module provides the file format and the replay generator for that:

* :func:`format_trace` / :func:`write_trace` / :func:`read_trace` -- a
  simple line-oriented text format, one access per line::

      # comment lines and blank lines are ignored
      <gap_instructions> <physical_address_hex> <R|W>

  ``gap_instructions`` is the number of instructions executed since the
  previous LLC-level access, exactly as carried by
  :class:`~repro.cpu.trace.TraceEntry` (and in the spirit of the Ramulator
  CPU-trace format the paper's artifact uses).
* :class:`FileTraceGenerator` -- replays a recorded trace through the
  simulator; it implements the same :class:`~repro.cpu.trace.RequestGenerator`
  protocol as the synthetic workloads and the attack kernels.
* :func:`record_trace` / :func:`record_workload_trace` -- capture the next
  ``n`` entries of any generator (or of a named workload profile) so they can
  be written out and replayed later.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.config import SystemConfig, baseline_config
from repro.cpu.trace import RequestGenerator, TraceEntry, WorkloadTraceGenerator
from repro.cpu.workloads import WorkloadProfile, get_workload
from repro.dram.address import AddressMapper

try:  # numpy backs the array hook of the fast engine; optional.
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image ships numpy
    _np = None


class TraceFormatError(ValueError):
    """Raised when a trace file line cannot be parsed."""


def format_trace(entries: Iterable[TraceEntry], header: str = "") -> str:
    """The trace-file text of ``entries``, each ``header`` line a comment."""
    lines = [f"# {line}\n" for line in header.splitlines()]
    for entry in entries:
        kind = "W" if entry.is_write else "R"
        lines.append(f"{entry.gap_instructions} 0x{entry.address:x} {kind}\n")
    return "".join(lines)


def write_trace(path: str | Path, entries: Iterable[TraceEntry], header: str = "") -> int:
    """Write ``entries`` to ``path`` and return the number of lines written."""
    entries = list(entries)
    Path(path).write_text(format_trace(entries, header), encoding="utf-8")
    return len(entries)


def _parse_line(line: str, line_number: int) -> TraceEntry | None:
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    fields = stripped.split()
    if len(fields) != 3:
        raise TraceFormatError(
            f"line {line_number}: expected '<gap> <address> <R|W>', got {stripped!r}"
        )
    gap_text, address_text, kind = fields
    try:
        gap = int(gap_text)
        address = int(address_text, 0)
    except ValueError as exc:
        raise TraceFormatError(f"line {line_number}: {exc}") from None
    if gap < 0 or address < 0:
        raise TraceFormatError(
            f"line {line_number}: gap and address must be non-negative"
        )
    kind = kind.upper()
    if kind not in ("R", "W"):
        raise TraceFormatError(
            f"line {line_number}: access kind must be 'R' or 'W', got {kind!r}"
        )
    return TraceEntry(gap_instructions=gap, address=address, is_write=kind == "W")


def read_trace(path: str | Path) -> list[TraceEntry]:
    """Parse a trace file written by :func:`write_trace` (or by hand)."""
    path = Path(path)
    entries: list[TraceEntry] = []
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            entry = _parse_line(line, line_number)
            if entry is not None:
                entries.append(entry)
    return entries


class FileTraceGenerator:
    """Replays a fixed list of trace entries as a request stream.

    The simulator treats request generators as infinite streams, so by default
    the trace wraps around when it is exhausted (``loop=True``).  With
    ``loop=False`` the generator raises :class:`StopIteration` instead, which
    is convenient for strict replay in unit tests.
    """

    bypasses_llc = False

    def __init__(
        self,
        entries: Sequence[TraceEntry] | str | Path,
        loop: bool = True,
        bypasses_llc: bool = False,
    ):
        if isinstance(entries, (str, Path)):
            entries = read_trace(entries)
        if not entries:
            raise ValueError("a trace must contain at least one entry")
        self._entries = list(entries)
        # Parallel arrays mirror the entry list so ``next_batch`` can slice
        # instead of unpacking TraceEntry objects per access.
        self._gaps = [entry.gap_instructions for entry in self._entries]
        self._addresses = [entry.address for entry in self._entries]
        self._writes = [entry.is_write for entry in self._entries]
        self.loop = loop
        self.bypasses_llc = bypasses_llc
        self._cursor = 0
        self.replays = 0
        self._digest = None
        self._arrays = None

    def __len__(self) -> int:
        return len(self._entries)

    def next_entry(self) -> TraceEntry:
        if self._cursor >= len(self._entries):
            if not self.loop:
                raise StopIteration("trace exhausted")
            self._cursor = 0
            self.replays += 1
        entry = self._entries[self._cursor]
        self._cursor += 1
        return entry

    def _advance(self, count: int) -> list[tuple[int, int]]:
        """Move the cursor over the next ``count`` entries.

        Returns the ``(start, stop)`` slices of the entry arrays those
        entries occupy, in stream order.  Bit-identical to ``count`` calls
        of :meth:`next_entry`: same lazy wrap-around, same ``replays``
        accounting, same :class:`StopIteration` point for non-looping
        traces.
        """
        spans: list[tuple[int, int]] = []
        total = len(self._entries)
        remaining = count
        while remaining > 0:
            if self._cursor >= total:
                if not self.loop:
                    if remaining == count:
                        raise StopIteration("trace exhausted")
                    raise StopIteration(
                        f"trace exhausted {remaining} entries short of a "
                        f"{count}-entry batch"
                    )
                self._cursor = 0
                self.replays += 1
            take = min(remaining, total - self._cursor)
            stop = self._cursor + take
            spans.append((self._cursor, stop))
            self._cursor = stop
            remaining -= take
        return spans

    def next_batch(self, count: int):
        """Next ``count`` entries as parallel ``(gaps, addresses, writes)``
        lists, sliced from the pre-split parallel arrays (see
        :meth:`_advance`)."""
        gaps: list[int] = []
        addresses: list[int] = []
        writes: list[bool] = []
        for start, stop in self._advance(count):
            gaps.extend(self._gaps[start:stop])
            addresses.extend(self._addresses[start:stop])
            writes.extend(self._writes[start:stop])
        return gaps, addresses, writes

    def next_arrays(self, count: int):
        """:meth:`next_batch` as numpy arrays: ``(gaps, addresses, writes)``
        of dtypes int64, int64 and bool, advancing the same cursor.

        The fast engine's stretch executor refills through this hook, so a
        replayed trace reaches it without a per-entry list in between.
        """
        if self._arrays is None:
            self._arrays = (
                _np.array(self._gaps, dtype=_np.int64),
                _np.array(self._addresses, dtype=_np.int64),
                _np.array(self._writes, dtype=bool),
            )
        spans = self._advance(count)
        return tuple(
            _np.concatenate(
                [array[start:stop] for start, stop in spans] or [array[:0]]
            )
            for array in self._arrays
        )

    def content_digest(self) -> str:
        """SHA-256 over the canonical text form of the entries.

        Identifies the trace *content* independent of file path, mtime or
        formatting, so scenario cache keys survive renames and re-writes.
        """
        if self._digest is None:
            hasher = hashlib.sha256()
            for gap, address, write in zip(
                self._gaps, self._addresses, self._writes
            ):
                hasher.update(
                    f"{gap} {address:x} {'W' if write else 'R'}\n".encode()
                )
            self._digest = hasher.hexdigest()
        return self._digest

    def state_fingerprint(self):
        """Compact state fingerprint for the warm-up memo (see
        :func:`repro.sim.batch._state_fingerprint`); replaces attribute
        recursion, which would otherwise repr every entry."""
        return (
            "file-trace",
            self.content_digest(),
            self._cursor,
            self.replays,
            self.loop,
            self.bypasses_llc,
        )

    def state_snapshot(self) -> tuple:
        """Mutable state only (see :func:`repro.sim.batch._generator_snapshot`):
        the entry arrays are immutable, so the warm-up memo need not copy
        them."""
        return (self._cursor, self.replays)

    def state_restore(self, state: tuple) -> None:
        self._cursor, self.replays = state

    def mean_gap_instructions(self) -> float:
        """Average instruction gap of one full pass over the trace."""
        return sum(self._gaps) / len(self._gaps)


def record_trace(generator: RequestGenerator, num_entries: int) -> list[TraceEntry]:
    """Capture the next ``num_entries`` accesses produced by ``generator``."""
    if num_entries < 1:
        raise ValueError("num_entries must be positive")
    return [generator.next_entry() for _ in range(num_entries)]


def record_workload_trace(
    workload: str | WorkloadProfile,
    num_entries: int,
    config: SystemConfig | None = None,
    core_id: int = 0,
    seed: int | None = None,
) -> list[TraceEntry]:
    """Record a synthetic trace for one of the 57 named workload profiles.

    This is the bridge between the synthetic workload model and the trace file
    format: the recorded entries can be written with :func:`write_trace`,
    shared, edited, and replayed bit-exactly with :class:`FileTraceGenerator`.
    """
    config = config or baseline_config()
    profile = get_workload(workload) if isinstance(workload, str) else workload
    generator = WorkloadTraceGenerator(
        profile,
        config.dram,
        AddressMapper(config.dram),
        core_id=core_id,
        seed=config.seed if seed is None else seed,
    )
    return record_trace(generator, num_entries)


@dataclass(frozen=True)
class TraceInfo:
    """A parsed trace file plus the identity facts scenario plans need."""

    path: str
    entries: tuple[TraceEntry, ...]
    digest: str
    mean_gap: float


#: ``(abspath, mtime_ns, size)`` -> :class:`TraceInfo` memo: scenario
#: expansion and cache-key computation re-read the same trace file many
#: times per sweep.
_TRACE_INFO_CACHE: dict = {}
_TRACE_INFO_CACHE_MAX = 32


def load_trace_info(path: str | Path) -> TraceInfo:
    """Parse (memoized) a trace file into a :class:`TraceInfo`.

    The memo key includes the file's mtime and size, so an edited trace is
    re-read while repeated scenario expansion over an unchanged file is
    serviced from memory.
    """
    resolved = Path(path).resolve()
    stat = resolved.stat()
    key = (str(resolved), stat.st_mtime_ns, stat.st_size)
    info = _TRACE_INFO_CACHE.get(key)
    if info is None:
        entries = read_trace(resolved)
        generator = FileTraceGenerator(entries)
        info = TraceInfo(
            path=str(resolved),
            entries=tuple(entries),
            digest=generator.content_digest(),
            mean_gap=generator.mean_gap_instructions(),
        )
        if len(_TRACE_INFO_CACHE) >= _TRACE_INFO_CACHE_MAX:
            _TRACE_INFO_CACHE.pop(next(iter(_TRACE_INFO_CACHE)))
        _TRACE_INFO_CACHE[key] = info
    return info
