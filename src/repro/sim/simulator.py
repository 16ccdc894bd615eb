"""The multi-core, trace-driven system simulator.

A :class:`Simulator` owns one instance of every substrate -- the shared LLC,
the memory controller with its RowHammer tracker, the DRAM timing model, and
one :class:`~repro.cpu.core.CoreModel` per core -- and advances them in global
time order.  Cores are driven by request generators: benign cores replay
synthetic workload traces, attacker cores replay attack kernels, and idle
cores generate nothing.

The simulation ends when every *benign* core has issued its request budget
(attackers have no budget; they provide pressure for as long as the benign
cores run), after which per-core IPCs, DRAM/LLC/tracker statistics, the energy
report and the optional security audit are collected into a
:class:`SimulationResult`.
"""

from __future__ import annotations

import dataclasses
import heapq
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.analysis.security import GroundTruthAuditor, SecurityReport, SecurityViolation
from repro.cache.llc import CacheStats, SharedLLC
from repro.config import SystemConfig
from repro.cpu.core import CoreModel, CoreResult
from repro.cpu.trace import RequestGenerator
from repro.dram.address import AddressMapper
from repro.dram.commands import CommandKind
from repro.dram.dram_system import DRAMStats, DRAMSystem
from repro.dram.energy import EnergyReport
from repro.mc.controller import ControllerStats, MemoryController
from repro.sim.events.events import EventBus, RequestComplete, RunEnd
from repro.trackers.base import RowHammerTracker, TrackerStats
from repro.trackers.registry import create_tracker


def _filtered_fields(cls, data: dict) -> dict:
    """Keep only the keys that are fields of dataclass ``cls``.

    Serialized results may come from a slightly newer or older code version;
    unknown keys are dropped rather than crashing deserialization (missing
    keys still raise, which the cache layer treats as a miss).
    """
    names = {f.name for f in dataclasses.fields(cls)}
    return {key: value for key, value in data.items() if key in names}


@dataclass(frozen=True)
class CoreSpec:
    """Describes one core of a simulation scenario."""

    generator: RequestGenerator | None
    request_budget: int | None
    mean_gap_instructions: float = 50.0
    is_attacker: bool = False
    #: Attack kernels use aggressive software prefetching / deep MLP; this
    #: overrides the per-core outstanding-miss limit for such cores.
    max_outstanding_override: int | None = None

    def __post_init__(self):
        if self.request_budget is not None and self.request_budget < 1:
            raise ValueError(
                f"request budget must be >= 1, got {self.request_budget}"
            )

    @property
    def is_idle(self) -> bool:
        return self.generator is None


@dataclass
class SimulationResult:
    """Everything a simulation produces."""

    tracker_name: str
    core_results: tuple[CoreResult, ...]
    elapsed_ns: float
    dram_stats: DRAMStats
    llc_stats: CacheStats
    controller_stats: ControllerStats
    tracker_stats: TrackerStats
    energy: EnergyReport
    security: SecurityReport | None = None
    extra: dict[str, float] = field(default_factory=dict)

    def benign_results(self) -> tuple[CoreResult, ...]:
        return tuple(result for result in self.core_results if not result.is_attacker)

    def benign_ipcs(self) -> list[float]:
        return [result.ipc for result in self.benign_results()]

    def ipc_of(self, core_id: int) -> float:
        for result in self.core_results:
            if result.core_id == core_id:
                return result.ipc
        raise KeyError(f"no core {core_id}")

    # ------------------------------------------------------------------ #
    # Serialization: results must cross process boundaries (sweep workers)
    # and cache boundaries (the on-disk result cache), so everything a
    # simulation produces round-trips through plain JSON-compatible types.
    # Float fields round-trip exactly (JSON uses shortest-repr floats).

    def to_dict(self) -> dict:
        """Serialize to a JSON-compatible dictionary (see :meth:`from_dict`)."""
        security = None
        if self.security is not None:
            security = {
                "nrh": self.security.nrh,
                "max_count": self.security.max_count,
                "rows_tracked": self.security.rows_tracked,
                "violations": [
                    dataclasses.asdict(violation)
                    for violation in self.security.violations
                ],
            }
        return {
            "tracker_name": self.tracker_name,
            "core_results": [
                dataclasses.asdict(result) for result in self.core_results
            ],
            "elapsed_ns": self.elapsed_ns,
            "dram_stats": dataclasses.asdict(self.dram_stats),
            "llc_stats": dataclasses.asdict(self.llc_stats),
            "controller_stats": dataclasses.asdict(self.controller_stats),
            "tracker_stats": dataclasses.asdict(self.tracker_stats),
            "energy": {
                "dynamic_nj": self.energy.dynamic_nj,
                "background_nj": self.energy.background_nj,
                "command_counts": {
                    kind.value: count
                    for kind, count in self.energy.command_counts.items()
                },
            },
            "security": security,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationResult":
        """Rebuild a result serialized by :meth:`to_dict`.

        Raises ``KeyError`` / ``TypeError`` / ``ValueError`` on malformed
        input; callers that replay untrusted bytes (the on-disk cache) treat
        any of those as a cache miss.
        """
        llc_data = dict(data["llc_stats"])
        # JSON turns integer dictionary keys into strings; restore them.
        for key in ("per_core_hits", "per_core_misses"):
            llc_data[key] = {
                int(core): count for core, count in llc_data.get(key, {}).items()
            }
        energy_data = data["energy"]
        security = None
        if data.get("security") is not None:
            security_data = data["security"]
            security = SecurityReport(
                nrh=security_data["nrh"],
                max_count=security_data["max_count"],
                rows_tracked=security_data["rows_tracked"],
                violations=tuple(
                    SecurityViolation(**_filtered_fields(SecurityViolation, v))
                    for v in security_data["violations"]
                ),
            )
        return cls(
            tracker_name=data["tracker_name"],
            core_results=tuple(
                CoreResult(**_filtered_fields(CoreResult, result))
                for result in data["core_results"]
            ),
            elapsed_ns=data["elapsed_ns"],
            dram_stats=DRAMStats(**_filtered_fields(DRAMStats, data["dram_stats"])),
            llc_stats=CacheStats(**_filtered_fields(CacheStats, llc_data)),
            controller_stats=ControllerStats(
                **_filtered_fields(ControllerStats, data["controller_stats"])
            ),
            tracker_stats=TrackerStats(
                **_filtered_fields(TrackerStats, data["tracker_stats"])
            ),
            energy=EnergyReport(
                dynamic_nj=energy_data["dynamic_nj"],
                background_nj=energy_data["background_nj"],
                command_counts={
                    CommandKind(kind): count
                    for kind, count in energy_data["command_counts"].items()
                },
            ),
            security=security,
            extra=dict(data.get("extra", {})),
        )


class Simulator:
    """Runs one multi-core scenario to completion."""

    def __init__(
        self,
        config: SystemConfig,
        tracker: RowHammerTracker | str,
        core_specs: list[CoreSpec],
        enable_auditor: bool = False,
        llc_warmup_accesses: int = 0,
        observers=(),
        profiler=None,
    ):
        """``llc_warmup_accesses`` pre-plays that many accesses per core
        through the shared LLC (tags only, no timing) before measurement, so
        short windows start from a warm steady-state cache instead of a cold
        one.

        ``observers`` are objects with an ``attach(simulator)`` method,
        called after warm-up, that subscribe handlers to :attr:`events`;
        ``profiler`` is an optional :class:`repro.obs.PipelineProfiler`.
        Neither ever changes the :class:`SimulationResult` (only
        wall-clock)."""
        if not core_specs:
            raise ValueError("at least one core is required")
        self.config = config
        #: The observational event bus for this simulation (see
        #: :mod:`repro.sim.events.events`); subscribe before :meth:`run`.
        self.events = EventBus()
        self.observers = tuple(observers)
        self.profiler = profiler
        self.mapper = AddressMapper(config.dram)
        self.llc = SharedLLC(config.llc)
        self.dram = DRAMSystem(config)
        if isinstance(tracker, str):
            tracker = create_tracker(tracker, config)
        self.tracker = tracker
        self.tracker.configure_llc(self.llc)
        self.auditor = GroundTruthAuditor(config) if enable_auditor else None
        self.controller = MemoryController(
            config, self.dram, self.tracker, self.mapper, auditor=self.auditor
        )
        self.core_specs = core_specs
        self.llc_warmup_accesses = llc_warmup_accesses
        self.cores: list[CoreModel] = []
        for core_id, spec in enumerate(core_specs):
            if spec.is_idle:
                continue
            self.cores.append(
                CoreModel(
                    core_id=core_id,
                    config=config.cores,
                    generator=spec.generator,
                    request_budget=spec.request_budget,
                    mean_gap_instructions=spec.mean_gap_instructions,
                    is_attacker=spec.is_attacker,
                    max_outstanding_override=spec.max_outstanding_override,
                )
            )

    # ------------------------------------------------------------------ #

    def _warm_llc(self) -> None:
        """Pre-play accesses through the LLC so it starts warm (round-robin
        over every core that goes through the cache)."""
        if self.llc_warmup_accesses <= 0:
            return
        warm_cores = [
            core for core in self.cores if not core.generator.bypasses_llc
        ]
        if not warm_cores:
            return
        for _ in range(self.llc_warmup_accesses):
            for core in warm_cores:
                entry = core.generator.next_entry()
                self.llc.access(entry.address, entry.is_write, core.core_id)
        # Warm-up accesses should not count towards the measured statistics.
        self.llc.stats = type(self.llc.stats)()

    def run(self) -> SimulationResult:
        """Advance every core until all benign budgets are exhausted."""
        profiler = self.profiler
        stage = profiler.stage if profiler is not None else nullcontext
        with stage("llc-warmup"):
            self._warm_llc()
        self._attach()
        with stage("drain"):
            self._drain()
        with stage("collect"):
            result = self._collect()
        if self.controller.events is not None:
            self.events.emit(RunEnd(result.elapsed_ns))
        return result

    def _attach(self) -> None:
        """Attach the observers and the profiler, after warm-up.

        Attaching after :meth:`_warm_llc` keeps warm-up unobserved and lets
        observers bind to the freshly reset LLC stats object.  The bus goes
        to the controller and the tracker only if it has subscribers."""
        for observer in self.observers:
            observer.attach(self)
        if self.events.has_subscribers:
            self.controller.events = self.events
            self.tracker.events = self.events
        self.controller.profiler = self.profiler

    def _drain(self) -> None:
        """The event loop: pump requests until the benign budgets drain."""
        cores_by_id = {core.core_id: core for core in self.cores}
        benign_pending = {
            core.core_id
            for core in self.cores
            if core.request_budget is not None
        }
        if not benign_pending:
            raise ValueError("at least one core needs a finite request budget")

        sequence = 0
        heap: list[tuple[float, int, int]] = []
        for core in self.cores:
            heapq.heappush(heap, (core.next_event_time(), sequence, core.core_id))
            sequence += 1

        while benign_pending and heap:
            _, _, core_id = heapq.heappop(heap)
            core = cores_by_id[core_id]

            entry = core.generator.next_entry()
            issue_ns = core.begin_request(entry)
            completion_ns = self._service_addr(
                core, entry.address, entry.is_write, issue_ns
            )
            if not entry.is_write:
                core.complete_read(completion_ns)
            core.note_progress()

            if core.request_budget is not None and core.budget_reached:
                benign_pending.discard(core_id)
                continue
            heapq.heappush(heap, (core.next_event_time(), sequence, core_id))
            sequence += 1

    # ------------------------------------------------------------------ #

    def _service_addr(
        self, core: CoreModel, address: int, is_write: bool, issue_ns: float
    ) -> float:
        """Send one request through the LLC and (on a miss or an LLC bypass)
        the DRAM; the shared scalar reference path.

        The batched engine routes through this too whenever the bus wants a
        per-request kind, so the emission sites cover both engines."""
        if core.generator.bypasses_llc:
            completion = self.controller.service(
                address, is_write, issue_ns, core.core_id
            )
            llc = "bypass"
        else:
            llc_result = self.llc.access(address, is_write, core.core_id)
            if llc_result.hit:
                completion = issue_ns + self.config.llc.hit_latency_ns
                llc = "hit"
            else:
                completion = self.controller.service(
                    address, is_write, issue_ns, core.core_id
                )
                if llc_result.writeback and llc_result.evicted_line is not None:
                    writeback_address = (
                        llc_result.evicted_line * self.config.llc.line_size_bytes
                    )
                    self.controller.service(
                        writeback_address, True, completion, core.core_id
                    )
                completion += self.config.llc.hit_latency_ns
                llc = "miss"
        events = self.controller.events
        if events is not None:
            events.emit(
                RequestComplete(completion, core.core_id, issue_ns, is_write, llc)
            )
        return completion

    def _collect(self) -> SimulationResult:
        core_results = tuple(core.result() for core in self.cores)
        elapsed = max(
            (result.finish_time_ns for result in core_results), default=0.0
        )
        return SimulationResult(
            tracker_name=self.tracker.name,
            core_results=core_results,
            elapsed_ns=elapsed,
            dram_stats=self.dram.stats,
            llc_stats=self.llc.stats,
            controller_stats=self.controller.stats,
            tracker_stats=self.tracker.stats,
            energy=self.dram.energy_report(elapsed),
            security=self.auditor.report() if self.auditor is not None else None,
        )
