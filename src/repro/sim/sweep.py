"""Declarative scenario sweeps: parallel fan-out and on-disk result caching.

The paper's evaluation is a large cross-product (trackers x attacks x
workloads x thresholds) in which many scenarios share the same insecure
baseline and many figures re-run scenarios other figures already ran.  This
module turns a scenario into data so that work can be planned, deduplicated,
distributed and memoized:

:class:`ScenarioSpec`
    A frozen, picklable description of one simulation (tracker, workload,
    attack, seed, request budget, configuration).  Its :meth:`cache_key` is a
    stable content hash over every simulation-affecting field, including the
    full system configuration and a code-version salt.

:class:`CoreAssignment`
    One core's role inside a heterogeneous scenario.  A tuple of assignments
    (a *core plan*) attached to a :class:`ScenarioSpec` describes shapes the
    classic single-attacker layout cannot: several heterogeneous attacker
    cores (each with its own hammer rate), mixed benign workload blends with
    per-core intensity, and deliberately idle cores.  Plans flow through the
    same cache/pool machinery as classic specs.

:class:`SweepRunner`
    Executes batches of specs.  Within a batch, identical simulations
    (typically the shared insecure baselines) are simulated exactly once;
    completed results are memoized in memory and -- when a ``store`` is
    given -- persisted under the scenario hash in the SQLite experiment
    warehouse (:mod:`repro.store`), so repeated figure regeneration and
    repeated CLI invocations are served from cache.
    With ``jobs > 1`` pending simulations fan out over a
    :class:`~concurrent.futures.ProcessPoolExecutor`; results cross the
    process boundary through :meth:`SimulationResult.to_dict` /
    :meth:`SimulationResult.from_dict`, the same serialization the cache uses,
    so serial, parallel and cache-replayed sweeps are bit-identical.

:class:`SweepOutcome`
    One scenario's result together with its (batch-deduplicated) insecure
    baseline and the paper's normalized-performance metric.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import time
import tracemalloc
from collections.abc import Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field

from repro.config import RowHammerConfig, SystemConfig, baseline_config
from repro.cpu.workloads import WorkloadProfile, get_workload, scale_profile
from repro.sim.metrics import (
    benign_normalized_performance,
    matched_benign_normalized_performance,
)
from repro.sim.simulator import SimulationResult

#: Salt mixed into every scenario hash.  Bump whenever a change to the
#: simulator alters results for unchanged configurations, so stale on-disk
#: cache entries are never replayed as current results.
#: v2: ControllerStats.throttled_requests counts unique requests (a request
#: delayed at both issue and completion used to count twice).
CODE_VERSION = "dapper-sim-v2"

_LOG = logging.getLogger("repro.sweep")

#: The mitigation back-end every baseline runs with (see
#: :meth:`ScenarioSpec.baseline_spec`).
_DEFAULT_ROWHAMMER = RowHammerConfig()

#: The system whose DRAM/LLC geometry :meth:`ScenarioSpec.describe` leaves
#: unnamed.
_DEFAULT_SYSTEM = baseline_config()


@dataclass(frozen=True)
class CoreAssignment:
    """One core's role in a heterogeneous scenario.

    ``role`` is one of:

    ``"workload"``
        The core runs a benign synthetic workload -- either a registered
        ``name`` or an explicit ``profile`` -- whose memory intensity is
        multiplied by ``intensity`` (0.5 = half the APKI, 2.0 = double).
    ``"attack"``
        The core runs the attack kernel ``name``.  ``hammer_rate`` in
        ``(0, 1]`` scales the attacker's aggressiveness: 1.0 is the paper's
        full-rate attacker, smaller values throttle both its issue rate and
        its memory-level parallelism proportionally.
    ``"trace"``
        The core replays a recorded trace file (``trace`` is the path; see
        :mod:`repro.cpu.tracefile`) through a
        :class:`~repro.cpu.tracefile.FileTraceGenerator`, looping when the
        budget outlasts the file.  Trace cores hash by the trace *content*
        (SHA-256), not the path.
    ``"idle"``
        The core issues no memory traffic (used by plan baselines, where
        attacker cores are replaced by idle cores).
    """

    role: str
    name: str | None = None
    profile: WorkloadProfile | None = None
    intensity: float = 1.0
    hammer_rate: float = 1.0
    trace: str | None = None

    def __post_init__(self):
        if self.role not in ("workload", "attack", "trace", "idle"):
            raise ValueError(
                f"unknown core role {self.role!r}; "
                "expected 'workload', 'attack', 'trace' or 'idle'"
            )
        if self.role == "workload":
            if self.name is None and self.profile is None:
                raise ValueError("workload assignment needs a name or a profile")
            if not self.intensity > 0:
                raise ValueError(f"intensity must be positive, got {self.intensity}")
        if self.role == "attack":
            if not self.name:
                raise ValueError("attack assignment needs an attack name")
            if not 0 < self.hammer_rate <= 1.0:
                raise ValueError(
                    f"hammer_rate must be in (0, 1], got {self.hammer_rate}"
                )
        if self.role == "trace" and not self.trace:
            raise ValueError("trace assignment needs a trace file path")
        if self.role != "trace" and self.trace is not None:
            raise ValueError(f"{self.role!r} assignment takes no trace path")
        if self.role == "idle" and (self.name or self.profile is not None):
            raise ValueError("idle assignment takes no workload or attack")

    # ------------------------------------------------------------------ #

    @property
    def is_attacker(self) -> bool:
        return self.role == "attack"

    def resolved_profile(self) -> WorkloadProfile:
        """The benign profile this assignment runs (intensity applied)."""
        if self.role != "workload":
            raise ValueError(f"{self.role!r} assignment has no workload profile")
        profile = self.profile if self.profile is not None else get_workload(self.name)
        return scale_profile(profile, self.intensity)

    def trace_info(self):
        """Parsed (memoized) trace file of a ``"trace"`` assignment."""
        if self.role != "trace":
            raise ValueError(f"{self.role!r} assignment has no trace file")
        from repro.cpu.tracefile import load_trace_info

        return load_trace_info(self.trace)

    def label(self) -> str:
        """Compact human-readable form used by reports and ``describe()``."""
        if self.role == "idle":
            return "idle"
        if self.role == "attack":
            suffix = "" if self.hammer_rate == 1.0 else f"@r{self.hammer_rate:g}"
            return f"attack:{self.name}{suffix}"
        if self.role == "trace":
            from pathlib import Path

            return f"trace:{Path(self.trace).name}"
        name = self.name if self.name is not None else self.profile.name
        suffix = "" if self.intensity == 1.0 else f"@x{self.intensity:g}"
        return f"{name}{suffix}"


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one simulation scenario.

    ``workload`` may be a registered workload name or an explicit
    :class:`WorkloadProfile`; both hash by the profile's contents, so a named
    workload and an identical ad-hoc profile share cache entries.
    ``attack_matched_baseline`` selects which insecure baseline the scenario
    is normalised against (see :meth:`baseline_spec`); it does not affect the
    measured simulation itself and is therefore not part of the cache key.

    ``core_plan`` switches the scenario from the classic layout (core 0 runs
    ``attack`` when set, every other core a homogeneous copy of ``workload``)
    to an explicit per-core layout: one :class:`CoreAssignment` per core,
    which is how multi-attacker and mixed-workload scenarios are expressed.
    When a plan is present ``attack`` must be ``None`` and ``workload`` only
    labels the scenario in reports.
    """

    tracker: str
    workload: str | WorkloadProfile
    attack: str | None = None
    seed: int | None = None
    requests_per_core: int = 8_000
    attack_matched_baseline: bool = False
    attack_warmup_activations: int = 150_000
    llc_warmup_accesses: int = 25_000
    enable_auditor: bool = False
    config: SystemConfig | None = None
    core_plan: tuple[CoreAssignment, ...] | None = None

    def __post_init__(self):
        if self.core_plan is not None:
            if self.attack is not None:
                raise ValueError(
                    "core_plan and attack are mutually exclusive; put the "
                    "attacker(s) into the plan instead"
                )
            object.__setattr__(self, "core_plan", tuple(self.core_plan))
            if not any(
                a.role in ("workload", "trace") for a in self.core_plan
            ):
                raise ValueError(
                    "core_plan needs at least one workload or trace core"
                )
        # Warm-up only applies to attack scenarios; canonicalise so benign
        # specs that differ only in the (unused) warm-up cap hash identically.
        if not self.has_attacker and self.attack_warmup_activations != 0:
            object.__setattr__(self, "attack_warmup_activations", 0)

    @property
    def has_attacker(self) -> bool:
        if self.core_plan is not None:
            return any(a.is_attacker for a in self.core_plan)
        return self.attack is not None

    # ------------------------------------------------------------------ #

    def resolved_config(self) -> SystemConfig:
        return self.config if self.config is not None else baseline_config()

    def resolved_seed(self) -> int:
        return self.resolved_config().seed if self.seed is None else self.seed

    def resolved_workload(self) -> WorkloadProfile:
        if isinstance(self.workload, WorkloadProfile):
            return self.workload
        return get_workload(self.workload)

    @property
    def workload_name(self) -> str:
        # For core-plan scenarios the workload field is a report label that
        # need not name a registered workload (e.g. an ad-hoc profile's name).
        if self.core_plan is not None and isinstance(self.workload, str):
            return self.workload
        return self.resolved_workload().name

    def baseline_spec(self) -> "ScenarioSpec":
        """The insecure baseline this scenario is normalised against.

        No mitigation and -- unless ``attack_matched_baseline`` -- no
        attacker.  Baselines are measured without tracker warm-up (there is no
        tracker to warm) and never carry the security auditor.  For core-plan
        scenarios the attacker cores are replaced by idle cores, so the
        remaining benign cores stay on the same core ids and are compared
        like-for-like.

        Tracker ``none`` never requests a mitigation, so nothing in a baseline
        reads the mitigation command or the blast radius: both are reset to
        the :class:`~repro.config.RowHammerConfig` defaults, and scenarios
        that differ only in their mitigation back-end share one baseline.
        The threshold stays in the baseline's key.
        """
        baseline_plan = self.core_plan
        if baseline_plan is not None and not self.attack_matched_baseline:
            baseline_plan = tuple(
                CoreAssignment(role="idle") if assignment.is_attacker else assignment
                for assignment in baseline_plan
            )
        config = self.config
        if config is not None:
            config = config.with_mitigation(
                _DEFAULT_ROWHAMMER.mitigation_command, _DEFAULT_ROWHAMMER.blast_radius
            )
        return dataclasses.replace(
            self,
            tracker="none",
            attack=self.attack if self.attack_matched_baseline else None,
            attack_matched_baseline=False,
            attack_warmup_activations=0,
            enable_auditor=False,
            config=config,
            core_plan=baseline_plan,
        )

    # ------------------------------------------------------------------ #

    def cache_key(self) -> str:
        """Stable content hash over every simulation-affecting field.

        Classic (plan-less) specs hash exactly as before the core-plan
        extension existed, so their on-disk cache entries stay valid.
        """
        payload = {
            "code_version": CODE_VERSION,
            "tracker": self.tracker,
            "attack": self.attack,
            "seed": self.resolved_seed(),
            "requests_per_core": self.requests_per_core,
            "attack_warmup_activations": self.attack_warmup_activations,
            "llc_warmup_accesses": self.llc_warmup_accesses,
            "enable_auditor": self.enable_auditor,
            "config": dataclasses.asdict(self.resolved_config()),
        }
        if self.core_plan is None:
            payload["workload"] = dataclasses.asdict(self.resolved_workload())
        else:
            # The plan fully determines the simulation; the workload field is
            # a report-only label, so two identical plans with different
            # labels must share a cache entry.
            payload["core_plan"] = [
                # Hash assignments by their *resolved* contents so a named
                # workload and an identical ad-hoc profile share entries,
                # mirroring how the top-level workload field hashes.
                {
                    "role": a.role,
                    "attack": a.name if a.is_attacker else None,
                    "profile": (
                        dataclasses.asdict(a.resolved_profile())
                        if a.role == "workload"
                        else None
                    ),
                    "hammer_rate": a.hammer_rate if a.is_attacker else 1.0,
                    # Trace cores hash by content, not path: a renamed or
                    # re-written but byte-identical trace shares entries.
                    **(
                        {"trace_digest": a.trace_info().digest}
                        if a.role == "trace"
                        else {}
                    ),
                }
                for a in self.core_plan
            ]
        canonical = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def normalized_against(
        self, result: SimulationResult, baseline: SimulationResult
    ) -> float:
        """The paper's normalized-performance metric for this scenario shape.

        Classic specs use the fixed layout rule (core 0 is the attacker slot
        and is excluded everywhere); core-plan specs compare the benign core
        ids present in both runs, because attackers may sit on any subset of
        cores.
        """
        if self.core_plan is None:
            return benign_normalized_performance(result, baseline)
        return matched_benign_normalized_performance(result, baseline)

    def describe(self) -> dict:
        """Human-readable identity of the scenario (for reports and logs).

        This is what the warehouse stores as a run's ``scenario`` and what
        ``campaign diff`` matches runs by, so two specs with different cache
        keys must describe differently.  The mitigation back-end and the
        DRAM/LLC geometry are named only where they differ from the defaults
        (``RowHammerConfig()`` and ``baseline_config()``), which keeps the
        identities of default-geometry scenarios unchanged.
        """
        config = self.resolved_config()
        description = {
            "tracker": self.tracker,
            "workload": self.workload_name,
            "attack": self.attack,
            "seed": self.resolved_seed(),
            "requests_per_core": self.requests_per_core,
            "attack_matched_baseline": self.attack_matched_baseline,
            "nrh": config.rowhammer.nrh,
        }
        rowhammer = config.rowhammer
        if rowhammer.mitigation_command != _DEFAULT_ROWHAMMER.mitigation_command:
            description["mitigation_command"] = rowhammer.mitigation_command.value
        if rowhammer.blast_radius != _DEFAULT_ROWHAMMER.blast_radius:
            description["blast_radius"] = rowhammer.blast_radius
        for prefix, part, default in (
            ("dram", config.dram, _DEFAULT_SYSTEM.dram),
            ("llc", config.llc, _DEFAULT_SYSTEM.llc),
        ):
            for item in dataclasses.fields(part):
                value = getattr(part, item.name)
                if value != getattr(default, item.name):
                    description[f"{prefix}_{item.name}"] = value
        if self.core_plan is not None:
            description["cores"] = [a.label() for a in self.core_plan]
        return description


def _execute_spec(spec: ScenarioSpec) -> dict:
    """Simulate one scenario and return its serialized result.

    Module-level so :class:`~concurrent.futures.ProcessPoolExecutor` can
    pickle it; returns a plain dictionary so results cross the process
    boundary through the same serialization path the on-disk cache uses.
    """
    from repro.sim.experiment import run_workload

    result = run_workload(
        config=spec.resolved_config(),
        tracker=spec.tracker,
        # Plan specs carry the workload only as a report label; resolving it
        # against the registry would reject ad-hoc profile names.
        workload=spec.workload if spec.core_plan is not None
        else spec.resolved_workload(),
        attack=spec.attack,
        requests_per_core=spec.requests_per_core,
        seed=spec.resolved_seed(),
        enable_auditor=spec.enable_auditor,
        attack_warmup_activations=spec.attack_warmup_activations,
        llc_warmup_accesses=spec.llc_warmup_accesses,
        core_plan=spec.core_plan,
    )
    return result.to_dict()


def _execute_spec_timed(
    spec: ScenarioSpec, track_memory: bool = False
) -> tuple[dict, float, int | None, int]:
    """:func:`_execute_spec` plus the run's cost accounting.

    Returns ``(payload, elapsed_seconds, peak_memory_bytes, worker_pid)``.
    The timing is recorded next to the result in the warehouse so campaigns
    can report per-run cost and estimate remaining work; the pid lets the
    pool consumer attribute busy time to individual workers.  Peak memory is
    measured with :mod:`tracemalloc` only when ``track_memory`` is set --
    tracing allocations slows simulation down severalfold, so it is strictly
    opt-in and ``None`` otherwise.
    """
    peak = None
    started = time.perf_counter()
    if track_memory:
        tracemalloc.start()
        try:
            payload = _execute_spec(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    else:
        payload = _execute_spec(spec)
    return payload, time.perf_counter() - started, peak, os.getpid()


class ResultCache:
    """Persistent memo of completed simulation results, in the warehouse.

    The cache is strictly an optimisation: a missing, truncated, corrupted or
    schema-incompatible record is treated as a miss (the scenario is simply
    re-simulated), never as an error.  ``store`` is a warehouse path, an open
    :class:`~repro.store.backend.SqliteStore`, or ``None`` (no persistence).
    A path that cannot be opened as a warehouse -- a legacy JSON cache
    directory, a file that is not a database -- degrades to a cache-less run
    with a warning and is left untouched; a warehouse written by a newer
    schema is refused (:class:`ValueError`).
    """

    def __init__(self, store=None):
        # Imported here: repro.store imports this module, and simulation-only
        # callers never load sqlite3.
        import sqlite3

        from repro.store.backend import open_store

        try:
            self.backend = open_store(store)
        except (sqlite3.Error, OSError) as error:
            _LOG.warning(
                "cannot open %s as a result warehouse (%s); running without "
                "a cache (a legacy JSON cache directory is upgraded with "
                "'store import %s --store <warehouse>')",
                store,
                error,
                store,
            )
            self.backend = None

    @property
    def enabled(self) -> bool:
        return self.backend is not None

    def load(self, key: str) -> SimulationResult | None:
        if not self.enabled:
            return None
        record = self.backend.get(key)
        if record is None or record.code_version != CODE_VERSION:
            return None
        try:
            return SimulationResult.from_dict(record.result)
        except (ValueError, KeyError, TypeError):
            return None

    def store(
        self,
        key: str,
        spec: ScenarioSpec,
        result: SimulationResult,
        elapsed_seconds: float | None = None,
        peak_memory_bytes: int | None = None,
    ) -> None:
        if not self.enabled:
            return
        from repro.store.backend import RunRecord

        self.backend.put(
            RunRecord(
                key=key,
                code_version=CODE_VERSION,
                scenario=spec.describe(),
                result=result.to_dict(),
                elapsed_seconds=elapsed_seconds,
                peak_memory_bytes=peak_memory_bytes,
            )
        )


@dataclass
class SweepStats:
    """Cumulative accounting of a runner's cache behaviour."""

    scenarios: int = 0       # scenarios requested (measured runs)
    simulations: int = 0     # unique simulations needed (measured + baselines)
    cache_hits: int = 0      # simulations served from memory or disk
    cache_misses: int = 0    # simulations actually executed
    baselines_shared: int = 0  # baseline duplicates avoided within batches

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.simulations if self.simulations else 0.0


@dataclass(frozen=True)
class SweepOutcome:
    """One scenario's result, baseline, and normalized performance."""

    spec: ScenarioSpec
    normalized: float
    result: SimulationResult
    baseline: SimulationResult
    from_cache: bool
    baseline_from_cache: bool


class SweepRunner:
    """Plans, deduplicates, distributes and memoizes scenario batches.

    ``store`` persists results across runners: a warehouse path, an open
    :class:`~repro.store.backend.SqliteStore`, or ``None`` for an in-memory
    memo only (see :class:`ResultCache`).
    """

    def __init__(
        self,
        store=None,
        jobs: int = 1,
        track_memory: bool = False,
    ):
        self.cache = ResultCache(store)
        self.jobs = max(1, int(jobs))
        self.track_memory = bool(track_memory)
        self.stats = SweepStats()
        self._memory: dict[str, SimulationResult] = {}
        # Pipeline accounting: simulation seconds attributed to each worker
        # pid (the runner's own pid for serial execution) and the wall time
        # spent inside worker pools, from which worker_report() derives
        # per-worker utilization.
        self.worker_busy_seconds: dict[int, float] = {}
        self.pool_wall_seconds: float = 0.0
        self.pool_workers_used: int = 0

    # ------------------------------------------------------------------ #

    def _lookup(self, key: str) -> SimulationResult | None:
        found = self._memory.get(key)
        if found is None:
            found = self.cache.load(key)
            if found is not None:
                self._memory[key] = found
        return found

    def _execute_pending(self, pending: dict[str, ScenarioSpec]) -> None:
        """Simulate every pending scenario, in-process or across a pool."""
        items = list(pending.items())
        if not items:
            return
        _LOG.debug("executing %d pending simulation(s)", len(items))
        if self.jobs == 1 or len(items) == 1:
            payloads = (
                (key,) + _execute_spec_timed(spec, self.track_memory)
                for key, spec in items
            )
        else:
            payloads = self._pool_payloads(items)
        for key, payload, elapsed, peak, pid in payloads:
            busy = self.worker_busy_seconds.get(pid, 0.0)
            self.worker_busy_seconds[pid] = busy + elapsed
            # Round-trip through the serialized form on every path so serial,
            # parallel and cache-replayed sweeps see byte-identical results.
            result = SimulationResult.from_dict(payload)
            self._memory[key] = result
            self.cache.store(
                key,
                pending[key],
                result,
                elapsed_seconds=elapsed,
                peak_memory_bytes=peak,
            )

    def _pool_payloads(
        self, items: list[tuple[str, ScenarioSpec]]
    ) -> Iterable[tuple[str, dict, float, int | None, int]]:
        # Never spawn more workers than there is pending work: tiny batches
        # would otherwise pay the fork cost of idle processes.
        workers = min(self.jobs, len(items))
        self.pool_workers_used = max(self.pool_workers_used, workers)
        started = time.perf_counter()
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(_execute_spec_timed, spec, self.track_memory): key
                    for key, spec in items
                }
                for future in as_completed(futures):
                    payload, elapsed, peak, pid = future.result()
                    yield futures[future], payload, elapsed, peak, pid
        finally:
            self.pool_wall_seconds += time.perf_counter() - started

    def worker_report(self) -> dict | None:
        """Per-worker busy time and pool utilization, or ``None`` so far.

        Only meaningful after at least one pooled batch: utilization is each
        worker's simulation-busy seconds divided by the wall time the pool was
        open times the workers it held, i.e. 1.0 means every worker simulated
        for the pool's entire lifetime.
        """
        if not self.pool_wall_seconds or not self.pool_workers_used:
            return None
        capacity = self.pool_wall_seconds * self.pool_workers_used
        busy = {str(pid): round(seconds, 6)
                for pid, seconds in sorted(self.worker_busy_seconds.items())}
        total_busy = sum(self.worker_busy_seconds.values())
        return {
            "workers": self.pool_workers_used,
            "pool_wall_seconds": round(self.pool_wall_seconds, 6),
            "busy_seconds_by_pid": busy,
            "total_busy_seconds": round(total_busy, 6),
            "utilization": round(total_busy / capacity, 6) if capacity else 0.0,
        }

    # ------------------------------------------------------------------ #

    def simulate(self, spec: ScenarioSpec) -> SimulationResult:
        """Run (or replay) one scenario without baseline normalisation."""
        key = spec.cache_key()
        self.stats.simulations += 1
        found = self._lookup(key)
        if found is not None:
            self.stats.cache_hits += 1
            return found
        self.stats.cache_misses += 1
        self._execute_pending({key: spec})
        return self._memory[key]

    def ensure(self, specs: Sequence[ScenarioSpec]) -> int:
        """Execute (or replay) a batch of scenarios without normalisation.

        Like :meth:`simulate` for many specs at once: missing simulations
        fan out over the worker pool together, already-stored ones are
        cheap membership checks.  Returns how many simulations actually
        executed.  This is the campaign orchestrator's shard primitive --
        campaigns pre-expand baselines into their work plan, so no baseline
        resolution happens here.
        """
        pending: dict[str, ScenarioSpec] = {}
        seen: set[str] = set()
        for spec in specs:
            key = spec.cache_key()
            if key in seen:
                continue
            seen.add(key)
            self.stats.simulations += 1
            if self._lookup(key) is not None:
                self.stats.cache_hits += 1
            else:
                pending[key] = spec
        self.stats.cache_misses += len(pending)
        self._execute_pending(pending)
        return len(pending)

    def run(self, specs: Sequence[ScenarioSpec]) -> list[SweepOutcome]:
        """Execute a batch of scenarios and normalise each against its baseline.

        Identical simulations within the batch -- most commonly the insecure
        baseline shared by every tracker measured on the same workload -- are
        simulated exactly once.
        """
        specs = list(specs)
        wanted: list[tuple[ScenarioSpec, str, str]] = []
        plan: dict[str, ScenarioSpec] = {}
        duplicate_baselines = 0
        for spec in specs:
            measured_key = spec.cache_key()
            baseline = spec.baseline_spec()
            baseline_key = baseline.cache_key()
            wanted.append((spec, measured_key, baseline_key))
            if baseline_key in plan:
                duplicate_baselines += 1
            for key, planned in ((measured_key, spec), (baseline_key, baseline)):
                plan.setdefault(key, planned)

        cached_keys: set[str] = set()
        pending: dict[str, ScenarioSpec] = {}
        for key, spec in plan.items():
            if self._lookup(key) is not None:
                cached_keys.add(key)
            else:
                pending[key] = spec
        self._execute_pending(pending)

        self.stats.scenarios += len(specs)
        self.stats.simulations += len(plan)
        self.stats.cache_hits += len(cached_keys)
        self.stats.cache_misses += len(pending)
        self.stats.baselines_shared += duplicate_baselines

        outcomes = []
        for spec, measured_key, baseline_key in wanted:
            result = self._memory[measured_key]
            baseline = self._memory[baseline_key]
            outcomes.append(
                SweepOutcome(
                    spec=spec,
                    normalized=spec.normalized_against(result, baseline),
                    result=result,
                    baseline=baseline,
                    from_cache=measured_key in cached_keys,
                    baseline_from_cache=baseline_key in cached_keys,
                )
            )
        return outcomes

    def run_one(self, spec: ScenarioSpec) -> SweepOutcome:
        """Convenience wrapper: :meth:`run` for a single scenario."""
        return self.run([spec])[0]
