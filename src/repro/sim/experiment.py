"""Experiment helpers: scenario construction, baseline caching, sweeps.

The evaluation methodology follows the paper (Section IV): four cores run
homogeneous copies of a workload; in attack configurations core 0 runs the
attack kernel instead and the performance of the remaining three benign copies
is reported, normalised to the insecure baseline (no mitigation, no attacker)
running the same benign copies.

Beyond the paper's fixed layout, :func:`build_core_specs_from_plan` realises
heterogeneous *core plans* (see :class:`repro.sim.sweep.CoreAssignment`):
several attacker cores running different kernels at individual hammer rates,
mixed benign workload blends with per-core intensity, and idle cores.  The
scenario catalog (:mod:`repro.scenarios`) compiles its families down to these
plans.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

from repro.attacks import attack_by_name
from repro.config import SystemConfig, baseline_config
from repro.cpu.trace import TraceEntry, WorkloadTraceGenerator, generator_batch
from repro.cpu.tracefile import FileTraceGenerator
from repro.cpu.workloads import WorkloadProfile, get_workload
from repro.dram.address import AddressMapper, RowAddress
from repro.sim.batch import engine_class
from repro.sim.metrics import benign_normalized_performance
from repro.sim.simulator import CoreSpec, SimulationResult, Simulator
from repro.sim.sweep import CoreAssignment, ScenarioSpec, SweepRunner
from repro.trackers.base import RowHammerTracker
from repro.trackers.none import NoMitigation
from repro.trackers.registry import create_tracker

#: Outstanding-miss depth granted to attack kernels (a tuned attack process
#: streams independent misses and is limited by the ROB, not by a typical
#: benign application's MSHR usage).
ATTACKER_MLP = 24

#: Seed perturbation applied to attack kernels so an attacker and a benign
#: generator with the same scenario seed never draw the same stream.
_ATTACK_SEED_SALT = 0xA77ACF


class ThrottledGenerator:
    """Wraps an attack generator, stretching its instruction gaps.

    A hammer rate of ``r`` in ``(0, 1]`` multiplies every instruction gap by
    ``1/r``, so a throttled attacker issues requests proportionally more
    slowly when compute-bound (its memory-level parallelism is reduced in
    :func:`build_core_specs_from_plan` for the DRAM-bound regime).  Because
    attack kernels emit single-instruction gaps, the fractional part of the
    stretch is carried across entries instead of rounded away -- the *mean*
    gap is exactly ``gap / r`` for every rate.
    """

    def __init__(self, generator, hammer_rate: float):
        if not 0 < hammer_rate <= 1.0:
            raise ValueError(f"hammer_rate must be in (0, 1], got {hammer_rate}")
        self._generator = generator
        self._stretch = 1.0 / hammer_rate
        self._carry = 0.0
        self.bypasses_llc = generator.bypasses_llc

    def next_entry(self) -> TraceEntry:
        entry = self._generator.next_entry()
        self._carry += entry.gap_instructions * self._stretch
        stretched = max(1, int(self._carry))
        self._carry -= stretched
        if stretched == entry.gap_instructions:
            return entry
        return TraceEntry(
            gap_instructions=stretched,
            address=entry.address,
            is_write=entry.is_write,
        )


@dataclass(frozen=True)
class WorkloadRun:
    """A simulation result together with its normalised performance."""

    workload: str
    tracker: str
    attack: str | None
    normalized: float
    result: SimulationResult
    baseline: SimulationResult


def _resolve_workload(workload: str | WorkloadProfile) -> WorkloadProfile:
    if isinstance(workload, WorkloadProfile):
        return workload
    return get_workload(workload)


def _attacker_seed(seed: int, core_id: int) -> int:
    """Per-core attack-kernel seed (core 0 matches the classic layout)."""
    return seed ^ _ATTACK_SEED_SALT ^ (core_id * 0x9E3779B1)


def build_core_specs(
    config: SystemConfig,
    workload: WorkloadProfile,
    attack: str | None,
    requests_per_core: int,
    seed: int,
) -> list[CoreSpec]:
    """Build the per-core generators for one scenario.

    Without an attack every core runs a copy of the workload; with an attack,
    core 0 runs the attack kernel (no budget) and the other cores run benign
    copies.
    """
    mapper = AddressMapper(config.dram)
    org = config.dram
    num_cores = config.cores.num_cores
    mean_gap = 1000.0 / workload.apki

    specs: list[CoreSpec] = []
    for core_id in range(num_cores):
        if attack is not None and core_id == 0:
            generator = attack_by_name(
                attack, org, mapper, seed=seed ^ _ATTACK_SEED_SALT
            )
            specs.append(
                CoreSpec(
                    generator=generator,
                    request_budget=None,
                    mean_gap_instructions=1.0,
                    is_attacker=True,
                    max_outstanding_override=ATTACKER_MLP,
                )
            )
            continue
        generator = WorkloadTraceGenerator(
            profile=workload,
            org=org,
            mapper=mapper,
            core_id=core_id,
            seed=seed,
        )
        specs.append(
            CoreSpec(
                generator=generator,
                request_budget=requests_per_core,
                mean_gap_instructions=mean_gap,
            )
        )
    return specs


def build_core_specs_from_plan(
    config: SystemConfig,
    plan: tuple[CoreAssignment, ...],
    requests_per_core: int,
    seed: int,
) -> list[CoreSpec]:
    """Build the per-core generators for a heterogeneous core plan.

    One :class:`~repro.sim.sweep.CoreAssignment` per core: benign cores run
    their (intensity-scaled) profile with the usual request budget, attacker
    cores run their kernel unbudgeted at ``hammer_rate`` aggressiveness, and
    idle cores issue nothing.  A plan of ``[attack, workload x 3]`` at full
    hammer rate reproduces the classic single-attacker layout exactly (same
    generators, same seeds).
    """
    if len(plan) > config.cores.num_cores:
        raise ValueError(
            f"core plan has {len(plan)} assignments but the configuration "
            f"only has {config.cores.num_cores} cores"
        )
    mapper = AddressMapper(config.dram)
    org = config.dram

    specs: list[CoreSpec] = []
    for core_id, assignment in enumerate(plan):
        if assignment.role == "idle":
            specs.append(
                CoreSpec(generator=None, request_budget=None)
            )
            continue
        if assignment.is_attacker:
            generator = attack_by_name(
                assignment.name, org, mapper, seed=_attacker_seed(seed, core_id)
            )
            rate = assignment.hammer_rate
            if rate < 1.0:
                generator = ThrottledGenerator(generator, rate)
            specs.append(
                CoreSpec(
                    generator=generator,
                    request_budget=None,
                    mean_gap_instructions=1.0 / rate,
                    is_attacker=True,
                    max_outstanding_override=max(1, int(ATTACKER_MLP * rate)),
                )
            )
            continue
        if assignment.role == "trace":
            info = assignment.trace_info()
            specs.append(
                CoreSpec(
                    generator=FileTraceGenerator(info.entries, loop=True),
                    request_budget=requests_per_core,
                    mean_gap_instructions=info.mean_gap,
                )
            )
            continue
        profile = assignment.resolved_profile()
        generator = WorkloadTraceGenerator(
            profile=profile,
            org=org,
            mapper=mapper,
            core_id=core_id,
            seed=seed,
        )
        specs.append(
            CoreSpec(
                generator=generator,
                request_budget=requests_per_core,
                mean_gap_instructions=1000.0 / profile.apki,
            )
        )
    # Unassigned trailing cores stay idle, mirroring how a real machine runs
    # fewer processes than cores.
    for _ in range(config.cores.num_cores - len(plan)):
        specs.append(CoreSpec(generator=None, request_budget=None))
    return specs


def warm_up_tracker(
    tracker: RowHammerTracker,
    attack: str,
    config: SystemConfig,
    activations: int,
    seed: int,
) -> int:
    """Pre-condition a tracker with attack activations before measurement.

    The paper measures hundreds of milliseconds of steady-state execution, in
    which the attack has long since pushed the tracker into its exploited
    regime (Hydra groups in per-row mode, CoMeT's sketch saturated, ABACUS's
    spillover counter climbing, START's counter region populated).  Short
    simulation windows would otherwise spend most of their time in the benign
    warm-up phase, so the experiment helpers replay the attack's activation
    stream directly into the tracker first.  Only the tracker state is warmed:
    no DRAM time, energy or security accounting is charged.

    The warm-up stops as soon as the tracker produces its first *active*
    response (a mitigation, group mitigation or structure-reset blackout),
    i.e. right at the edge of the attack's exploitation cycle, so that the
    measured window starts in the exploited regime rather than immediately
    after an (unobserved) reset.  ``activations`` caps the warm-up length for
    trackers the attack never provokes.  Returns the number of warm-up
    activations performed.
    """
    if activations <= 0:
        return 0
    mapper = AddressMapper(config.dram)
    generator = attack_by_name(
        attack, config.dram, mapper, seed=seed ^ _ATTACK_SEED_SALT
    )
    return _replay_warmup(tracker, [generator], mapper, config, activations)


def warm_up_tracker_from_plan(
    tracker: RowHammerTracker,
    plan: tuple[CoreAssignment, ...],
    config: SystemConfig,
    activations: int,
    seed: int,
) -> int:
    """Plan-aware variant of :func:`warm_up_tracker`.

    The activation streams of every attacker core in the plan are interleaved
    in proportion to their hammer rates (weighted round-robin), approximating
    how the kernels share DRAM bandwidth during the (untimed) warm-up phase.
    With a single full-rate attacker on core 0 this replays exactly the
    classic warm-up stream.
    """
    attacker_cores = [
        (core_id, assignment)
        for core_id, assignment in enumerate(plan)
        if assignment.is_attacker
    ]
    if activations <= 0 or not attacker_cores:
        return 0
    mapper = AddressMapper(config.dram)
    generators = [
        attack_by_name(
            assignment.name,
            config.dram,
            mapper,
            seed=_attacker_seed(seed, core_id),
        )
        for core_id, assignment in attacker_cores
    ]
    rates = [assignment.hammer_rate for _, assignment in attacker_cores]
    return _replay_warmup(tracker, generators, mapper, config, activations, rates)


def _replay_warmup(
    tracker: RowHammerTracker,
    generators: list,
    mapper: AddressMapper,
    config: SystemConfig,
    activations: int,
    rates: list[float] | None = None,
) -> int:
    # Deterministic weighted round-robin: each generator accrues credit at
    # its rate and the highest-credit generator (lowest index on ties)
    # supplies the next activation, so a rate-0.25 attacker contributes a
    # quarter as many warm-up activations as a full-rate one.
    rates = [1.0] * len(generators) if rates is None else rates
    num = len(generators)
    if type(tracker) is NoMitigation:
        # The no-op tracker only counts activations and can never produce the
        # active response that stops the loop early, and the generators are
        # warm-up-local, so the whole replay settles in bulk.
        tracker.stats.activations_observed += activations
        return activations
    credits = [0.0] * num
    step_ns = config.timings.trrd_s_ns
    now_ns = 0.0
    performed = 0
    on_activation = tracker.on_activation
    chunk_size = 4096
    while performed < activations:
        count = min(chunk_size, activations - performed)
        # The choice sequence depends only on the rates, so each chunk
        # generates exactly the entries its choices draw from each generator
        # and replays them in choice order; over-generation past an early
        # stop is harmless because the generators live only for this warm-up.
        if num == 1:
            sequence = _warmup_rows(generators[0], mapper, count)
        else:
            choices = [0] * count
            for i in range(count):
                for which, rate in enumerate(rates):
                    credits[which] += rate
                chosen = max(range(num), key=lambda which: credits[which])
                credits[chosen] -= 1.0
                choices[i] = chosen
            feeds = [
                iter(_warmup_rows(generators[which], mapper, choices.count(which)))
                for which in range(num)
            ]
            sequence = [next(feeds[chosen]) for chosen in choices]
        for row_addr in sequence:
            response = on_activation(row_addr, now_ns)
            now_ns += step_ns
            performed += 1
            if (
                response.mitigations
                or response.group_mitigations
                or response.blackouts
            ):
                return performed
    return performed


def _warmup_rows(generator, mapper: AddressMapper, count: int) -> list[RowAddress]:
    """The rows of ``generator``'s next ``count`` activations.

    One batch from the kernel, one :meth:`AddressMapper.decode_batch` over
    it, and :class:`RowAddress` objects from the mapper's (flat bank, row)
    memo, which repeated-row kernels hit almost always.  Fields are Python
    ints: trackers index on-demand tables with them.
    """
    _, addresses, _ = generator_batch(generator, count)
    _, _, _, _, rows, _, flat_banks = mapper.decode_batch(addresses)
    return mapper.row_addresses_from_flat(flat_banks, rows)


def run_workload(
    config: SystemConfig | None = None,
    tracker: str = "none",
    workload: str | WorkloadProfile = "429.mcf",
    attack: str | None = None,
    requests_per_core: int = 20_000,
    seed: int | None = None,
    enable_auditor: bool = False,
    attack_warmup_activations: int = 0,
    llc_warmup_accesses: int = 25_000,
    core_plan: tuple[CoreAssignment, ...] | None = None,
    engine: str | None = None,
    observers=(),
    profiler=None,
) -> SimulationResult:
    """Run one scenario and return its :class:`SimulationResult`.

    ``core_plan`` replaces the classic homogeneous-workload-plus-optional-
    attacker layout with an explicit per-core layout (``attack`` must then be
    ``None``; ``workload`` is ignored).

    ``engine`` selects the simulation engine (``"batched"`` -- the default --
    or the reference ``"scalar"``); both produce bit-identical results, so
    the choice is not part of any cache key.  ``None`` defers to the
    ``REPRO_SIM_ENGINE`` environment variable.

    ``observers`` (e.g. :class:`repro.obs.TraceRecorder`,
    :class:`repro.obs.MetricsSampler`) subscribe to the simulation's event
    bus after warm-up, and ``profiler`` (a
    :class:`repro.obs.PipelineProfiler`) times the pipeline stages; neither
    changes the result, only wall-clock.
    """
    config = config or baseline_config()
    seed = config.seed if seed is None else seed
    if core_plan is not None:
        if attack is not None:
            raise ValueError("core_plan and attack are mutually exclusive")
        specs = build_core_specs_from_plan(
            config, core_plan, requests_per_core, seed
        )
    else:
        profile = _resolve_workload(workload)
        specs = build_core_specs(config, profile, attack, requests_per_core, seed)
    tracker_obj = create_tracker(tracker, config) if isinstance(tracker, str) else tracker
    warmup_stage = (
        profiler.stage("tracker-warmup") if profiler is not None else nullcontext()
    )
    with warmup_stage:
        if core_plan is not None and attack_warmup_activations > 0:
            warm_up_tracker_from_plan(
                tracker_obj, core_plan, config, attack_warmup_activations, seed
            )
        elif attack is not None and attack_warmup_activations > 0:
            warm_up_tracker(
                tracker_obj, attack, config, attack_warmup_activations, seed
            )
    simulator = engine_class(engine)(
        config,
        tracker_obj,
        specs,
        enable_auditor=enable_auditor,
        llc_warmup_accesses=llc_warmup_accesses,
        observers=observers,
        profiler=profiler,
    )
    return simulator.run()


class ExperimentRunner:
    """Runs scenarios and normalises them against cached insecure baselines.

    Scenario execution is delegated to a :class:`~repro.sim.sweep.SweepRunner`
    so every simulation -- baselines included -- is memoized by its full
    scenario hash; ``cache_dir`` additionally persists completed results on
    disk and ``jobs`` lets batch entry points fan simulations out over worker
    processes.
    """

    #: Benign cores whose IPC is compared (core 0 hosts the attacker in attack
    #: scenarios, so it is excluded everywhere for comparability).
    def __init__(
        self,
        config: SystemConfig | None = None,
        requests_per_core: int = 8_000,
        seed: int | None = None,
        attack_warmup_activations: int = 150_000,
        cache_dir=None,
        jobs: int = 1,
    ):
        self.config = config or baseline_config()
        self.requests_per_core = requests_per_core
        self.seed = self.config.seed if seed is None else seed
        self.attack_warmup_activations = attack_warmup_activations
        self.sweep = SweepRunner(cache_dir=cache_dir, jobs=jobs)
        self._baselines: dict[tuple, SimulationResult] = {}

    # ------------------------------------------------------------------ #

    def _spec(
        self,
        tracker: str,
        profile: WorkloadProfile,
        attack: str | None,
        config: SystemConfig,
        enable_auditor: bool = False,
        attack_matched_baseline: bool = False,
        attack_warmup_activations: int | None = None,
    ) -> ScenarioSpec:
        return ScenarioSpec(
            tracker=tracker,
            workload=profile,
            attack=attack,
            seed=self.seed,
            requests_per_core=self.requests_per_core,
            attack_matched_baseline=attack_matched_baseline,
            attack_warmup_activations=self.attack_warmup_activations
            if attack_warmup_activations is None
            else attack_warmup_activations,
            enable_auditor=enable_auditor,
            config=config,
        )

    def _baseline_key(
        self,
        workload: WorkloadProfile,
        config: SystemConfig,
        attack: str | None,
    ) -> tuple:
        # Every configuration parameter that changes baseline behaviour must
        # appear here: two configs differing only in LLC associativity, core
        # count or per-core MLP must not share a cached baseline.  The full
        # frozen sub-configs cover geometry, timings (e.g. a scaled refresh
        # window) and cache shape in one go.
        return (
            workload.name,
            attack,
            config.dram,
            config.timings,
            config.llc,
            config.cores,
            self.requests_per_core,
            self.seed,
        )

    def baseline(
        self,
        workload: str | WorkloadProfile,
        config: SystemConfig | None = None,
        attack: str | None = None,
    ) -> SimulationResult:
        """Insecure-baseline run (no mitigation) for a workload.

        With ``attack=None`` this is the paper's insecure baseline (no
        mitigation, no attacker).  Passing an attack name produces the
        *attack-matched* baseline (no mitigation, attacker running), used when
        isolating the overhead a mitigation adds on top of the attack's own
        bandwidth cost (see EXPERIMENTS.md).
        """
        config = config or self.config
        profile = _resolve_workload(workload)
        key = self._baseline_key(profile, config, attack)
        cached = self._baselines.get(key)
        if cached is None:
            spec = self._spec(
                "none", profile, attack, config, attack_warmup_activations=0
            )
            cached = self.sweep.simulate(spec)
            self._baselines[key] = cached
        return cached

    # ------------------------------------------------------------------ #

    def run(
        self,
        tracker: str,
        workload: str | WorkloadProfile,
        attack: str | None = None,
        config: SystemConfig | None = None,
        enable_auditor: bool = False,
        attack_matched_baseline: bool = False,
    ) -> WorkloadRun:
        """Run one scenario and normalise it against the cached baseline.

        ``attack_matched_baseline`` selects which insecure baseline the run is
        normalised against: the no-attack baseline (default; what the
        motivation figures use, so the attack's own bandwidth cost is part of
        the reported slowdown) or a baseline that also runs the attacker (used
        for the mitigation-overhead figures, so only the overhead added by the
        mitigation's reaction to the attack is reported).
        """
        config = config or self.config
        profile = _resolve_workload(workload)
        baseline_attack = attack if attack_matched_baseline else None
        baseline = self.baseline(profile, config, attack=baseline_attack)
        spec = self._spec(
            tracker,
            profile,
            attack,
            config,
            enable_auditor=enable_auditor,
            attack_matched_baseline=attack_matched_baseline,
        )
        result = self.sweep.simulate(spec)
        normalized = self._normalize(result, baseline)
        return WorkloadRun(
            workload=profile.name,
            tracker=tracker,
            attack=attack,
            normalized=normalized,
            result=result,
            baseline=baseline,
        )

    def _normalize(
        self, result: SimulationResult, baseline: SimulationResult
    ) -> float:
        """Mean benign-core IPC ratio; core 0 is excluded (attacker slot)."""
        return benign_normalized_performance(result, baseline)

    # ------------------------------------------------------------------ #

    def average_normalized(
        self,
        tracker: str,
        workloads: list[str | WorkloadProfile],
        attack: str | None = None,
        config: SystemConfig | None = None,
        attack_matched_baseline: bool = False,
    ) -> float:
        """Average normalised performance of a tracker over several workloads."""
        runs = [
            self.run(
                tracker,
                workload,
                attack=attack,
                config=config,
                attack_matched_baseline=attack_matched_baseline,
            )
            for workload in workloads
        ]
        if not runs:
            return 0.0
        return sum(run.normalized for run in runs) / len(runs)
