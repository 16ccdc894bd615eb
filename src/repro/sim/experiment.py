"""Scenario construction: per-core generators, tracker warm-up, one run.

:func:`run_workload` builds one scenario's cores and tracker and runs it on
the selected engine.  Everything above a single run -- normalising against
the insecure baseline, deduplicating and caching simulations, fanning out
over worker processes -- belongs to :class:`repro.sim.sweep.SweepRunner`,
which calls :func:`run_workload` for each :class:`~repro.sim.sweep.ScenarioSpec`
it has to simulate.

Below the spec there is one layout: the *core plan*, one
:class:`~repro.sim.sweep.CoreAssignment` per core.
:func:`build_core_specs_from_plan` turns a plan into generators and
:func:`warm_up_tracker_from_plan` warms the tracker with its attackers.  The
paper's methodology (Section IV) is one such plan: core 0 runs the attack
kernel and the other cores run benign copies of one workload, whose
performance is reported, normalised to the insecure baseline running the
same benign copies.  :func:`run_workload` lowers a classic ``(workload,
attack)`` scenario to exactly that plan.  Other plans put several attackers
at individual hammer rates, mixed benign blends with per-core intensity,
trace replays or idle cores on the machine; the scenario catalog
(:mod:`repro.scenarios`) compiles its families down to them.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.attacks import attack_by_name
from repro.config import SystemConfig, baseline_config
from repro.cpu.trace import TraceEntry, WorkloadTraceGenerator, generator_batch
from repro.cpu.tracefile import FileTraceGenerator
from repro.cpu.workloads import WorkloadProfile
from repro.dram.address import AddressMapper, RowAddress
from repro.sim.batch import engine_class
from repro.sim.simulator import CoreSpec, SimulationResult
from repro.sim.sweep import CoreAssignment
from repro.trackers.base import EMPTY_RESPONSE, RowHammerTracker
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
    slowly when compute-bound (for the DRAM-bound regime,
    :func:`build_core_specs_from_plan` also scales its memory-level
    parallelism by ``r``).  A full-rate attacker is never wrapped.  Because
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


def _attacker_seed(seed: int, core_id: int) -> int:
    """Per-core attack-kernel seed (core 0's is ``seed ^ _ATTACK_SEED_SALT``)."""
    return seed ^ _ATTACK_SEED_SALT ^ (core_id * 0x9E3779B1)


def build_core_specs_from_plan(
    config: SystemConfig,
    plan: tuple[CoreAssignment, ...],
    requests_per_core: int,
    seed: int,
) -> list[CoreSpec]:
    """Build the per-core generators for a core plan.

    One :class:`~repro.sim.sweep.CoreAssignment` per core: benign cores run
    their (intensity-scaled) profile with the usual request budget, trace
    cores loop their file under the same budget, attacker cores run their
    kernel unbudgeted at ``hammer_rate`` aggressiveness, and idle cores
    issue nothing.  A full-rate attacker keeps the kernel's own gaps and an
    MLP of :data:`ATTACKER_MLP`.
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


def warm_up_tracker_from_plan(
    tracker: RowHammerTracker,
    plan: tuple[CoreAssignment, ...],
    config: SystemConfig,
    activations: int,
    seed: int,
) -> int:
    """Pre-condition a tracker with the plan's attack activations.

    The paper measures hundreds of milliseconds of steady-state execution, in
    which the attack has long since pushed the tracker into its exploited
    regime (Hydra groups in per-row mode, CoMeT's sketch saturated, ABACUS's
    spillover counter climbing, START's counter region populated).  Short
    simulation windows would otherwise spend most of their time in the benign
    warm-up phase, so :func:`run_workload` replays the attackers' activation
    streams directly into the tracker first.  Only the tracker state is
    warmed: no DRAM time, energy or security accounting is charged.

    The streams of every attacker core are interleaved in proportion to
    their hammer rates (weighted round-robin), approximating how the kernels
    share DRAM bandwidth during the (untimed) warm-up phase; each kernel is
    seeded as its core is in :func:`build_core_specs_from_plan`.  The warm-up
    stops as soon as the tracker produces its first *active* response (a
    mitigation, group mitigation or structure-reset blackout), i.e. right at
    the edge of the attack's exploitation cycle, so that the measured window
    starts in the exploited regime rather than immediately after an
    (unobserved) reset.  ``activations`` caps the warm-up length for
    trackers the attack never provokes.  A plan without attackers warms
    nothing.  Returns the number of warm-up activations performed.
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


def warm_up_tracker(
    tracker: RowHammerTracker,
    attack: str,
    config: SystemConfig,
    activations: int,
    seed: int,
) -> int:
    """:func:`warm_up_tracker_from_plan` for one full-rate ``attack`` on core 0."""
    plan = (CoreAssignment(role="attack", name=attack),)
    return warm_up_tracker_from_plan(tracker, plan, config, activations, seed)


def _replay_warmup(
    tracker: RowHammerTracker,
    generators: list,
    mapper: AddressMapper,
    config: SystemConfig,
    activations: int,
    rates: list[float],
) -> int:
    # Deterministic weighted round-robin: each generator accrues credit at
    # its rate and the highest-credit generator (lowest index on ties)
    # supplies the next activation, so a rate-0.25 attacker contributes a
    # quarter as many warm-up activations as a full-rate one.
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
            if response is not EMPTY_RESPONSE and (
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

    Every scenario runs as a core plan.  Without ``core_plan`` the classic
    ``(workload, attack)`` pair is lowered to the plan it means: ``attack``
    at full rate on core 0 (when set) and ``workload`` on every other core.
    With ``core_plan``, ``attack`` must be ``None`` and ``workload`` is
    ignored.  Either way the cores come from
    :func:`build_core_specs_from_plan` and the tracker is warmed by
    :func:`warm_up_tracker_from_plan` (``attack_warmup_activations`` caps it).

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
    if core_plan is None:
        benign = (
            CoreAssignment(role="workload", profile=workload)
            if isinstance(workload, WorkloadProfile)
            else CoreAssignment(role="workload", name=workload)
        )
        attackers = (
            () if attack is None else (CoreAssignment(role="attack", name=attack),)
        )
        core_plan = attackers + (benign,) * (config.cores.num_cores - len(attackers))
    elif attack is not None:
        raise ValueError("core_plan and attack are mutually exclusive")
    specs = build_core_specs_from_plan(config, core_plan, requests_per_core, seed)
    tracker_obj = create_tracker(tracker, config) if isinstance(tracker, str) else tracker
    warmup_stage = (
        profiler.stage("tracker-warmup") if profiler is not None else nullcontext()
    )
    with warmup_stage:
        if attack_warmup_activations > 0:
            warm_up_tracker_from_plan(
                tracker_obj, core_plan, config, attack_warmup_activations, seed
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

