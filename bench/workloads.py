"""The benchmark's workloads: scenario batches built from a seed.

Each workload is a list of :class:`~repro.sim.sweep.ScenarioSpec` plus the
engine it runs on.  The seed only drives the inputs -- workload and attack
generator seeds, and the long-horizon trace file -- never the configuration,
so every seed runs the same amount of work on different streams.

Scenario specs come from the repo's own scenario catalog, so a workload here
is the same batch a figure or suite file would run.  ``tiny`` scale shrinks
every request budget and warm-up so the whole set runs in about a second on
any engine (the parity checks and the unit tests use it).
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from repro.cpu.trace import TraceEntry
from repro.cpu.tracefile import write_trace
from repro.scenarios import family_by_name
from repro.scenarios.families import full_geometry_config, motivation_series
from repro.sim.sweep import ScenarioSpec

NRH = 500
TREFW_SCALE = 1.0 / 16.0


@dataclass(frozen=True)
class Scale:
    """Request budgets and warm-up lengths of one benchmark scale."""

    requests_attack: int
    requests_benign: int
    tracker_warmup: int
    llc_warmup: int
    trace_entries: int
    trace_requests: int
    #: Accesses the traced run streams through a fresh LLC.
    llc_replay: int


FULL = Scale(
    requests_attack=8_000,
    requests_benign=12_000,
    tracker_warmup=150_000,
    llc_warmup=25_000,
    trace_entries=16_384,
    trace_requests=24_000_000,
    llc_replay=200_000,
)
TINY = Scale(
    requests_attack=150,
    requests_benign=150,
    tracker_warmup=1_000,
    llc_warmup=500,
    trace_entries=1_024,
    trace_requests=10_000,
    llc_replay=5_000,
)
SCALES = {"full": FULL, "tiny": TINY}


def _sized(specs: list[ScenarioSpec], scale: Scale) -> list[ScenarioSpec]:
    """Apply the scale's warm-up lengths (the catalog fixes its own)."""
    return [
        dataclasses.replace(
            spec,
            attack_warmup_activations=scale.tracker_warmup,
            llc_warmup_accesses=scale.llc_warmup,
        )
        for spec in specs
    ]


def dapper_attack(seed: int, scale: Scale, work_dir: Path) -> list[ScenarioSpec]:
    """A figure 9/10 slice: both DAPPER trackers under the refresh attack,
    plus DAPPER-H under row streaming (reduced geometry, as the figures)."""
    cross = family_by_name("cross-product")
    common = {
        "attacks": ["refresh"],
        "attack_matched_baseline": True,
        "nrh": NRH,
        "requests_per_core": scale.requests_attack,
        "seed": seed,
        "trefw_scale": TREFW_SCALE,
    }
    specs = cross.expand(
        {
            **common,
            "trackers": ["dapper-h", "dapper-s"],
            "workloads": ["429.mcf", "505.mcf", "470.lbm"],
            "geometry": "full",
        }
    )
    specs += cross.expand(
        {
            **common,
            "trackers": ["dapper-h"],
            "attacks": ["row-streaming"],
            "workloads": ["429.mcf"],
            "geometry": "reduced",
        }
    )
    return _sized(specs, scale)


def benign_mix(seed: int, scale: Scale, work_dir: Path) -> list[ScenarioSpec]:
    """A figure 11 slice: no attacker, three trackers, four workloads."""
    specs = family_by_name("cross-product").expand(
        {
            "trackers": ["none", "graphene", "dapper-h"],
            "attacks": ["none"],
            "workloads": ["429.mcf", "470.lbm", "453.povray", "hadoop-sort"],
            "nrh": NRH,
            "requests_per_core": scale.requests_benign,
            "seed": seed,
            "trefw_scale": TREFW_SCALE,
        }
    )
    return _sized(specs, scale)


def perf_attacks(seed: int, scale: Scale, work_dir: Path) -> list[ScenarioSpec]:
    """A figure 1 slice: cache thrashing and the four scalable trackers under
    their tailored attacks, normalised to the no-attack baseline as figure 1
    is."""
    config = full_geometry_config(NRH, TREFW_SCALE)
    specs = [
        ScenarioSpec(
            tracker=tracker,
            workload="429.mcf",
            attack=attack,
            seed=seed,
            requests_per_core=scale.requests_attack,
            config=config,
        )
        for _, tracker, attack in motivation_series()
    ]
    return _sized(specs, scale)


#: Hot-set trace shape of the long-horizon workload.
HOT_LINES = 256
HOT_WINDOW_LINES = 1 << 20
GAP_RANGE = (2_500, 7_500)
WRITE_SHARE = 0.25


def hot_set_entries(seed: int, count: int) -> list[TraceEntry]:
    """``count`` accesses over 256 lines of a 64 MiB window, seeded.

    The window keeps the line domain small enough for the event engine's
    residency bitmap; 256 lines fit the LLC, so after warm-up every access
    hits and the run is idle time between accesses.
    """
    rng = random.Random(seed)
    base = rng.randrange(64) * HOT_WINDOW_LINES
    lines = [base + line for line in rng.sample(range(HOT_WINDOW_LINES), HOT_LINES)]
    return [
        TraceEntry(
            gap_instructions=rng.randint(*GAP_RANGE),
            address=rng.choice(lines) * 64,
            is_write=rng.random() < WRITE_SHARE,
        )
        for _ in range(count)
    ]


def long_horizon(seed: int, scale: Scale, work_dir: Path) -> list[ScenarioSpec]:
    """A hot-set trace replayed on one core for many full refresh windows."""
    work_dir.mkdir(parents=True, exist_ok=True)
    trace = work_dir / f"hot-set-{seed:x}.trace"
    write_trace(trace, hot_set_entries(seed, scale.trace_entries))
    specs = family_by_name("trace-replay").expand(
        {
            "tracker": "dapper-h",
            "trace": str(trace),
            "cores": 1,
            "nrh": NRH,
            "requests_per_core": scale.trace_requests,
            "seed": seed,
            "trefw_scale": 1.0,
            "geometry": "reduced",
        }
    )
    return _sized(specs, scale)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (``BENCHMARK.json`` says why each exists)."""

    name: str
    build: Callable[[int, Scale, Path], list[ScenarioSpec]]
    engine: str
    #: Tracker whose recorded on_activation calls the traced run replays.
    replay_tracker: str
    #: Workload profile streamed through a fresh LLC by the traced run
    #: (``None``: the workload's own trace file).
    replay_profile: str | None


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("dapper-attack", dapper_attack, "batched", "dapper-h", "429.mcf"),
        Workload("benign-mix", benign_mix, "batched", "dapper-h", "429.mcf"),
        Workload("perf-attacks", perf_attacks, "batched", "hydra", "429.mcf"),
        Workload("long-horizon", long_horizon, "event", "dapper-h", None),
    )
}


def simulations(specs: list[ScenarioSpec]) -> list[tuple[str, ScenarioSpec]]:
    """Every unique simulation of a batch -- scenarios and their baselines --
    as ``(cache_key, spec)`` in first-use order."""
    unique: dict[str, ScenarioSpec] = {}
    for spec in specs:
        for planned in (spec, spec.baseline_spec()):
            unique.setdefault(planned.cache_key(), planned)
    return list(unique.items())
