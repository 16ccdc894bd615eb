"""The built-in scenario families.

Three groups:

* **Generic shapes** -- ``single`` and ``cross-product`` cover the classic
  tracker x attack x workload layout the CLI ``sweep`` command exposes.
* **Heterogeneous shapes** -- ``workload-blend``, ``multi-attacker``,
  ``attacker-count-sweep``, ``hammer-rate-sweep`` and ``fuzz`` compile down
  to per-core plans (:class:`~repro.sim.sweep.CoreAssignment`), expressing
  scenarios the paper's fixed four-core layout cannot: several heterogeneous
  attacker cores, mixed benign blends with per-core intensity, and seeded
  random exploration.
* **Paper scenarios** -- ``paper-figure3/4/11/12`` and ``paper-table4``
  declare exactly the scenario batches behind those figures/tables, so the
  figure runners in :mod:`repro.eval` and any suite file share one
  definition (and therefore one set of cache entries).

Workload blend entries are either a workload name or a mapping with keys
``workload`` (required), ``intensity`` (APKI multiplier, default 1.0) and
``cores`` (how many cores run this entry, default 1).  Attacker entries are
an attack name or a mapping with ``attack`` (required), ``hammer_rate``
(``(0, 1]``, default 1.0) and ``cores`` (default 1).
"""

from __future__ import annotations

from repro.attacks import available_attacks, tailored_attack_name
from repro.config import SystemConfig, baseline_config, reduced_row_config
from repro.cpu.workloads import SUITES, get_workload, workloads_in_suite
from repro.crypto.prng import XorShift64
from repro.scenarios.catalog import Parameter, ScenarioFamily, register_family
from repro.sim.sweep import CoreAssignment, ScenarioSpec
from repro.trackers.registry import create_tracker

#: Refresh-window scale used by short simulation windows (see DESIGN.md).
DEFAULT_TREFW_SCALE = 1.0 / 16.0

#: The scalable trackers the paper's motivation section attacks.
MOTIVATION_TRACKERS: tuple[str, ...] = ("hydra", "start", "abacus", "comet")


def default_workloads(per_suite: int = 1) -> list[str]:
    """A representative subset: the most memory-intensive workloads per suite.

    The paper's headline behaviours are driven by the memory-intensive
    workloads (its Figure 3/10/11 even split them out), so the quick subset
    picks the highest-APKI applications of each suite.
    """
    selected: list[str] = []
    for suite in SUITES:
        profiles = sorted(
            workloads_in_suite(suite), key=lambda p: p.apki, reverse=True
        )
        selected.extend(profile.name for profile in profiles[:per_suite])
    return selected


def motivation_series() -> list[tuple[str, str, str]]:
    """(label, tracker, attack) triples of the motivation experiments: cache
    thrashing on the unprotected system, then each scalable tracker under its
    tailored Perf-Attack."""
    return [("cache-thrashing", "none", "cache-thrashing")] + [
        (tracker, tracker, tailored_attack_name(tracker))
        for tracker in MOTIVATION_TRACKERS
    ]


def full_geometry_config(
    nrh: int, trefw_scale: float = DEFAULT_TREFW_SCALE
) -> SystemConfig:
    """The Table I system at the given threshold and refresh-window scale."""
    return baseline_config(nrh=nrh).with_refresh_window_scale(trefw_scale)


def streaming_config(
    nrh: int, trefw_scale: float = DEFAULT_TREFW_SCALE
) -> SystemConfig:
    """Reduced-row geometry for scenarios with the row-streaming attack
    (which must sweep the whole row space; see EXPERIMENTS.md)."""
    return reduced_row_config(nrh=nrh).with_refresh_window_scale(trefw_scale)


# --------------------------------------------------------------------------- #
# Validation and parsing helpers shared by the builders
# --------------------------------------------------------------------------- #


def _scenario_config(nrh: int, trefw_scale: float, geometry: str) -> SystemConfig:
    if geometry == "full":
        return full_geometry_config(int(nrh), float(trefw_scale))
    if geometry == "reduced":
        return streaming_config(int(nrh), float(trefw_scale))
    raise ValueError(
        f"unknown geometry {geometry!r}; expected 'full' or 'reduced'"
    )


def _check_tracker(name: str, config: SystemConfig) -> str:
    # The registry is the single source of truth for tracker names
    # (including recursive breakhammer: composition), so probe it directly.
    create_tracker(name, config)
    return name


def _check_attack(name: str) -> str:
    if name not in available_attacks():
        raise ValueError(
            f"unknown attack {name!r}; "
            f"available: {', '.join(available_attacks())}"
        )
    return name


def _check_workload(name: str) -> str:
    try:
        get_workload(name)
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r} (see `repro.cli list-workloads`)"
        ) from None
    return name


def _as_list(value, what: str) -> list:
    if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
        raise ValueError(f"{what} must be a list, got {value!r}")
    items = list(value)
    if not items:
        raise ValueError(f"{what} must not be empty")
    return items


def _benign_assignments(entries: list) -> list[CoreAssignment]:
    """Expand blend entries into one assignment per requested core."""
    assignments: list[CoreAssignment] = []
    for entry in entries:
        if isinstance(entry, str):
            entry = {"workload": entry}
        if not isinstance(entry, dict):
            raise ValueError(
                f"workload blend entry must be a name or mapping, got {entry!r}"
            )
        unknown = set(entry) - {"workload", "intensity", "cores"}
        if unknown:
            raise ValueError(
                f"unknown workload-entry keys: {', '.join(sorted(unknown))}"
            )
        if "workload" not in entry:
            raise ValueError(f"workload blend entry needs a 'workload': {entry!r}")
        name = _check_workload(entry["workload"])
        count = int(entry.get("cores", 1))
        if count < 1:
            raise ValueError(f"workload entry 'cores' must be >= 1, got {count}")
        assignment = CoreAssignment(
            role="workload",
            name=name,
            intensity=float(entry.get("intensity", 1.0)),
        )
        assignments.extend([assignment] * count)
    return assignments


def _attacker_assignments(entries: list) -> list[CoreAssignment]:
    """Expand attacker entries into one assignment per requested core."""
    assignments: list[CoreAssignment] = []
    for entry in entries:
        if isinstance(entry, str):
            entry = {"attack": entry}
        if not isinstance(entry, dict):
            raise ValueError(
                f"attacker entry must be a name or mapping, got {entry!r}"
            )
        unknown = set(entry) - {"attack", "hammer_rate", "cores"}
        if unknown:
            raise ValueError(
                f"unknown attacker-entry keys: {', '.join(sorted(unknown))}"
            )
        if "attack" not in entry:
            raise ValueError(f"attacker entry needs an 'attack': {entry!r}")
        name = _check_attack(entry["attack"])
        count = int(entry.get("cores", 1))
        if count < 1:
            raise ValueError(f"attacker entry 'cores' must be >= 1, got {count}")
        assignment = CoreAssignment(
            role="attack",
            name=name,
            hammer_rate=float(entry.get("hammer_rate", 1.0)),
        )
        assignments.extend([assignment] * count)
    return assignments


def _fill_plan(
    attackers: list[CoreAssignment],
    benign: list[CoreAssignment],
    num_cores: int,
) -> tuple[CoreAssignment, ...]:
    """Attackers first, then the benign blend cycled over the remaining cores."""
    if len(attackers) >= num_cores:
        raise ValueError(
            f"{len(attackers)} attacker core(s) leave no benign core on a "
            f"{num_cores}-core system"
        )
    benign_slots = num_cores - len(attackers)
    if len(benign) > benign_slots:
        raise ValueError(
            f"blend needs {len(benign)} benign core(s) but only "
            f"{benign_slots} remain on a {num_cores}-core system"
        )
    filled = [benign[index % len(benign)] for index in range(benign_slots)]
    return tuple(attackers + filled)


def _plan_label(plan: tuple[CoreAssignment, ...]) -> str:
    """The workload that labels a plan spec: the first benign core's."""
    for assignment in plan:
        if assignment.role == "workload":
            if assignment.name is not None:
                return assignment.name
            return assignment.profile.name
    raise ValueError("core plan has no workload core")  # pragma: no cover


_COMMON = (
    Parameter("nrh", 500, "RowHammer threshold"),
    Parameter("requests_per_core", 4_000, "request budget per benign core"),
    Parameter("seed", None, "scenario seed (None = configuration default)"),
    Parameter(
        "trefw_scale", DEFAULT_TREFW_SCALE, "refresh-window scale (short windows)"
    ),
    Parameter("geometry", "full", "'full' (Table I) or 'reduced' (small row space)"),
)


# --------------------------------------------------------------------------- #
# Generic shapes
# --------------------------------------------------------------------------- #


def _build_single(
    tracker,
    workload,
    attack,
    attack_matched_baseline,
    nrh,
    requests_per_core,
    seed,
    trefw_scale,
    geometry,
):
    config = _scenario_config(nrh, trefw_scale, geometry)
    _check_tracker(tracker, config)
    _check_workload(workload)
    if attack is not None:
        _check_attack(attack)
    return [
        ScenarioSpec(
            tracker=tracker,
            workload=workload,
            attack=attack,
            seed=seed,
            requests_per_core=int(requests_per_core),
            attack_matched_baseline=bool(attack_matched_baseline),
            config=config,
        )
    ]


register_family(
    ScenarioFamily(
        name="single",
        description="One classic scenario: tracker, workload, optional attack "
        "on core 0.",
        builder=_build_single,
        parameters=(
            Parameter("tracker", doc="tracker name (see list-trackers)"),
            Parameter("workload", doc="workload name (see list-workloads)"),
            Parameter("attack", None, "attack name, or None for benign"),
            Parameter(
                "attack_matched_baseline",
                False,
                "normalise against a baseline that also runs the attacker",
            ),
        )
        + _COMMON,
    )
)


def _build_cross_product(
    trackers,
    attacks,
    workloads,
    attack_matched_baseline,
    nrh,
    requests_per_core,
    seed,
    trefw_scale,
    geometry,
):
    config = _scenario_config(nrh, trefw_scale, geometry)
    trackers = [_check_tracker(t, config) for t in _as_list(trackers, "trackers")]
    attacks = [
        None if a in (None, "none") else _check_attack(a)
        for a in _as_list(attacks, "attacks")
    ]
    workloads = [_check_workload(w) for w in _as_list(workloads, "workloads")]
    return [
        ScenarioSpec(
            tracker=tracker,
            workload=workload,
            attack=attack,
            seed=seed,
            requests_per_core=int(requests_per_core),
            attack_matched_baseline=bool(attack_matched_baseline),
            config=config,
        )
        for tracker in trackers
        for attack in attacks
        for workload in workloads
    ]


register_family(
    ScenarioFamily(
        name="cross-product",
        description="Full tracker x attack x workload cross-product (the CLI "
        "sweep shape).",
        builder=_build_cross_product,
        parameters=(
            Parameter("trackers", doc="list of tracker names"),
            Parameter("attacks", ["none"], "list of attack names ('none' = benign)"),
            Parameter("workloads", doc="list of workload names"),
            Parameter(
                "attack_matched_baseline",
                False,
                "normalise against baselines that also run the attacker",
            ),
        )
        + _COMMON,
    )
)


# --------------------------------------------------------------------------- #
# Heterogeneous shapes (core plans)
# --------------------------------------------------------------------------- #


def _build_workload_blend(
    tracker,
    workloads,
    nrh,
    requests_per_core,
    seed,
    trefw_scale,
    geometry,
):
    config = _scenario_config(nrh, trefw_scale, geometry)
    _check_tracker(tracker, config)
    benign = _benign_assignments(_as_list(workloads, "workloads"))
    plan = _fill_plan([], benign, config.cores.num_cores)
    return [
        ScenarioSpec(
            tracker=tracker,
            workload=_plan_label(plan),
            seed=seed,
            requests_per_core=int(requests_per_core),
            config=config,
            core_plan=plan,
        )
    ]


register_family(
    ScenarioFamily(
        name="workload-blend",
        description="Mixed benign workloads with per-core intensity, no "
        "attacker (cycled over all cores).",
        builder=_build_workload_blend,
        parameters=(
            Parameter("tracker", "none", "tracker name"),
            Parameter(
                "workloads",
                doc="blend entries: name or {workload, intensity, cores}",
            ),
        )
        + _COMMON,
    )
)


def _build_multi_attacker(
    tracker,
    attackers,
    workloads,
    attack_matched_baseline,
    nrh,
    requests_per_core,
    seed,
    trefw_scale,
    geometry,
):
    config = _scenario_config(nrh, trefw_scale, geometry)
    _check_tracker(tracker, config)
    attacker_cores = _attacker_assignments(_as_list(attackers, "attackers"))
    benign = _benign_assignments(_as_list(workloads, "workloads"))
    plan = _fill_plan(attacker_cores, benign, config.cores.num_cores)
    return [
        ScenarioSpec(
            tracker=tracker,
            workload=_plan_label(plan),
            seed=seed,
            requests_per_core=int(requests_per_core),
            attack_matched_baseline=bool(attack_matched_baseline),
            config=config,
            core_plan=plan,
        )
    ]


register_family(
    ScenarioFamily(
        name="multi-attacker",
        description="Several heterogeneous attacker cores (each with its own "
        "hammer rate) against a benign workload blend.",
        builder=_build_multi_attacker,
        parameters=(
            Parameter("tracker", doc="tracker name"),
            Parameter(
                "attackers",
                doc="attacker entries: name or {attack, hammer_rate, cores}",
            ),
            Parameter(
                "workloads",
                doc="benign blend filling the remaining cores (cycled)",
            ),
            Parameter(
                "attack_matched_baseline",
                False,
                "normalise against a baseline that keeps the attackers running",
            ),
        )
        + _COMMON,
    )
)


def _build_attacker_count_sweep(
    tracker,
    attack,
    counts,
    hammer_rate,
    workloads,
    nrh,
    requests_per_core,
    seed,
    trefw_scale,
    geometry,
):
    config = _scenario_config(nrh, trefw_scale, geometry)
    _check_tracker(tracker, config)
    _check_attack(attack)
    benign = _benign_assignments(_as_list(workloads, "workloads"))
    specs = []
    for count in _as_list(counts, "counts"):
        count = int(count)
        if count < 0:
            raise ValueError(f"attacker count must be >= 0, got {count}")
        attacker_cores = [
            CoreAssignment(role="attack", name=attack, hammer_rate=float(hammer_rate))
        ] * count
        plan = _fill_plan(attacker_cores, benign, config.cores.num_cores)
        specs.append(
            ScenarioSpec(
                tracker=tracker,
                workload=_plan_label(plan),
                seed=seed,
                requests_per_core=int(requests_per_core),
                config=config,
                core_plan=plan,
            )
        )
    return specs


register_family(
    ScenarioFamily(
        name="attacker-count-sweep",
        description="One scenario per attacker count (0 = pure benign blend), "
        "same attack kernel on every attacker core.",
        builder=_build_attacker_count_sweep,
        parameters=(
            Parameter("tracker", doc="tracker name"),
            Parameter("attack", doc="attack kernel every attacker core runs"),
            Parameter("counts", [0, 1, 2], "attacker-core counts to sweep"),
            Parameter("hammer_rate", 1.0, "hammer rate shared by all attackers"),
            Parameter("workloads", doc="benign blend for the remaining cores"),
        )
        + _COMMON,
    )
)


def _build_hammer_rate_sweep(
    tracker,
    attack,
    rates,
    attackers,
    workloads,
    nrh,
    requests_per_core,
    seed,
    trefw_scale,
    geometry,
):
    config = _scenario_config(nrh, trefw_scale, geometry)
    _check_tracker(tracker, config)
    _check_attack(attack)
    benign = _benign_assignments(_as_list(workloads, "workloads"))
    attackers = int(attackers)
    if attackers < 1:
        raise ValueError(f"attackers must be >= 1, got {attackers}")
    specs = []
    for rate in _as_list(rates, "rates"):
        attacker_cores = [
            CoreAssignment(role="attack", name=attack, hammer_rate=float(rate))
        ] * attackers
        plan = _fill_plan(attacker_cores, benign, config.cores.num_cores)
        specs.append(
            ScenarioSpec(
                tracker=tracker,
                workload=_plan_label(plan),
                seed=seed,
                requests_per_core=int(requests_per_core),
                config=config,
                core_plan=plan,
            )
        )
    return specs


register_family(
    ScenarioFamily(
        name="hammer-rate-sweep",
        description="One scenario per attacker hammer rate, fixed attack "
        "kernel and benign blend.",
        builder=_build_hammer_rate_sweep,
        parameters=(
            Parameter("tracker", doc="tracker name"),
            Parameter("attack", doc="attack kernel"),
            Parameter("rates", [1.0, 0.5, 0.25], "hammer rates to sweep"),
            Parameter("attackers", 1, "number of attacker cores"),
            Parameter("workloads", doc="benign blend for the remaining cores"),
        )
        + _COMMON,
    )
)


#: Hammer rates and intensities the fuzz family draws from (discrete choices
#: keep scenario descriptions readable and cache keys reproducible).
_FUZZ_RATES = (1.0, 0.75, 0.5, 0.25)
_FUZZ_INTENSITIES = (0.5, 0.75, 1.0, 1.5, 2.0)


def _build_fuzz(
    count,
    seed,
    trackers,
    attacks,
    workloads,
    max_attackers,
    nrh,
    requests_per_core,
    trefw_scale,
    geometry,
):
    config = _scenario_config(nrh, trefw_scale, geometry)
    trackers = [_check_tracker(t, config) for t in _as_list(trackers, "trackers")]
    attacks = [_check_attack(a) for a in _as_list(attacks, "attacks")]
    workloads = [_check_workload(w) for w in _as_list(workloads, "workloads")]
    count = int(count)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    max_attackers = min(int(max_attackers), config.cores.num_cores - 1)
    if max_attackers < 0:
        raise ValueError("max_attackers must be >= 0")

    # One deterministic stream drives every random choice, so a (count, seed)
    # pair always expands to the same scenario list -- and therefore the same
    # cache keys -- no matter where or when it is compiled.
    rng = XorShift64((int(seed) << 8) ^ 0xF0220D)
    specs = []
    for index in range(count):
        tracker = trackers[rng.next_below(len(trackers))]
        num_attackers = rng.next_below(max_attackers + 1)
        attacker_cores = [
            CoreAssignment(
                role="attack",
                name=attacks[rng.next_below(len(attacks))],
                hammer_rate=_FUZZ_RATES[rng.next_below(len(_FUZZ_RATES))],
            )
            for _ in range(num_attackers)
        ]
        benign = [
            CoreAssignment(
                role="workload",
                name=workloads[rng.next_below(len(workloads))],
                intensity=_FUZZ_INTENSITIES[
                    rng.next_below(len(_FUZZ_INTENSITIES))
                ],
            )
            for _ in range(config.cores.num_cores - num_attackers)
        ]
        plan = tuple(attacker_cores + benign)
        specs.append(
            ScenarioSpec(
                tracker=tracker,
                workload=_plan_label(plan),
                seed=(int(seed) * 1_000_003 + index) & 0x7FFF_FFFF,
                requests_per_core=int(requests_per_core),
                config=config,
                core_plan=plan,
            )
        )
    return specs


register_family(
    ScenarioFamily(
        name="fuzz",
        description="Seeded random scenarios: tracker, attacker count/kernels/"
        "rates and benign blend all drawn from pools.",
        builder=_build_fuzz,
        parameters=(
            Parameter("count", doc="how many scenarios to generate"),
            Parameter("seed", 2025, "fuzz seed (same seed = same scenarios)"),
            Parameter("trackers", ["none", "dapper-h"], "tracker pool"),
            Parameter(
                "attacks",
                ["refresh", "blind-random-rows", "cache-thrashing"],
                "attack-kernel pool",
            ),
            Parameter(
                "workloads",
                ["429.mcf", "470.lbm", "433.milc", "510.parest"],
                "benign workload pool",
            ),
            Parameter("max_attackers", 2, "maximum attacker cores per scenario"),
            Parameter("nrh", 500, "RowHammer threshold"),
            Parameter("requests_per_core", 4_000, "request budget per benign core"),
            Parameter(
                "trefw_scale", DEFAULT_TREFW_SCALE, "refresh-window scale"
            ),
            Parameter("geometry", "full", "'full' or 'reduced'"),
        ),
    )
)


# --------------------------------------------------------------------------- #
# Paper scenarios: the exact batches behind the sweep-based figures/tables.
# The figure runners in repro.eval expand these same families, so a suite
# file referencing them shares cache entries with `repro.cli figure N`.
# --------------------------------------------------------------------------- #


def _paper_workloads(workloads, fallback: list[str]) -> list[str]:
    # Only None means "use the figure's default subset"; an explicitly empty
    # list is rejected like in every other family.
    if workloads is None:
        workloads = fallback
    return [_check_workload(w) for w in _as_list(workloads, "workloads")]


def _build_paper_figure3(workloads, requests_per_core, nrh):
    workloads = _paper_workloads(workloads, default_workloads(1))
    config = full_geometry_config(int(nrh))
    return [
        ScenarioSpec(
            tracker=tracker,
            workload=workload,
            attack=attack,
            requests_per_core=int(requests_per_core),
            config=config,
        )
        for workload in workloads
        for _, tracker, attack in motivation_series()
    ]


register_family(
    ScenarioFamily(
        name="paper-figure3",
        description="Figure 3: per-workload impact of cache thrashing and the "
        "four tailored Perf-Attacks.",
        builder=_build_paper_figure3,
        parameters=(
            Parameter("workloads", None, "workloads (None = default subset)"),
            Parameter("requests_per_core", 8_000),
            Parameter("nrh", 500),
        ),
    )
)


def _build_paper_figure4(workloads, requests_per_core, nrh_values):
    workloads = _paper_workloads(workloads, default_workloads(1)[:3])
    return [
        ScenarioSpec(
            tracker=tracker,
            workload=workload,
            attack=attack,
            requests_per_core=int(requests_per_core),
            config=full_geometry_config(int(nrh)),
        )
        for nrh in nrh_values
        for _, tracker, attack in motivation_series()
        for workload in workloads
    ]


register_family(
    ScenarioFamily(
        name="paper-figure4",
        description="Figure 4: Perf-Attack slowdowns as the RowHammer "
        "threshold varies.",
        builder=_build_paper_figure4,
        parameters=(
            Parameter("workloads", None, "workloads (None = default subset)"),
            Parameter("requests_per_core", 6_000),
            Parameter("nrh_values", (500, 1000, 2000, 4000)),
        ),
    )
)


def _build_paper_figure11(workloads, requests_per_core, nrh):
    workloads = _paper_workloads(workloads, default_workloads(1))
    config = full_geometry_config(int(nrh))
    return [
        ScenarioSpec(
            tracker="dapper-h",
            workload=workload,
            requests_per_core=int(requests_per_core),
            config=config,
        )
        for workload in workloads
    ]


register_family(
    ScenarioFamily(
        name="paper-figure11",
        description="Figure 11: DAPPER-H on benign applications (no attacker).",
        builder=_build_paper_figure11,
        parameters=(
            Parameter("workloads", None, "workloads (None = default subset)"),
            Parameter("requests_per_core", 8_000),
            Parameter("nrh", 500),
        ),
    )
)


def paper_figure12_series(nrh: int) -> list[tuple[str, str | None, SystemConfig]]:
    """(label, attack, config) triples of one Figure 12 threshold step.  The
    streaming attack needs the reduced-row geometry; the batch mixes both
    configurations freely."""
    return [
        ("DAPPER-H", None, full_geometry_config(nrh)),
        ("DAPPER-H-Streaming", "row-streaming", streaming_config(nrh)),
        ("DAPPER-H-Refresh", "refresh", full_geometry_config(nrh)),
    ]


def _build_paper_figure12(workloads, requests_per_core, nrh_values):
    workloads = _paper_workloads(workloads, default_workloads(1)[:3])
    return [
        ScenarioSpec(
            tracker="dapper-h",
            workload=workload,
            attack=attack,
            requests_per_core=int(requests_per_core),
            attack_matched_baseline=attack is not None,
            config=config,
        )
        for nrh in nrh_values
        for _, attack, config in paper_figure12_series(int(nrh))
        for workload in workloads
    ]


register_family(
    ScenarioFamily(
        name="paper-figure12",
        description="Figure 12: DAPPER-H vs NRH, benign and under the "
        "streaming/refresh attacks.",
        builder=_build_paper_figure12,
        parameters=(
            Parameter("workloads", None, "workloads (None = default subset)"),
            Parameter("requests_per_core", 6_000),
            Parameter("nrh_values", (125, 250, 500, 1000)),
        ),
    )
)


def paper_table4_series(nrh: int) -> list[tuple[str, str | None, SystemConfig]]:
    """(scenario, attack, config) triples of one Table IV threshold step."""
    full = full_geometry_config(nrh)
    return [
        ("benign", None, full),
        ("streaming", "row-streaming", streaming_config(nrh)),
        ("refresh", "refresh", full),
    ]


def _build_paper_table4(workloads, requests_per_core, nrh_values):
    workloads = _paper_workloads(workloads, default_workloads(1)[:3])
    return [
        ScenarioSpec(
            tracker="dapper-h",
            workload=workload,
            attack=attack,
            requests_per_core=int(requests_per_core),
            attack_matched_baseline=attack is not None,
            config=config,
        )
        for nrh in nrh_values
        for _, attack, config in paper_table4_series(int(nrh))
        for workload in workloads
    ]


register_family(
    ScenarioFamily(
        name="paper-table4",
        description="Table IV: energy overhead of DAPPER-H (benign, "
        "streaming, refresh).",
        builder=_build_paper_table4,
        parameters=(
            Parameter("workloads", None, "workloads (None = default subset)"),
            Parameter("requests_per_core", 6_000),
            Parameter("nrh_values", (125, 500, 1000)),
        ),
    )
)


# --------------------------------------------------------------------------- #
# Long-horizon shapes (the fast engine's stretch executor territory)
# --------------------------------------------------------------------------- #


def _build_multi_refresh_window(
    tracker,
    workload,
    attack,
    windows,
    nrh,
    seed,
    trefw_scale,
    geometry,
):
    config = _scenario_config(nrh, trefw_scale, geometry)
    trackers = (
        [tracker] if isinstance(tracker, str) else _as_list(tracker, "tracker")
    )
    for name in trackers:
        _check_tracker(name, config)
    profile = get_workload(_check_workload(workload))
    attack = None if attack in (None, "none") else _check_attack(attack)
    windows = int(windows)
    if windows < 1:
        raise ValueError(f"windows must be >= 1, got {windows}")
    # Size the budget so the benign issue stream alone (gaps at peak issue
    # rate, no stalls) spans the requested number of refresh windows; memory
    # stalls only stretch the run further, so the bound is conservative.
    peak = config.cores.peak_instructions_per_ns
    mean_gap = max(1, int(round(1000.0 / profile.apki)))
    requests = (
        int(windows * config.timings.trefw_ns * peak / mean_gap * 1.15) + 1
    )
    return [
        ScenarioSpec(
            tracker=name,
            workload=workload,
            attack=attack,
            seed=seed,
            requests_per_core=requests,
            config=config,
        )
        for name in trackers
    ]


register_family(
    ScenarioFamily(
        name="multi-refresh-window",
        description="A horizon spanning N full tREFW windows (tracker epoch "
        "resets included); sized automatically from the workload's APKI.",
        builder=_build_multi_refresh_window,
        parameters=(
            Parameter("tracker", doc="tracker name, or a list of them"),
            Parameter("workload", doc="workload name (see list-workloads)"),
            Parameter("attack", None, "attack name, or None for benign"),
            Parameter("windows", 2, "refresh windows the run must span"),
            Parameter("nrh", 500, "RowHammer threshold"),
            Parameter("seed", None, "scenario seed (None = config default)"),
            Parameter(
                "trefw_scale",
                1.0 / 256.0,
                "refresh-window scale; 1.0 = the full 32 ms window",
            ),
            Parameter(
                "geometry", "full", "'full' (Table I) or 'reduced' geometry"
            ),
        ),
    )
)


def _build_trace_replay(
    tracker,
    trace,
    cores,
    attack,
    nrh,
    requests_per_core,
    seed,
    trefw_scale,
    geometry,
):
    from pathlib import Path

    from repro.cpu.tracefile import load_trace_info

    config = _scenario_config(nrh, trefw_scale, geometry)
    _check_tracker(tracker, config)
    attackers = (
        []
        if attack in (None, "none")
        else [CoreAssignment(role="attack", name=_check_attack(attack))]
    )
    cores = int(cores)
    if cores < 1:
        raise ValueError(f"cores must be >= 1, got {cores}")
    num_cores = config.cores.num_cores
    if len(attackers) + cores > num_cores:
        raise ValueError(
            f"{len(attackers)} attacker + {cores} trace core(s) exceed the "
            f"{num_cores}-core system"
        )
    trace_path = str(trace)
    info = load_trace_info(trace_path)  # validates the file up front
    plan = tuple(
        attackers
        + [CoreAssignment(role="trace", trace=trace_path)] * cores
        + [CoreAssignment(role="idle")]
        * (num_cores - len(attackers) - cores)
    )
    requests = (
        len(info.entries)
        if requests_per_core is None
        else int(requests_per_core)
    )
    return [
        ScenarioSpec(
            tracker=tracker,
            workload=f"trace:{Path(trace_path).name}",
            seed=seed,
            requests_per_core=requests,
            config=config,
            core_plan=plan,
        )
    ]


register_family(
    ScenarioFamily(
        name="trace-replay",
        description="Replay a recorded trace file (cpu/tracefile.py format) "
        "on N cores, optionally next to an attacker.  Budget defaults to one "
        "full pass over the trace.",
        builder=_build_trace_replay,
        parameters=(
            Parameter("tracker", "none", "tracker name"),
            Parameter("trace", doc="path to a trace file"),
            Parameter("cores", 1, "how many cores replay the trace"),
            Parameter("attack", None, "attack name, or None for benign"),
            Parameter("nrh", 500, "RowHammer threshold"),
            Parameter(
                "requests_per_core",
                None,
                "budget per trace core (None = one full trace pass)",
            ),
            Parameter("seed", None, "scenario seed (None = config default)"),
            Parameter(
                "trefw_scale", DEFAULT_TREFW_SCALE, "refresh-window scale"
            ),
            Parameter(
                "geometry", "full", "'full' (Table I) or 'reduced' geometry"
            ),
        ),
    )
)
