"""Empirical RowHammer-security evaluation of every tracker.

The analytical models in :mod:`repro.analysis.mapping_capture` and
:mod:`repro.analysis.dapper_h_security` reason about *Performance Attacks*;
this module answers the more basic question every tracker must pass first:
*does it actually prevent RowHammer?*

:func:`evaluate_tracker_security` drives an attack kernel straight into a
memory controller that carries the :class:`~repro.analysis.security.GroundTruthAuditor`
and reports the maximum true activation count any row accumulated between
refreshes of its victims.  A sound tracker keeps that maximum below the
RowHammer threshold (in practice near the mitigation threshold, NRH / 2);
the unprotected baseline exceeds it almost immediately under double-sided
hammering.

:func:`security_sweep` repeats the evaluation for a set of trackers and
attack patterns and returns one row per combination, which is what the
``security`` CLI command and the security-audit example print.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.security import GroundTruthAuditor, SecurityReport
from repro.attacks import attack_by_name
from repro.config import SystemConfig, baseline_config
from repro.dram.address import AddressMapper
from repro.dram.dram_system import DRAMSystem
from repro.mc.controller import MemoryController
from repro.trackers.registry import create_tracker

#: Attack patterns used by default: classic hammering (double-sided and
#: many-sided) plus the streaming pattern that maximises distinct aggressors.
DEFAULT_SECURITY_ATTACKS = (
    "rowhammer",
    "many-sided-rowhammer",
    "refresh",
)

#: Trackers whose protection is deterministic: under any access pattern the
#: true activation count must stay below the RowHammer threshold.
DETERMINISTIC_TRACKERS = (
    "hydra",
    "start",
    "comet",
    "abacus",
    "graphene",
    "prac",
    "dapper-s",
    "dapper-h",
)


@dataclass(frozen=True)
class SecurityScenario:
    """Outcome of one (tracker, attack) security evaluation."""

    tracker: str
    attack: str
    nrh: int
    activations: int
    max_count: int
    violations: int
    mitigations_issued: int

    @property
    def is_secure(self) -> bool:
        """Whether no row crossed the RowHammer threshold."""
        return self.violations == 0

    @property
    def max_count_fraction_of_nrh(self) -> float:
        return self.max_count / self.nrh if self.nrh else 0.0


def evaluate_tracker_security(
    tracker_name: str,
    attack_name: str = "rowhammer",
    config: SystemConfig | None = None,
    activations: int = 20_000,
    seed: int = 7,
) -> SecurityScenario:
    """Hammer one tracker with one attack kernel and audit the ground truth.

    The attack stream is serviced request-by-request in time order (each
    request issues when the previous one completed), so throttling mitigations
    and refresh-window resets behave exactly as they would inside the full
    multi-core simulator, at a fraction of the cost.
    """
    config = config or baseline_config()
    mapper = AddressMapper(config.dram)
    tracker = create_tracker(tracker_name, config)
    auditor = GroundTruthAuditor(config)
    controller = MemoryController(
        config, DRAMSystem(config), tracker, mapper, auditor=auditor
    )
    attack = attack_by_name(attack_name, config.dram, mapper, seed=seed)

    now_ns = 0.0
    for _ in range(activations):
        entry = attack.next_entry()
        now_ns = controller.service(entry.address, entry.is_write, now_ns)

    report: SecurityReport = auditor.report()
    return SecurityScenario(
        tracker=tracker_name,
        attack=attack_name,
        nrh=config.rowhammer.nrh,
        activations=activations,
        max_count=report.max_count,
        violations=len(report.violations),
        mitigations_issued=tracker.stats.mitigations_issued,
    )


def security_sweep(
    trackers: tuple[str, ...] = DETERMINISTIC_TRACKERS,
    attacks: tuple[str, ...] = DEFAULT_SECURITY_ATTACKS,
    config: SystemConfig | None = None,
    activations: int = 20_000,
    seed: int = 7,
) -> list[SecurityScenario]:
    """Evaluate every (tracker, attack) combination and return one row each.

    Every name is checked before the first evaluation, so an unknown one
    raises ``ValueError`` at once.
    """
    config = config or baseline_config()
    mapper = AddressMapper(config.dram)
    for tracker_name in trackers:
        create_tracker(tracker_name, config)
    for attack_name in attacks:
        attack_by_name(attack_name, config.dram, mapper)
    return [
        evaluate_tracker_security(
            tracker_name,
            attack_name,
            config=config,
            activations=activations,
            seed=seed,
        )
        for tracker_name in trackers
        for attack_name in attacks
    ]


def format_security_table(scenarios: list[SecurityScenario]) -> str:
    """Human-readable table of a security sweep (used by the CLI)."""
    header = (
        f"{'tracker':<22} {'attack':<24} {'max count':>10} "
        f"{'/NRH':>6} {'mitigations':>12} {'secure':>7}"
    )
    lines = [header, "-" * len(header)]
    for scenario in scenarios:
        lines.append(
            f"{scenario.tracker:<22} {scenario.attack:<24} "
            f"{scenario.max_count:>10} "
            f"{scenario.max_count_fraction_of_nrh:>6.2f} "
            f"{scenario.mitigations_issued:>12} "
            f"{'yes' if scenario.is_secure else 'NO':>7}"
        )
    return "\n".join(lines)
