"""Campaign manifests, status, reports and diffs over the warehouse.

A *campaign* is a named, persisted execution of a large scenario batch --
typically a suite file or a family cross-product expanding to hundreds or
thousands of :class:`~repro.sim.sweep.ScenarioSpec` objects.  The paper's
evaluation matrix (trackers x attacks x workloads x NRH sweeps) is exactly
this shape.  :class:`~repro.store.worker.CampaignWorker` (``campaign run``)
drains a campaign; this module holds what every process reads about it:

* **The manifest** (:func:`build_manifest`): every scenario's description
  and content-hash key, plus its baseline's, persisted next to the results
  so progress (:func:`campaign_status`), result tables
  (:func:`campaign_report`) and cross-campaign comparisons
  (:func:`diff_campaigns`) work in any later process, including ones that
  never saw the suite file.
* **Resumption**, for free: results are committed under their scenario
  hash as they finish, so a rerun executes only the keys the store lacks.

Campaign identity is content-based: the manifest records each scenario's
cache key, which covers the full system configuration and the simulator code
version.  Re-running a campaign whose suite (or the simulator itself)
changed is therefore refused unless ``--force`` replaces the manifest --
results from both versions stay in the store, which is what makes
:func:`diff_campaigns` across code versions possible.
"""

from __future__ import annotations

import json
import re
from collections.abc import Sequence
from dataclasses import dataclass

from repro.sim.metrics import slowdown_percent
from repro.sim.simulator import SimulationResult
from repro.sim.sweep import CODE_VERSION, ScenarioSpec
from repro.store.backend import RunRecord, SqliteStore, utc_now

#: Manifest format version (bumped on incompatible manifest changes).
MANIFEST_VERSION = 1

#: Campaign names must be safe as file names and readable in reports.
_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,99}$")


def validate_campaign_name(name: str) -> str:
    if not _NAME_PATTERN.match(name or ""):
        raise ValueError(
            f"invalid campaign name {name!r}: use letters, digits, '.', '_' "
            "or '-' (max 100 characters, starting with a letter or digit)"
        )
    return name


def scenario_identity(scenario: dict) -> str:
    """Stable cross-version identity of a scenario description.

    Cache keys change whenever the simulator's code version (or any
    configuration default) changes; the *identity* -- the canonicalised
    ``describe()`` dictionary -- is what lets :func:`diff_campaigns` line up
    the same logical scenario across two campaigns or code versions.
    """
    return json.dumps(scenario, sort_keys=True, default=str)


def build_manifest(
    name: str,
    specs: Sequence[ScenarioSpec],
    source: str = "",
    description: str = "",
) -> dict:
    """The persisted description of a campaign: entries plus bookkeeping."""
    validate_campaign_name(name)
    specs = list(specs)
    if not specs:
        raise ValueError(f"campaign {name!r}: no scenarios to run")
    entries = []
    for index, spec in enumerate(specs):
        baseline = spec.baseline_spec()
        entries.append(
            {
                "index": index,
                "key": spec.cache_key(),
                "baseline_key": baseline.cache_key(),
                "scenario": spec.describe(),
                # Core-plan scenarios are normalised by matched benign core
                # ids; classic specs by the fixed attacker-slot rule.
                "matched_metric": spec.core_plan is not None,
            }
        )
    return {
        "manifest_version": MANIFEST_VERSION,
        "name": name,
        "code_version": CODE_VERSION,
        "created_at": utc_now(),
        "source": source,
        "description": description,
        "entries": entries,
    }


def _manifest_keys(manifest: dict) -> set[str]:
    keys: set[str] = set()
    for entry in manifest.get("entries", ()):
        keys.add(entry["key"])
        keys.add(entry["baseline_key"])
    return keys


def load_manifest(store: SqliteStore, name: str) -> dict:
    """A saved manifest, or ``ValueError`` naming the campaigns that exist."""
    manifest = store.load_campaign(name)
    if manifest is None:
        known = ", ".join(store.campaign_names()) or "(none)"
        raise ValueError(f"unknown campaign {name!r}; saved campaigns: {known}")
    return manifest


# --------------------------------------------------------------------------- #
# Status
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class CampaignStatus:
    """Completion accounting of a saved campaign."""

    name: str
    created_at: str | None
    code_version: str | None
    current_code_version: str
    entries: int               # scenarios in the manifest
    entries_complete: int      # scenarios with measured + baseline stored
    simulations_total: int     # unique simulation keys
    simulations_stored: int
    source: str
    #: Lease accounting from the warehouse's ``leases`` table (``None``
    #: before any ``campaign run`` wrote the shard plan):
    #: shard/done/leased/pending/quarantined counts, total attempts and
    #: reclaims, and a per-worker ``{completed, active}`` map.
    leases: dict | None = None

    @property
    def complete(self) -> bool:
        return self.simulations_stored >= self.simulations_total

    @property
    def percent(self) -> float:
        if not self.simulations_total:
            return 100.0
        return 100.0 * self.simulations_stored / self.simulations_total


def campaign_status(store: SqliteStore, name: str) -> CampaignStatus:
    """Progress of a saved campaign, computed purely from the store."""
    manifest = load_manifest(store, name)
    keys = _manifest_keys(manifest)
    stored = store.keys() & keys
    entries = manifest.get("entries", [])
    complete = sum(
        1
        for entry in entries
        if entry["key"] in stored and entry["baseline_key"] in stored
    )
    return CampaignStatus(
        name=name,
        created_at=manifest.get("created_at"),
        code_version=manifest.get("code_version"),
        current_code_version=CODE_VERSION,
        entries=len(entries),
        entries_complete=complete,
        simulations_total=len(keys),
        simulations_stored=len(stored),
        source=str(manifest.get("source") or ""),
        leases=store.lease_summary(name),
    )


# --------------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------------- #

#: Metric keys a report row carries (shared with ``diff_campaigns``).
REPORT_METRICS = (
    "normalized_performance",
    "slowdown_percent",
    "mitigations_issued",
    "dram_activations",
    "energy_overhead_percent",
)


def _entry_row(entry: dict, record: RunRecord, baseline: RunRecord) -> dict:
    """One report row: scenario identity plus the paper's headline metrics."""
    result = SimulationResult.from_dict(record.result)
    base = SimulationResult.from_dict(baseline.result)
    if entry.get("matched_metric"):
        from repro.sim.metrics import matched_benign_normalized_performance

        normalized = matched_benign_normalized_performance(result, base)
    else:
        from repro.sim.metrics import benign_normalized_performance

        normalized = benign_normalized_performance(result, base)
    row = dict(entry["scenario"])
    if isinstance(row.get("cores"), list):
        row["cores"] = "+".join(str(core) for core in row["cores"])
    row.update(
        normalized_performance=normalized,
        slowdown_percent=slowdown_percent(normalized),
        mitigations_issued=result.tracker_stats.mitigations_issued,
        dram_activations=result.dram_stats.activations,
        energy_overhead_percent=result.energy.overhead_vs(base.energy) * 100.0,
        elapsed_seconds=record.elapsed_seconds,
        peak_memory_bytes=record.peak_memory_bytes,
        code_version=record.code_version,
    )
    return row


def campaign_report(store: SqliteStore, name: str) -> dict:
    """Result table of a campaign: one row per *complete* scenario.

    Rows carry the scenario's identity fields plus normalized performance,
    slowdown, mitigation/activation counts, energy overhead versus the
    scenario's own baseline, and the measured simulation cost.  Scenarios
    whose measured run or baseline is not stored yet are only counted.
    """
    manifest = load_manifest(store, name)
    rows, incomplete = [], 0
    for entry in manifest.get("entries", []):
        record = store.get(entry["key"])
        baseline = store.get(entry["baseline_key"])
        if record is None or baseline is None:
            incomplete += 1
            continue
        rows.append(_entry_row(entry, record, baseline))
    return {
        "campaign": {
            "name": name,
            "created_at": manifest.get("created_at"),
            "code_version": manifest.get("code_version"),
            "source": manifest.get("source") or "",
        },
        "rows": rows,
        "incomplete_entries": incomplete,
        "leases": store.lease_summary(name),
    }


# --------------------------------------------------------------------------- #
# Diffing
# --------------------------------------------------------------------------- #


def diff_campaigns(
    store_a: SqliteStore,
    name_a: str,
    store_b: SqliteStore | None = None,
    name_b: str | None = None,
) -> dict:
    """Per-metric deltas between two campaigns (or code versions).

    Scenarios are matched by their *identity* -- the canonical scenario
    description -- so two campaigns that ran the same logical matrix under
    different simulator versions (different cache keys) still line up.
    Returns matched rows with ``a`` / ``b`` / ``delta`` metric maps, plus the
    scenarios only one campaign has, and the scenarios either campaign has
    not finished computing.
    """
    store_b = store_b if store_b is not None else store_a
    name_b = name_b if name_b is not None else name_a
    report_a = campaign_report(store_a, name_a)
    report_b = campaign_report(store_b, name_b)

    def _by_identity(report: dict) -> dict[str, dict]:
        indexed = {}
        for row in report["rows"]:
            identity = {
                key: value
                for key, value in row.items()
                if key not in REPORT_METRICS
                and key not in (
                    "elapsed_seconds", "peak_memory_bytes", "code_version"
                )
            }
            indexed[scenario_identity(identity)] = row
        return indexed

    rows_a, rows_b = _by_identity(report_a), _by_identity(report_b)
    shared = sorted(set(rows_a) & set(rows_b))
    diffs = []
    for identity in shared:
        row_a, row_b = rows_a[identity], rows_b[identity]
        metrics_a = {metric: row_a.get(metric) for metric in REPORT_METRICS}
        metrics_b = {metric: row_b.get(metric) for metric in REPORT_METRICS}
        delta = {
            metric: (
                metrics_b[metric] - metrics_a[metric]
                if isinstance(metrics_a.get(metric), (int, float))
                and isinstance(metrics_b.get(metric), (int, float))
                else None
            )
            for metric in REPORT_METRICS
        }
        diffs.append(
            {
                "scenario": json.loads(identity),
                "a": metrics_a,
                "b": metrics_b,
                "delta": delta,
            }
        )
    deltas = [
        abs(diff["delta"]["normalized_performance"])
        for diff in diffs
        if diff["delta"]["normalized_performance"] is not None
    ]
    return {
        "campaign_a": report_a["campaign"],
        "campaign_b": report_b["campaign"],
        "matched": len(diffs),
        "rows": diffs,
        "only_in_a": [
            json.loads(identity) for identity in sorted(set(rows_a) - set(rows_b))
        ],
        "only_in_b": [
            json.loads(identity) for identity in sorted(set(rows_b) - set(rows_a))
        ],
        "incomplete_a": report_a["incomplete_entries"],
        "incomplete_b": report_b["incomplete_entries"],
        "max_abs_normalized_delta": max(deltas) if deltas else 0.0,
    }
