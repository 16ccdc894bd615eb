"""Query, aggregate, export and maintain the experiment warehouse.

These are the read-side tools over :mod:`repro.store.backend` stores: flatten
stored runs into report rows (:func:`flatten_record`, :func:`query_rows`),
aggregate them (:func:`aggregate_rows`), format CSV/JSON exports
(:func:`export_rows`), import a legacy JSON cache directory or another
warehouse (:func:`import_store`), and garbage-collect records left behind by
older simulator code versions (:func:`gc_store`).  The ``repro.cli store``
verbs are thin wrappers around this module.
"""

from __future__ import annotations

import csv
import io
import json
import os
from collections.abc import Iterable, Iterator, Sequence
from contextlib import closing
from pathlib import Path
from typing import NamedTuple

from repro.sim.sweep import CODE_VERSION
from repro.store.backend import RunRecord, SqliteStore

#: Scenario identity columns every flattened row starts with.
IDENTITY_COLUMNS = ("tracker", "workload", "attack", "seed", "nrh")


def flatten_record(record: RunRecord) -> dict:
    """One flat report row for a stored run.

    The row starts with :data:`IDENTITY_COLUMNS`, then carries every other
    field of the stored scenario description (mitigation back-end,
    geometry, request budget, core plan, ...), so runs that differ only
    there stay distinguishable.  Metrics are extracted from the serialized
    result without rebuilding simulator objects, so flattening thousands of
    records stays cheap.
    """
    result = record.result if isinstance(record.result, dict) else {}
    core_results = result.get("core_results") or []
    benign_ipcs = [
        core.get("ipc")
        for core in core_results
        if isinstance(core, dict)
        and not core.get("is_attacker")
        and isinstance(core.get("ipc"), (int, float))
    ]
    dram = result.get("dram_stats") or {}
    tracker_stats = result.get("tracker_stats") or {}
    row = {column: record.scenario.get(column) for column in IDENTITY_COLUMNS}
    for column, value in record.scenario.items():
        if column not in row:
            row[column] = (
                "+".join(str(item) for item in value)
                if isinstance(value, list)
                else value
            )
    row.update(
        mean_benign_ipc=(
            sum(benign_ipcs) / len(benign_ipcs) if benign_ipcs else None
        ),
        dram_activations=dram.get("activations"),
        mitigations_issued=tracker_stats.get("mitigations_issued"),
        structure_resets=tracker_stats.get("structure_resets"),
        blackout_time_ns=dram.get("blackout_time_ns"),
        elapsed_seconds=record.elapsed_seconds,
        peak_memory_bytes=record.peak_memory_bytes,
        code_version=record.code_version,
        created_at=record.created_at,
        key=record.key,
    )
    return row


def query_rows(
    store: SqliteStore,
    tracker: str | None = None,
    workload: str | None = None,
    attack: str | None = None,
    nrh: int | None = None,
    code_version: str | None = None,
    limit: int | None = None,
    offset: int = 0,
) -> list[dict]:
    """Flattened rows of every stored run matching the given filters.

    Rows come back ordered by key, so ``limit`` + ``offset`` page through a
    large result set deterministically (``store query --offset``).
    """
    records = store.query(
        tracker=tracker,
        workload=workload,
        attack=attack,
        nrh=nrh,
        code_version=code_version,
        limit=limit,
        offset=offset,
    )
    return [flatten_record(record) for record in records]


def aggregate_rows(
    rows: Sequence[dict],
    group_by: Sequence[str],
    metrics: Sequence[str] = ("mean_benign_ipc", "elapsed_seconds"),
) -> list[dict]:
    """Group rows by the given columns and summarise each numeric metric.

    Every output row carries the group's key columns, its size (``runs``),
    and ``<metric>_mean`` / ``<metric>_min`` / ``<metric>_max`` for each
    requested metric (rows whose metric is missing are skipped per-metric).
    """
    if not group_by:
        raise ValueError("aggregate_rows needs at least one group_by column")
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        group = tuple(row.get(column) for column in group_by)
        groups.setdefault(group, []).append(row)
    aggregated = []
    for group, members in sorted(
        groups.items(), key=lambda item: tuple(str(value) for value in item[0])
    ):
        summary = dict(zip(group_by, group))
        summary["runs"] = len(members)
        for metric in metrics:
            values = [
                row[metric]
                for row in members
                if isinstance(row.get(metric), (int, float))
            ]
            if not values:
                continue
            summary[f"{metric}_mean"] = sum(values) / len(values)
            summary[f"{metric}_min"] = min(values)
            summary[f"{metric}_max"] = max(values)
        aggregated.append(summary)
    return aggregated


# --------------------------------------------------------------------------- #
# Export
# --------------------------------------------------------------------------- #


def _columns_of(rows: Sequence[dict]) -> list[str]:
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return columns


def rows_to_csv(rows: Sequence[dict]) -> str:
    """Serialize rows as CSV text (union of columns, in first-seen order)."""
    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer, fieldnames=_columns_of(rows) or ["empty"], lineterminator="\n"
    )
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def export_rows(
    rows: Sequence[dict],
    output: str | os.PathLike,
    format: str | None = None,
) -> str:
    """The CSV or JSON export text of ``rows``.

    ``format=None`` infers the format from the suffix of ``output``, the
    path the text is meant for (``.csv`` = CSV, anything else JSON).
    """
    if format is None:
        suffix = Path(str(output)).suffix.lower()
        format = "csv" if suffix == ".csv" else "json"
    if format not in ("csv", "json"):
        raise ValueError(f"unknown export format {format!r}; use 'csv' or 'json'")
    if format == "csv":
        return rows_to_csv(rows)
    return json.dumps(list(rows), indent=2) + "\n"


# --------------------------------------------------------------------------- #
# Import / maintenance
# --------------------------------------------------------------------------- #


def legacy_json_records(directory: str | os.PathLike) -> Iterator[RunRecord]:
    """The runs of a legacy cache directory: one ``<key>.json`` file each.

    Older code wrote every result as ``{"code_version", "scenario",
    "result"}`` (plus optional timing) under its cache key; unreadable or
    incomplete files are skipped, exactly as that cache treated them.
    """
    for path in sorted(Path(directory).glob("*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            record = RunRecord(
                key=path.stem,
                code_version=payload["code_version"],
                scenario=dict(payload.get("scenario") or {}),
                result=payload["result"],
                elapsed_seconds=payload.get("elapsed_seconds"),
                peak_memory_bytes=payload.get("peak_memory_bytes"),
                created_at=payload.get("created_at"),
            )
        except (OSError, ValueError, KeyError, TypeError):
            continue
        yield record


class ImportCounts(NamedTuple):
    """What :func:`import_store` copied, and how much it skipped."""

    runs: int
    metrics: int       # runs' metric series
    campaigns: int     # campaign manifests
    skipped: int       # items the destination already had


def import_store(
    destination: SqliteStore,
    source: "SqliteStore | str | os.PathLike",
    overwrite: bool = False,
) -> ImportCounts:
    """Copy every readable item from ``source`` into ``destination``.

    Another warehouse (an open store, or any existing path that is not a
    directory) contributes its runs, metric series and campaign manifests.
    Lease rows are not copied: the destination draws its own shard plan on
    its next ``campaign run``.  A directory ``source`` is read as a legacy
    JSON cache (:func:`legacy_json_records`) -- the one-shot upgrade path
    for caches written before the warehouse was the only backend -- and
    contributes runs only; its ``metrics/`` and ``campaigns/`` sidecars are
    not read.  A missing path raises :class:`FileNotFoundError` rather than
    being created empty.  Items the destination already has are skipped
    unless ``overwrite``.
    """
    if isinstance(source, SqliteStore):
        return _import_warehouse(destination, source, overwrite)
    if Path(source).is_dir():
        runs, skipped = _import_runs(
            destination, legacy_json_records(source), overwrite
        )
        return ImportCounts(runs, 0, 0, skipped)
    if not Path(source).exists():
        raise FileNotFoundError(f"import source {source} does not exist")
    with closing(SqliteStore(source)) as warehouse:
        return _import_warehouse(destination, warehouse, overwrite)


def _import_runs(
    destination: SqliteStore, records: Iterable[RunRecord], overwrite: bool
) -> tuple[int, int]:
    existing = destination.keys()
    imported = skipped = 0
    for record in records:
        if not overwrite and record.key in existing:
            skipped += 1
            continue
        destination.put(record)
        imported += 1
    return imported, skipped


def _import_warehouse(
    destination: SqliteStore, source: SqliteStore, overwrite: bool
) -> ImportCounts:
    runs, skipped = _import_runs(destination, list(source.records()), overwrite)
    metrics = campaigns = 0
    existing = destination.metrics_keys()
    for key in sorted(source.metrics_keys()):
        if not overwrite and key in existing:
            skipped += 1
            continue
        destination.put_metrics(key, [
            (metric, t_ns, value)
            for metric, samples in source.get_metrics(key).items()
            for t_ns, value in samples
        ])
        metrics += 1
    existing = set(destination.campaign_names())
    for name in source.campaign_names():
        if not overwrite and name in existing:
            skipped += 1
            continue
        manifest = source.load_campaign(name)
        if manifest is not None:
            destination.save_campaign(name, manifest)
            campaigns += 1
    return ImportCounts(runs, metrics, campaigns, skipped)


def gc_store(
    store: SqliteStore,
    keep_code_version: str = CODE_VERSION,
    dry_run: bool = False,
) -> int:
    """Delete (or count, with ``dry_run``) records from other code versions.

    Cache keys embed the code version, so stale records are unreachable by
    lookups -- they only waste space.  Returns how many records were (or
    would be) removed.
    """
    if dry_run:
        return store.count_other_code_versions(keep_code_version)
    return store.purge_other_code_versions(keep_code_version)
