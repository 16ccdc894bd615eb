"""The warehouse verbs: ``campaign`` runs, inspects, exports and compares
campaigns, and ``store`` queries and maintains the warehouse directly."""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
import threading
from pathlib import Path

from repro.cli.common import _open_store, _output_argument, _refuse, _write_output
from repro.eval.report import format_table
from repro.scenarios import load_suite
from repro.store import (
    CampaignWorker,
    aggregate_rows,
    campaign_report,
    campaign_status,
    diff_campaigns,
    export_rows,
    gc_store,
    import_store,
    query_rows,
)
from repro.store.campaign import load_manifest
from repro.store.worker import check_worker_arguments


def _store_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default="warehouse.sqlite",
        help="experiment warehouse file (default warehouse.sqlite)",
    )


def _json_argument(parser: argparse.ArgumentParser, text: str) -> None:
    parser.add_argument("--json", action="store_true", dest="as_json", help=text)


def _format_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("csv", "json"),
        default=None,
        help="export format (default: from the output suffix)",
    )


def _filter_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tracker", default=None)
    parser.add_argument("--workload", default=None)
    parser.add_argument("--attack", default=None)
    parser.add_argument("--nrh", type=int, default=None)
    parser.add_argument(
        "--code-version",
        default=None,
        help="filter by simulator code version",
    )
    parser.add_argument("--limit", type=int, default=None)
    parser.add_argument(
        "--offset",
        type=int,
        default=0,
        help="skip this many rows (stable key order, so --limit/--offset "
        "paginate deterministically)",
    )


def register(sub) -> None:
    """Add the ``campaign`` and ``store`` verbs to the top parser's
    subcommands."""
    campaign = sub.add_parser(
        "campaign",
        help="resumable, checkpointed execution of large scenario suites "
        "against the experiment warehouse",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    campaign_run = campaign_sub.add_parser(
        "run",
        help="run or resume a campaign from a YAML/JSON suite file (the "
        "same command in several processes or hosts drains it together)",
    )
    campaign_run.add_argument("suite", help="path of the suite file")
    campaign_run.add_argument(
        "--name",
        default=None,
        help="campaign name (default: the suite's own name)",
    )
    _store_argument(campaign_run)
    campaign_run.add_argument(
        "--worker-id",
        default=None,
        help="lease holder identity (default <hostname>-<pid>)",
    )
    campaign_run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes to fan this process's simulations out over",
    )
    campaign_run.add_argument(
        "--shard-size",
        type=int,
        default=32,
        help="simulations per leased shard (only the first process's plan "
        "is used; later joiners adopt it)",
    )
    campaign_run.add_argument(
        "--lease-duration",
        type=float,
        default=60.0,
        help="seconds a claimed shard stays leased without a heartbeat "
        "(expired leases are reclaimed by the other processes or a rerun)",
    )
    campaign_run.add_argument(
        "--force",
        action="store_true",
        help="replace the saved manifest and its shard plan when the "
        "scenario set changed (and retry quarantined shards)",
    )
    campaign_run.add_argument(
        "--track-memory",
        action="store_true",
        help="record per-run peak memory with tracemalloc (slows simulation "
        "down severalfold; strictly opt-in)",
    )
    campaign_run.set_defaults(handler=_cmd_campaign_run)

    campaign_leases = campaign_sub.add_parser(
        "leases",
        help="per-shard lease, heartbeat and attempt state of a campaign",
    )
    campaign_leases.add_argument("name", help="campaign name")
    _store_argument(campaign_leases)
    _json_argument(
        campaign_leases, "machine-readable JSON instead of the aligned table"
    )
    campaign_leases.set_defaults(handler=_cmd_campaign_leases)

    campaign_status_p = campaign_sub.add_parser(
        "status", help="completion state of a saved campaign"
    )
    campaign_status_p.add_argument("name", help="campaign name")
    _store_argument(campaign_status_p)
    _json_argument(
        campaign_status_p, "machine-readable JSON instead of the key:value lines"
    )
    campaign_status_p.set_defaults(handler=_cmd_campaign_status)

    campaign_list = campaign_sub.add_parser(
        "list", help="list the campaigns saved in the warehouse"
    )
    _store_argument(campaign_list)
    campaign_list.set_defaults(handler=_cmd_campaign_list)

    campaign_report_p = campaign_sub.add_parser(
        "report", help="result table of a campaign (CSV/JSON export)"
    )
    campaign_report_p.add_argument("name", help="campaign name")
    _store_argument(campaign_report_p)
    _output_argument(
        campaign_report_p, "-", "output path ('-' prints an aligned table)"
    )
    _format_argument(campaign_report_p)
    _json_argument(
        campaign_report_p,
        "print the full report document (rows plus campaign metadata and "
        "lease state) as JSON; -o/--format export only the rows",
    )
    campaign_report_p.set_defaults(handler=_cmd_campaign_report)

    campaign_diff = campaign_sub.add_parser(
        "diff",
        help="per-metric deltas between two campaigns (or code versions)",
    )
    campaign_diff.add_argument("name_a", help="first campaign name")
    campaign_diff.add_argument("name_b", help="second campaign name")
    _store_argument(campaign_diff)
    campaign_diff.add_argument(
        "--store-b",
        default=None,
        help="warehouse holding the second campaign (default: --store)",
    )
    _output_argument(
        campaign_diff, "-", "JSON diff output path ('-' prints a summary table)"
    )
    campaign_diff.set_defaults(handler=_cmd_campaign_diff)

    store_parser = sub.add_parser(
        "store", help="query, export and maintain the experiment warehouse"
    )
    store_sub = store_parser.add_subparsers(dest="store_command", required=True)

    store_query = store_sub.add_parser(
        "query", help="filter and aggregate stored runs"
    )
    _store_argument(store_query)
    _filter_arguments(store_query)
    store_query.add_argument(
        "--group-by",
        default=None,
        help="comma-separated columns to aggregate over "
        "(e.g. tracker,workload)",
    )
    store_query.set_defaults(handler=_on_store(_cmd_store_query))

    store_export = store_sub.add_parser(
        "export", help="export stored runs as CSV or JSON"
    )
    _store_argument(store_export)
    _filter_arguments(store_export)
    _output_argument(store_export, None, "export path ('-' prints it to stdout)")
    _format_argument(store_export)
    store_export.set_defaults(handler=_on_store(_cmd_store_export))

    store_import = store_sub.add_parser(
        "import",
        help="import a legacy JSON cache directory (runs only) or another "
        "warehouse (runs, metric series and campaign manifests) into --store",
    )
    store_import.add_argument(
        "source", help="legacy JSON cache directory or warehouse file"
    )
    _store_argument(store_import)
    store_import.add_argument(
        "--overwrite",
        action="store_true",
        help="replace items that already exist in the destination",
    )
    store_import.set_defaults(handler=_on_store(_cmd_store_import))

    store_gc = store_sub.add_parser(
        "gc", help="delete records left behind by other code versions"
    )
    _store_argument(store_gc)
    store_gc.add_argument(
        "--dry-run",
        action="store_true",
        help="only count the records that would be deleted",
    )
    store_gc.set_defaults(handler=_on_store(_cmd_store_gc))

    store_metrics = store_sub.add_parser(
        "metrics",
        help="inspect the metrics time-series stored next to a run",
    )
    _store_argument(store_metrics)
    store_metrics.add_argument(
        "--key",
        default=None,
        help="run key (a unique prefix is enough)",
    )
    store_metrics.add_argument(
        "--metric",
        default=None,
        help="only this metric (default: every series of the run)",
    )
    store_metrics.add_argument(
        "--list",
        action="store_true",
        dest="list_keys",
        help="list the run keys that have metrics stored",
    )
    _output_argument(
        store_metrics, "-", "output path ('-' prints an aligned table)"
    )
    _format_argument(store_metrics)
    store_metrics.set_defaults(handler=_on_store(_cmd_store_metrics))


def _write_rows(rows: list[dict], args: argparse.Namespace) -> None:
    """Export ``rows`` to ``-o`` as CSV or JSON (``--format``, else the
    suffix of ``-o``)."""
    _write_output(
        args.output,
        export_rows(rows, args.output, format=args.format),
        f"wrote {args.output} ({len(rows)} rows)",
    )


@contextlib.contextmanager
def _sigterm_as_interrupt():
    """Treat SIGTERM like Ctrl-C for the duration of the block.

    ``campaign run`` processes are shut down by process supervisors
    (systemd, batch schedulers, ``kill``) with SIGTERM; routing it through
    the ``KeyboardInterrupt`` path means a terminated process releases its
    held lease immediately instead of making a rerun or the rest of the
    fleet wait out the lease expiry.  Signal handlers can only be installed
    on the main thread; on any other thread (the in-process test suite)
    this is a no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _handler(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    try:
        suite = load_suite(args.suite)
        # Checked before the store is opened: a refused command line leaves
        # no new warehouse file behind.
        specs = suite.compile()
        name = check_worker_arguments(args.name or suite.name, args.lease_duration)
        store = _open_store(args.store)
        worker = CampaignWorker(
            name,
            specs,
            store,
            worker_id=args.worker_id,
            jobs=args.jobs,
            shard_size=args.shard_size,
            lease_duration=args.lease_duration,
            force=args.force,
            source=str(args.suite),
            description=suite.description,
            track_memory=args.track_memory,
        )
    except ValueError as error:
        return _refuse("campaign", error)
    try:
        # SIGTERM (a supervisor's shutdown) takes the same path as
        # Ctrl-C: the held lease is released promptly, not by expiry.
        # Per-shard progress and ETA are logged by the worker (tune
        # with the global -v / -q flags).  Joining happens inside run,
        # so a refused suite is exit 2 like any other worker error.
        with _sigterm_as_interrupt():
            summary = worker.run()
    except ValueError as error:
        return _refuse("campaign", error)
    except KeyboardInterrupt:
        print(
            f"\ncampaign {worker.name!r} interrupted -- the held shard "
            "was released and completed simulations are checkpointed; "
            "rerun the same command to resume",
            file=sys.stderr,
        )
        return 130
    print(
        f"campaign {summary.campaign!r}: {summary.simulations} unique "
        f"simulations ({summary.already_stored} already stored, "
        f"{summary.executed} executed), {summary.completed}/"
        f"{summary.shards} shard(s) completed here by "
        f"{summary.worker_id!r} ({summary.reclaimed} reclaimed, "
        f"{summary.lost} lost, {summary.failed} failed) in "
        f"{summary.elapsed_seconds:.1f}s"
    )
    leases = store.lease_summary(worker.name)
    if leases is not None and leases["quarantined"]:
        print(
            f"warning: {leases['quarantined']} shard(s) quarantined "
            "after repeated failures -- see 'campaign leases "
            f"{worker.name}'; rerun with --force to retry them",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_campaign_leases(args: argparse.Namespace) -> int:
    try:
        store = _open_store(args.store)
        load_manifest(store, args.name)   # unknown campaign -> exit 2
    except ValueError as error:
        return _refuse("campaign", error)
    rows = store.lease_rows(args.name)
    summary = store.lease_summary(args.name)
    if args.as_json:
        shards = [
            {
                "shard": row.shard,
                "keys": len(row.keys),
                "state": row.state,
                "worker": row.worker,
                "deadline": row.deadline,
                "heartbeats": row.heartbeats,
                "attempts": row.attempts,
                "reclaims": row.reclaims,
                "last_error": row.last_error,
                "acquired_at": row.acquired_at,
                "completed_at": row.completed_at,
            }
            for row in rows
        ]
        document = {"shards": shards, "summary": summary}
        print(json.dumps(document, indent=2, default=str))
        return 0
    if not rows:
        print(
            f"campaign {args.name!r}: no lease rows (no 'campaign run' "
            "has written its shard plan)"
        )
        return 0
    print(format_table([
        {
            "shard": row.shard,
            "keys": len(row.keys),
            "state": row.state,
            "worker": row.worker or "-",
            "deadline": (
                f"{row.deadline:.1f}" if row.deadline is not None else "-"
            ),
            "heartbeats": row.heartbeats,
            "attempts": row.attempts,
            "reclaims": row.reclaims,
            "last_error": row.last_error or "-",
        }
        for row in rows
    ]))
    print(
        f"{summary['done']}/{summary['shards']} shard(s) done, "
        f"{summary['leased']} leased, {summary['pending']} pending, "
        f"{summary['quarantined']} quarantined; "
        f"{summary['reclaims']} reclaim(s) across "
        f"{len(summary['workers'])} worker(s)"
    )
    return 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    try:
        status = campaign_status(_open_store(args.store), args.name)
    except ValueError as error:
        return _refuse("campaign", error)
    state = "complete" if status.complete else "resumable"
    if args.as_json:
        document = {
            "name": status.name,
            "created_at": status.created_at,
            "code_version": status.code_version,
            "current_code_version": status.current_code_version,
            "source": status.source,
            "entries": status.entries,
            "entries_complete": status.entries_complete,
            "simulations_total": status.simulations_total,
            "simulations_stored": status.simulations_stored,
            "percent": status.percent,
            "state": state,
            "leases": status.leases,
        }
        print(json.dumps(document, indent=2, default=str))
        return 0
    print(f"campaign      : {status.name}")
    print(f"created       : {status.created_at}")
    print(f"code version  : {status.code_version} "
          f"(current {status.current_code_version})")
    print(f"source        : {status.source or '(none)'}")
    print(f"scenarios     : {status.entries_complete}/{status.entries} complete")
    print(f"simulations   : {status.simulations_stored}/"
          f"{status.simulations_total} stored ({status.percent:.0f}%)")
    print(f"state         : {state}")
    leases = status.leases
    if leases:
        print(
            f"shards        : {leases['done']}/{leases['shards']} done "
            f"({leases['leased']} leased, {leases['pending']} pending, "
            f"{leases['quarantined']} quarantined)"
        )
        print(
            f"reclaimed     : {leases['reclaims']} shard claim(s) took "
            "over an expired lease"
        )
        for name, counts in leases["workers"].items():
            active = " (active)" if counts["active"] else ""
            print(
                f"worker        : {name}: {counts['completed']} "
                f"shard(s) completed{active}"
            )
    return 0


def _cmd_campaign_list(args: argparse.Namespace) -> int:
    try:
        store = _open_store(args.store)
    except ValueError as error:
        return _refuse("campaign", error)
    for name in store.campaign_names():
        status = campaign_status(store, name)
        print(
            f"{name:<28} {status.entries_complete}/{status.entries} "
            f"scenarios complete ({status.percent:.0f}%)"
        )
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    try:
        report = campaign_report(_open_store(args.store), args.name)
    except ValueError as error:
        return _refuse("campaign", error)
    if args.as_json:
        print(json.dumps(report, indent=2, default=str))
        return 0
    if args.output == "-" and args.format is None:
        print(format_table(report["rows"]))
        if report["incomplete_entries"]:
            print(
                f"note: {report['incomplete_entries']} scenario(s) not "
                "simulated yet (campaign run resumes them)"
            )
        return 0
    _write_rows(report["rows"], args)
    return 0


def _cmd_campaign_diff(args: argparse.Namespace) -> int:
    try:
        store_a = _open_store(args.store)
        store_b = _open_store(args.store_b) if args.store_b else store_a
        diff = diff_campaigns(store_a, args.name_a, store_b, args.name_b)
    except ValueError as error:
        return _refuse("campaign", error)
    if args.output != "-":
        _write_output(
            args.output, json.dumps(diff, indent=2) + "\n", f"wrote {args.output}"
        )
    rows = [
        {
            **row["scenario"],
            "normalized_a": row["a"]["normalized_performance"],
            "normalized_b": row["b"]["normalized_performance"],
            "delta": row["delta"]["normalized_performance"],
        }
        for row in diff["rows"]
    ]
    print(format_table(rows))
    print(
        f"matched {diff['matched']} scenario(s); "
        f"only in {args.name_a}: {len(diff['only_in_a'])}, "
        f"only in {args.name_b}: {len(diff['only_in_b'])}; "
        f"max |delta normalized|: {diff['max_abs_normalized_delta']:.6f}"
    )
    return 0


def _on_store(command):
    """A ``store`` verb's handler: ``command(args, store)`` on the opened
    ``--store`` warehouse, or exit 2 when it cannot be opened."""

    def handler(args: argparse.Namespace) -> int:
        try:
            store = _open_store(args.store)
        except ValueError as error:
            return _refuse("store", error)
        return command(args, store)

    return handler


def _query(args: argparse.Namespace, store) -> list[dict]:
    """The stored runs that ``store query`` and ``store export`` select."""
    return query_rows(
        store,
        tracker=args.tracker,
        workload=args.workload,
        attack=args.attack,
        nrh=args.nrh,
        code_version=args.code_version,
        limit=args.limit,
        offset=args.offset,
    )


def _cmd_store_query(args: argparse.Namespace, store) -> int:
    rows = _query(args, store)
    if args.group_by:
        try:
            rows = aggregate_rows(
                rows, [name.strip() for name in args.group_by.split(",")]
            )
        except ValueError as error:
            return _refuse("store", error)
    print(format_table(rows))
    return 0


def _cmd_store_export(args: argparse.Namespace, store) -> int:
    _write_rows(_query(args, store), args)
    return 0


def _cmd_store_metrics(args: argparse.Namespace, store) -> int:
    keys = sorted(store.metrics_keys())
    if args.list_keys:
        for key in keys:
            print(key)
        return 0
    if not args.key:
        return _refuse("store", "metrics needs --key (or --list)")
    matches = [key for key in keys if key.startswith(args.key)]
    if len(matches) != 1:
        problem = (
            f"{len(matches)} stored runs match"
            if matches
            else "no stored metrics match"
        )
        return _refuse(
            "store",
            f"{problem} key prefix {args.key!r} "
            "(store metrics --list shows the keys)",
        )
    series = store.get_metrics(matches[0], metric=args.metric)
    rows = [
        {"metric": name, "t_ns": t_ns, "value": value}
        for name, points in sorted(series.items())
        for t_ns, value in points
    ]
    if args.output == "-" and args.format is None:
        print(format_table(rows))
        return 0
    _write_rows(rows, args)
    return 0


def _cmd_store_import(args: argparse.Namespace, store) -> int:
    # Validate before opening: opening a typo'd warehouse path would
    # silently create a fresh empty warehouse there.
    source = Path(args.source) if args.source else None
    if source is None or not source.exists():
        return _refuse("store", f"import source {args.source!r} does not exist")
    if not source.is_dir():
        # A directory is a legacy JSON cache; anything else must open
        # as another warehouse.
        try:
            source = _open_store(args.source)
        except ValueError as error:
            return _refuse("store", error)
    counts = import_store(store, source, overwrite=args.overwrite)
    print(
        f"imported {counts.runs} record(s), {counts.metrics} metric "
        f"series and {counts.campaigns} campaign(s) from {args.source} "
        f"({counts.skipped} already present)"
    )
    return 0


def _cmd_store_gc(args: argparse.Namespace, store) -> int:
    removed = gc_store(store, dry_run=args.dry_run)
    verb = "would delete" if args.dry_run else "deleted"
    print(f"{verb} {removed} stale record(s)")
    return 0
