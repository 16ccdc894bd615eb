"""Command-line interface for the DAPPER reproduction.

The CLI wraps the most common entry points so experiments can be launched
without writing Python:

``python -m repro.cli list-trackers``
    Show every registered RowHammer mitigation.
``python -m repro.cli list-workloads [--suite SPEC2K6]``
    Show the 57 workload profiles.
``python -m repro.cli run --tracker dapper-h --workload 429.mcf [--attack refresh]``
    Run one scenario and print normalized performance plus key statistics.
``python -m repro.cli storage``
    Regenerate the Table III storage comparison.
``python -m repro.cli security --tracker dapper-h``
    Mount a double-sided RowHammer attack with the ground-truth auditor.
``python -m repro.cli security-sweep [--trackers a,b] [--attacks x,y]``
    Audit several trackers against several hammering patterns at once.
``python -m repro.cli figure 11`` / ``python -m repro.cli table 3``
    Regenerate one figure or table of the paper (``figure --list`` shows ids).
``python -m repro.cli list-attacks``
    Show the attack kernels available to ``run --attack``.
``python -m repro.cli trace-record --workload 429.mcf --entries 10000 -o mcf.trace``
    Freeze a synthetic workload to a replayable trace file.
``python -m repro.cli sweep --trackers a,b --attacks x --workloads w [--jobs N]``
    Run a tracker x attack x workload cross-product through the sweep engine.
``python -m repro.cli scenarios list`` / ``scenarios show <family>``
    Browse the scenario catalog: named families (multi-attacker, workload
    blends, hammer-rate sweeps, fuzz, the paper's own figure batches) and
    their parameters.
``python -m repro.cli scenarios run <suite.yaml> [--jobs N]``
    Compile a YAML/JSON suite file through the catalog and execute it with
    the same caching/fan-out machinery as ``sweep`` (see docs/scenarios.md
    for the suite format).
``python -m repro.cli campaign run <suite.yaml> --store warehouse.sqlite``
    Run a suite as a named, resumable *campaign* against the experiment
    warehouse: the campaign is split into leased shards, every completed
    simulation is checkpointed, it is safe to kill at any point, and
    re-running executes only the missing scenarios.  The same command in N
    processes or on N hosts sharing the warehouse drains one campaign
    together.  ``campaign status/list/report/diff/leases`` inspect, export
    and compare saved campaigns (see docs/warehouse.md).
``python -m repro.cli store query/export/import/gc``
    Query and maintain the warehouse directly: filter/aggregate stored runs,
    export CSV/JSON, import a legacy JSON cache directory (or another
    warehouse), and delete records from older simulator code versions.
``python -m repro.cli obs trace --tracker graphene --attack refresh -o t.json``
    Run one fully instrumented scenario: write a Chrome/Perfetto trace of the
    cycle-domain events, sample the metrics time-series, print the pipeline
    profile, and optionally persist everything to a warehouse (``--store``).
    ``--suite FILE --index N`` instruments a suite scenario instead
    (see docs/observability.md).
``python -m repro.cli store metrics --store warehouse.sqlite --key PREFIX``
    Inspect (or export) the metrics time-series stored next to a run.

Global ``-v`` / ``-q`` flags raise or lower log verbosity (progress and
diagnostics go to stderr through :mod:`logging`; results stay on stdout).

Running sweeps
--------------

The ``sweep`` subcommand is the batch entry point: it expands comma-separated
tracker, attack and workload lists into the full cross-product of scenarios,
deduplicates the insecure baselines they share, fans the remaining simulations
out over ``--jobs`` worker processes, and memoizes every completed result in
the experiment warehouse (``--cache-dir``, a SQLite file, default
``.sweep-cache.sqlite``) keyed by a stable hash of the scenario and the full
system configuration.  Re-running the same
sweep -- or any other sweep, figure or benchmark that overlaps with it -- is
served from the cache; the summary reports the hit rate.  Use ``none`` in
``--attacks`` for benign (attack-free) scenarios.  A JSON report with one
entry per scenario plus the cache/parallelism summary is written to
``--output`` (default ``sweep-report.json``)::

    python -m repro.cli sweep --trackers graphene,dapper-h --attacks refresh \
        --workloads 429.mcf --jobs 2

Exit codes: 0 on success, 2 for unknown tracker/attack/workload names
(``run`` checks its names the same way).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import os
import signal
import sqlite3
import sys
import threading
import time

from repro.analysis.security_eval import (
    DEFAULT_SECURITY_ATTACKS,
    DETERMINISTIC_TRACKERS,
    format_security_table,
    security_sweep,
)
from repro.analysis.storage import storage_comparison_table
from repro.config import baseline_config, reduced_row_config
from repro.cpu.tracefile import record_workload_trace, write_trace
from repro.cpu.workloads import ALL_WORKLOADS, SUITES
from repro.eval import figures as figure_definitions
from repro.eval import tables as table_definitions
from repro.eval.report import format_table, print_figure
from repro.sim.experiment import run_workload
from repro.sim.metrics import slowdown_percent
from repro.sim.sweep import ScenarioSpec, SweepRunner
from repro.trackers.registry import available_trackers

#: Figure numbers that have a regeneration function in :mod:`repro.eval.figures`.
FIGURE_IDS = (1, 2, 3, 4, 5, 9, 10, 11, 12, 13, 14, 15, 16, 17)
#: Table numbers that have a regeneration function in :mod:`repro.eval.tables`.
TABLE_IDS = (1, 2, 3, 4)


def _horizon_flags() -> argparse.ArgumentParser:
    """Shared ``--nrh``/``--trefw-scale`` declarations.

    Passed via ``parents=`` to every subcommand that builds a
    :class:`SystemConfig` horizon, so the flags (and their defaults) are
    declared exactly once.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--nrh", type=int, default=500)
    parent.add_argument(
        "--trefw-scale",
        type=float,
        default=1.0 / 16.0,
        help="refresh-window scale used for short simulation windows",
    )
    return parent


def _engine_flag() -> argparse.ArgumentParser:
    """Shared ``--engine`` declaration (scalar / batched, event = batched)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--engine",
        choices=("scalar", "batched", "event"),
        default=None,
        help="simulation engine (default: REPRO_SIM_ENGINE or batched): "
        "scalar is the reference, batched the fast engine (event is another "
        "name for it); both are bit-identical",
    )
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DAPPER (HPCA 2025) reproduction command-line interface",
    )
    horizon = _horizon_flags()
    engine = _engine_flag()
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more log output on stderr (repeatable)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="count",
        default=0,
        help="less log output on stderr (repeatable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-trackers", help="list registered RowHammer mitigations")

    list_workloads = sub.add_parser("list-workloads", help="list workload profiles")
    list_workloads.add_argument("--suite", choices=SUITES, default=None)

    run = sub.add_parser(
        "run",
        help="run one simulation scenario",
        parents=[horizon, engine],
    )
    run.add_argument("--tracker", default="dapper-h", choices=available_trackers())
    run.add_argument("--workload", default="429.mcf")
    run.add_argument("--attack", default=None)
    run.add_argument("--requests", type=int, default=8_000)
    run.add_argument(
        "--attack-matched-baseline",
        action="store_true",
        help="normalise against a baseline that also runs the attacker",
    )

    sub.add_parser("storage", help="regenerate the Table III storage comparison")

    security = sub.add_parser(
        "security", help="RowHammer security audit under a double-sided attack"
    )
    security.add_argument("--tracker", default="dapper-h", choices=available_trackers())
    security.add_argument("--nrh", type=int, default=500)
    security.add_argument("--requests", type=int, default=3_000)

    sweep = sub.add_parser(
        "security-sweep",
        help="audit several trackers against several hammering patterns",
    )
    sweep.add_argument(
        "--trackers",
        default=",".join(DETERMINISTIC_TRACKERS),
        help="comma-separated tracker names",
    )
    sweep.add_argument(
        "--attacks",
        default=",".join(DEFAULT_SECURITY_ATTACKS),
        help="comma-separated attack names",
    )
    sweep.add_argument("--nrh", type=int, default=500)
    sweep.add_argument("--activations", type=int, default=20_000)

    figure = sub.add_parser("figure", help="regenerate one figure of the paper")
    figure.add_argument("number", nargs="?", type=int, default=None)
    figure.add_argument(
        "--list", action="store_true", help="list the figures that can be regenerated"
    )

    table = sub.add_parser("table", help="regenerate one table of the paper")
    table.add_argument("number", nargs="?", type=int, default=None)
    table.add_argument(
        "--list", action="store_true", help="list the tables that can be regenerated"
    )

    sweep_batch = sub.add_parser(
        "sweep",
        help="run a tracker x attack x workload cross-product with caching "
        "and parallel fan-out",
        parents=[horizon, engine],
    )
    sweep_batch.add_argument(
        "--trackers",
        default="dapper-h",
        help="comma-separated tracker names",
    )
    sweep_batch.add_argument(
        "--attacks",
        default="none",
        help="comma-separated attack names ('none' = benign, no attacker)",
    )
    sweep_batch.add_argument(
        "--workloads",
        default="429.mcf",
        help="comma-separated workload names",
    )
    sweep_batch.add_argument("--requests", type=int, default=4_000)
    sweep_batch.add_argument("--seed", type=int, default=None)
    sweep_batch.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes to fan simulations out over",
    )
    sweep_batch.add_argument(
        "--cache-dir",
        default=".sweep-cache.sqlite",
        help="result warehouse file ('' disables caching; 'store import' "
        "upgrades a legacy JSON cache directory)",
    )
    sweep_batch.add_argument(
        "-o",
        "--output",
        default="sweep-report.json",
        help="path of the JSON report ('-' prints it to stdout)",
    )
    sweep_batch.add_argument(
        "--attack-matched-baseline",
        action="store_true",
        help="normalise against baselines that also run the attacker",
    )

    scenarios = sub.add_parser(
        "scenarios",
        help="browse the scenario catalog and run declarative suite files",
    )
    scenarios_sub = scenarios.add_subparsers(dest="scenarios_command", required=True)
    scenarios_sub.add_parser("list", help="list the registered scenario families")
    scenarios_show = scenarios_sub.add_parser(
        "show", help="show one family's parameters and defaults"
    )
    scenarios_show.add_argument("family", help="scenario family name")
    scenarios_run = scenarios_sub.add_parser(
        "run", help="compile and execute a YAML/JSON suite file"
    )
    scenarios_run.add_argument("suite", help="path of the suite file")
    scenarios_run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes to fan simulations out over",
    )
    scenarios_run.add_argument(
        "--cache-dir",
        default=".sweep-cache.sqlite",
        help="result warehouse file ('' disables caching; 'store import' "
        "upgrades a legacy JSON cache directory)",
    )
    scenarios_run.add_argument(
        "-o",
        "--output",
        default="scenario-report.json",
        help="path of the JSON report ('-' prints it to stdout)",
    )
    scenarios_run.add_argument(
        "--dry-run",
        action="store_true",
        help="only compile the suite and list its scenarios",
    )

    campaign = sub.add_parser(
        "campaign",
        help="resumable, checkpointed execution of large scenario suites "
        "against the experiment warehouse",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    def _store_argument(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--store",
            default="warehouse.sqlite",
            help="experiment warehouse file (default warehouse.sqlite)",
        )

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
    campaign_leases = campaign_sub.add_parser(
        "leases",
        help="per-shard lease, heartbeat and attempt state of a campaign",
    )
    campaign_leases.add_argument("name", help="campaign name")
    _store_argument(campaign_leases)
    campaign_leases.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="machine-readable JSON instead of the aligned table",
    )
    campaign_status_p = campaign_sub.add_parser(
        "status", help="completion state of a saved campaign"
    )
    campaign_status_p.add_argument("name", help="campaign name")
    _store_argument(campaign_status_p)
    campaign_status_p.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="machine-readable JSON instead of the key:value lines",
    )
    campaign_list = campaign_sub.add_parser(
        "list", help="list the campaigns saved in the warehouse"
    )
    _store_argument(campaign_list)
    campaign_report_p = campaign_sub.add_parser(
        "report", help="result table of a campaign (CSV/JSON export)"
    )
    campaign_report_p.add_argument("name", help="campaign name")
    _store_argument(campaign_report_p)
    campaign_report_p.add_argument(
        "-o",
        "--output",
        default="-",
        help="output path ('-' prints an aligned table)",
    )
    campaign_report_p.add_argument(
        "--format",
        choices=("csv", "json"),
        default=None,
        help="export format (default: from the output suffix)",
    )
    campaign_report_p.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print the full report document (rows plus campaign metadata "
        "and lease state) as JSON; -o/--format export only the rows",
    )
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
    campaign_diff.add_argument(
        "-o",
        "--output",
        default="-",
        help="JSON diff output path ('-' prints a summary table)",
    )

    store_parser = sub.add_parser(
        "store", help="query, export and maintain the experiment warehouse"
    )
    store_sub = store_parser.add_subparsers(dest="store_command", required=True)

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
    store_export = store_sub.add_parser(
        "export", help="export stored runs as CSV or JSON"
    )
    _store_argument(store_export)
    _filter_arguments(store_export)
    store_export.add_argument("-o", "--output", required=True)
    store_export.add_argument(
        "--format",
        choices=("csv", "json"),
        default=None,
        help="export format (default: from the output suffix)",
    )
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
    store_gc = store_sub.add_parser(
        "gc", help="delete records left behind by other code versions"
    )
    _store_argument(store_gc)
    store_gc.add_argument(
        "--dry-run",
        action="store_true",
        help="only count the records that would be deleted",
    )
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
    store_metrics.add_argument(
        "-o",
        "--output",
        default="-",
        help="output path ('-' prints an aligned table)",
    )
    store_metrics.add_argument(
        "--format",
        choices=("csv", "json"),
        default=None,
        help="export format (default: from the output suffix)",
    )

    obs = sub.add_parser(
        "obs",
        help="instrumented runs: cycle-domain traces, metrics time-series "
        "and pipeline profiles",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_trace = obs_sub.add_parser(
        "trace",
        help="run one fully instrumented scenario and write a "
        "Chrome/Perfetto trace",
        parents=[horizon, engine],
    )
    obs_trace.add_argument(
        "--tracker", default="dapper-h", choices=available_trackers()
    )
    obs_trace.add_argument("--workload", default="429.mcf")
    obs_trace.add_argument("--attack", default=None)
    obs_trace.add_argument(
        "--requests",
        type=int,
        default=None,
        help="per-core request budget (default 4000; with --suite, "
        "overrides the suite's own budget)",
    )
    obs_trace.add_argument("--seed", type=int, default=None)
    obs_trace.add_argument(
        "--suite",
        default=None,
        help="instrument a scenario from a YAML/JSON suite file instead of "
        "building one from the flags",
    )
    obs_trace.add_argument(
        "--index",
        type=int,
        default=0,
        help="scenario index within --suite (default 0)",
    )
    obs_trace.add_argument(
        "-o",
        "--output",
        default="trace.json",
        help="Chrome-trace output path (load it in Perfetto or "
        "chrome://tracing)",
    )
    obs_trace.add_argument(
        "--metrics-interval-ns",
        type=float,
        default=100_000.0,
        help="metrics sampling interval in simulated nanoseconds",
    )
    obs_trace.add_argument(
        "--max-events",
        type=int,
        default=1_000_000,
        help="trace event cap (excess events are counted, not recorded)",
    )
    obs_trace.add_argument(
        "--store",
        default=None,
        help="also persist the run and its metrics time-series to this "
        "warehouse",
    )

    sub.add_parser("list-attacks", help="list the available attack kernels")

    trace = sub.add_parser(
        "trace-record", help="record a synthetic workload to a trace file"
    )
    trace.add_argument("--workload", default="429.mcf")
    trace.add_argument("--entries", type=int, default=10_000)
    trace.add_argument("--seed", type=int, default=None)
    trace.add_argument("-o", "--output", required=True)
    return parser


def _cmd_list_trackers() -> int:
    for name in available_trackers():
        print(name)
    return 0


def _cmd_list_workloads(suite: str | None) -> int:
    rows = [
        {
            "workload": profile.name,
            "suite": profile.suite,
            "apki": profile.apki,
            "row_locality": profile.row_locality,
            "footprint_mb": profile.footprint_bytes // (1024 * 1024),
            "memory_intensive": profile.memory_intensive,
        }
        for profile in ALL_WORKLOADS
        if suite is None or profile.suite == suite
    ]
    print(format_table(rows))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = baseline_config(nrh=args.nrh).with_refresh_window_scale(args.trefw_scale)
    # 'none' means benign, as in ``sweep --attacks``.
    attack = None if args.attack == "none" else args.attack
    error = _validate_sweep_names(
        [args.tracker], [attack or "none"], [args.workload], config
    )
    if error is not None:
        print(f"run: {error}", file=sys.stderr)
        return 2
    run = SweepRunner().run_one(
        ScenarioSpec(
            tracker=args.tracker,
            workload=args.workload,
            attack=attack,
            requests_per_core=args.requests,
            attack_matched_baseline=args.attack_matched_baseline,
            config=config,
        )
    )
    result = run.result
    print(f"tracker             : {args.tracker}")
    print(f"workload            : {args.workload}")
    print(f"attack              : {attack or 'none'}")
    print(f"RowHammer threshold : {args.nrh}")
    print(f"normalized perf     : {run.normalized:.4f} "
          f"({slowdown_percent(run.normalized):.2f}% slowdown)")
    print(f"benign IPCs         : "
          + ", ".join(f"{c.ipc:.3f}" for c in result.benign_results()))
    print(f"DRAM activations    : {result.dram_stats.activations}")
    print(f"counter traffic     : {result.dram_stats.counter_reads} reads, "
          f"{result.dram_stats.counter_writes} writes")
    print(f"mitigations         : {result.tracker_stats.mitigations_issued} "
          f"({result.tracker_stats.rows_mitigated} rows)")
    print(f"structure resets    : {result.tracker_stats.structure_resets}")
    print(f"blackout time       : {result.dram_stats.blackout_time_ns / 1e6:.3f} ms")
    return 0


def _cmd_storage() -> int:
    rows = [
        {
            "tracker": row.tracker,
            "sram_kb": round(row.sram_kb, 1),
            "cam_kb": round(row.cam_kb, 1),
            "die_area_mm2": round(row.die_area_mm2, 3),
            "paper_sram_kb": row.paper_sram_kb,
            "paper_cam_kb": row.paper_cam_kb,
        }
        for row in storage_comparison_table()
    ]
    print(format_table(rows))
    return 0


def _cmd_security(args: argparse.Namespace) -> int:
    config = reduced_row_config(nrh=args.nrh, rows_per_bank=4096)
    result = run_workload(
        config=config,
        tracker=args.tracker,
        workload="403.gcc",
        attack="rowhammer",
        requests_per_core=args.requests,
        enable_auditor=True,
    )
    report = result.security
    print(f"tracker                  : {args.tracker}")
    print(f"RowHammer threshold      : {report.nrh}")
    print(f"max per-row activations  : {report.max_count}")
    print(f"mitigations issued       : {result.tracker_stats.mitigations_issued}")
    print(f"verdict                  : {'SECURE' if report.is_secure else 'VULNERABLE'}")
    return 0 if report.is_secure or args.tracker == "none" else 1


def _cmd_security_sweep(args: argparse.Namespace) -> int:
    trackers = tuple(name for name in args.trackers.split(",") if name)
    attacks = tuple(name for name in args.attacks.split(",") if name)
    scenarios = security_sweep(
        trackers=trackers,
        attacks=attacks,
        config=baseline_config(nrh=args.nrh),
        activations=args.activations,
    )
    print(format_security_table(scenarios))
    insecure = [s for s in scenarios if not s.is_secure and s.tracker != "none"]
    return 1 if insecure else 0


def _split_names(raw: str) -> list[str]:
    return [name.strip() for name in raw.split(",") if name.strip()]


def _validate_sweep_names(
    trackers: list[str], attacks: list[str], workloads: list[str], config
) -> str | None:
    """Return an error message for the first unknown name, or ``None``."""
    from repro.attacks import available_attacks
    from repro.cpu.workloads import get_workload
    from repro.trackers.registry import create_tracker

    for tracker in trackers:
        # The registry is the single source of truth for tracker names
        # (including recursive breakhammer: composition).
        try:
            create_tracker(tracker, config)
        except ValueError as error:
            return str(error)
    known_attacks = available_attacks()
    for attack in attacks:
        if attack != "none" and attack not in known_attacks:
            return (
                f"unknown attack {attack!r}; "
                f"available: none, {', '.join(known_attacks)}"
            )
    for workload in workloads:
        try:
            get_workload(workload)
        except KeyError:
            return f"unknown workload {workload!r} (see list-workloads)"
    return None


def _cmd_sweep(args: argparse.Namespace) -> int:
    trackers = _split_names(args.trackers)
    attacks = _split_names(args.attacks)
    workloads = _split_names(args.workloads)
    if not (trackers and attacks and workloads):
        print("sweep: empty tracker/attack/workload list", file=sys.stderr)
        return 2
    config = baseline_config(nrh=args.nrh).with_refresh_window_scale(
        args.trefw_scale
    )
    error = _validate_sweep_names(trackers, attacks, workloads, config)
    if error is not None:
        print(f"sweep: {error}", file=sys.stderr)
        return 2
    specs = [
        ScenarioSpec(
            tracker=tracker,
            workload=workload,
            attack=None if attack == "none" else attack,
            seed=args.seed,
            requests_per_core=args.requests,
            attack_matched_baseline=args.attack_matched_baseline,
            config=config,
        )
        for tracker in trackers
        for attack in attacks
        for workload in workloads
    ]

    runner = SweepRunner(store=args.cache_dir or None, jobs=args.jobs)
    started = time.monotonic()
    outcomes = runner.run(specs)
    elapsed = time.monotonic() - started

    report = {
        "config": {
            "nrh": args.nrh,
            "requests_per_core": args.requests,
            "trefw_scale": args.trefw_scale,
            "seed": args.seed if args.seed is not None else config.seed,
            "attack_matched_baseline": args.attack_matched_baseline,
        },
        "scenarios": _outcome_rows(outcomes),
        "summary": _run_summary(runner.stats, args, elapsed),
    }
    _write_report(report, args.output, len(outcomes))
    _print_outcomes(outcomes, runner.stats, elapsed, args.jobs)
    return 0


def _outcome_rows(outcomes) -> list[dict]:
    """One JSON-report row per sweep outcome."""
    return [
        {
            **outcome.spec.describe(),
            "cache_key": outcome.spec.cache_key(),
            "normalized_performance": outcome.normalized,
            "slowdown_percent": slowdown_percent(outcome.normalized),
            "from_cache": outcome.from_cache,
            "baseline_from_cache": outcome.baseline_from_cache,
            "mitigations_issued": outcome.result.tracker_stats.mitigations_issued,
            "dram_activations": outcome.result.dram_stats.activations,
        }
        for outcome in outcomes
    ]


def _run_summary(stats, args: argparse.Namespace, elapsed: float) -> dict:
    return {
        "scenarios": stats.scenarios,
        "simulations": stats.simulations,
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
        "cache_hit_rate": stats.hit_rate,
        "baselines_shared": stats.baselines_shared,
        "jobs": args.jobs,
        "cache_dir": args.cache_dir or None,
        "elapsed_seconds": elapsed,
    }


def _write_report(report: dict, output: str, count: int) -> None:
    serialized = json.dumps(report, indent=2)
    if output == "-":
        print(serialized)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(serialized + "\n")
        print(f"wrote {output} ({count} scenarios)")


def _scenario_line_label(spec) -> str:
    """What a scenario ran: its attack, or its core plan for plan specs."""
    if spec.core_plan is not None:
        attackers = [a.label() for a in spec.core_plan if a.is_attacker]
        return "+".join(attackers) if attackers else "blend"
    return spec.attack or "none"


def _print_outcomes(outcomes, stats, elapsed: float, jobs: int) -> None:
    for outcome in outcomes:
        spec = outcome.spec
        origin = "cache" if outcome.from_cache else "run"
        print(
            f"{spec.tracker:<16} {spec.workload_name:<12} "
            f"{_scenario_line_label(spec):<18} {outcome.normalized:.4f} "
            f"({slowdown_percent(outcome.normalized):6.2f}% slowdown) [{origin}]"
        )
    print(
        f"simulations: {stats.simulations}  cache hits: {stats.cache_hits} "
        f"({stats.hit_rate * 100.0:.0f}%)  misses: {stats.cache_misses}  "
        f"baselines shared: {stats.baselines_shared}  "
        f"elapsed: {elapsed:.1f}s  jobs: {jobs}"
    )


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import available_families, family_by_name, load_suite
    from repro.scenarios.catalog import REQUIRED

    if args.scenarios_command == "list":
        for name in available_families():
            family = family_by_name(name)
            print(f"{name:<22} {family.description}")
        return 0

    if args.scenarios_command == "show":
        try:
            family = family_by_name(args.family)
        except ValueError as error:
            print(f"scenarios: {error}", file=sys.stderr)
            return 2
        print(f"family      : {family.name}")
        print(f"description : {family.description}")
        print("parameters  :")
        for parameter in family.parameters:
            default = (
                "(required)"
                if parameter.default is REQUIRED
                else f"default={parameter.default!r}"
            )
            doc = f"  -- {parameter.doc}" if parameter.doc else ""
            print(f"  {parameter.name:<24} {default}{doc}")
        return 0

    if args.scenarios_command == "run":
        try:
            suite = load_suite(args.suite)
            specs = suite.compile()
        except ValueError as error:
            print(f"scenarios: {error}", file=sys.stderr)
            return 2
        if args.dry_run:
            print(f"suite {suite.name!r}: {len(specs)} scenario(s)")
            for spec in specs:
                print(f"  {json.dumps(spec.describe())}")
            return 0
        runner = SweepRunner(store=args.cache_dir or None, jobs=args.jobs)
        started = time.monotonic()
        outcomes = runner.run(specs)
        elapsed = time.monotonic() - started
        report = {
            "suite": {
                "name": suite.name,
                "description": suite.description,
                "path": args.suite,
                "families": [entry.family for entry in suite.entries],
            },
            "scenarios": _outcome_rows(outcomes),
            "summary": _run_summary(runner.stats, args, elapsed),
        }
        _write_report(report, args.output, len(outcomes))
        _print_outcomes(outcomes, runner.stats, elapsed, args.jobs)
        return 0

    raise AssertionError(
        f"unhandled scenarios command {args.scenarios_command}"
    )  # pragma: no cover


def _open_store(target: str):
    """Open a ``--store`` warehouse; :class:`ValueError` when it cannot be."""
    from repro.store import open_store

    try:
        store = open_store(target)
    except (sqlite3.Error, OSError) as error:
        raise ValueError(
            f"cannot open {target} as a warehouse ({error}); a legacy JSON "
            "cache directory is upgraded with 'store import'"
        ) from None
    if store is None:
        raise ValueError("an empty --store disables the warehouse")
    return store


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


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.scenarios import load_suite
    from repro.store import (
        CampaignWorker,
        campaign_report,
        campaign_status,
        diff_campaigns,
        export_rows,
    )

    if args.campaign_command == "run":
        try:
            suite = load_suite(args.suite)
            store = _open_store(args.store)
            worker = CampaignWorker(
                args.name or suite.name,
                suite.compile(),
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
            print(f"campaign: {error}", file=sys.stderr)
            return 2
        try:
            # SIGTERM (a supervisor's shutdown) takes the same path as
            # Ctrl-C: the held lease is released promptly, not by expiry.
            # Per-shard progress and ETA are logged by the worker (tune
            # with the global -v / -q flags).  Joining happens inside run,
            # so a refused suite is exit 2 like any other worker error.
            with _sigterm_as_interrupt():
                summary = worker.run()
        except ValueError as error:
            print(f"campaign: {error}", file=sys.stderr)
            return 2
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

    if args.campaign_command == "leases":
        try:
            store = _open_store(args.store)
            from repro.store.campaign import load_manifest

            load_manifest(store, args.name)   # unknown campaign -> exit 2
        except ValueError as error:
            print(f"campaign: {error}", file=sys.stderr)
            return 2
        rows = store.lease_rows(args.name)
        if args.as_json:
            from repro.store import lease_document

            document = lease_document(rows, store.lease_summary(args.name))
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
        summary = store.lease_summary(args.name)
        print(
            f"{summary['done']}/{summary['shards']} shard(s) done, "
            f"{summary['leased']} leased, {summary['pending']} pending, "
            f"{summary['quarantined']} quarantined; "
            f"{summary['reclaims']} reclaim(s) across "
            f"{len(summary['workers'])} worker(s)"
        )
        return 0

    if args.campaign_command == "status":
        try:
            status = campaign_status(_open_store(args.store), args.name)
        except ValueError as error:
            print(f"campaign: {error}", file=sys.stderr)
            return 2
        if args.as_json:
            from repro.store import status_document

            print(json.dumps(status_document(status), indent=2, default=str))
            return 0
        print(f"campaign      : {status.name}")
        print(f"created       : {status.created_at}")
        print(f"code version  : {status.code_version} "
              f"(current {status.current_code_version})")
        print(f"source        : {status.source or '(none)'}")
        print(f"scenarios     : {status.entries_complete}/{status.entries} complete")
        print(f"simulations   : {status.simulations_stored}/"
              f"{status.simulations_total} stored ({status.percent:.0f}%)")
        print(f"state         : {'complete' if status.complete else 'resumable'}")
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

    if args.campaign_command == "list":
        try:
            store = _open_store(args.store)
        except ValueError as error:
            print(f"campaign: {error}", file=sys.stderr)
            return 2
        for name in store.campaign_names():
            status = campaign_status(store, name)
            print(
                f"{name:<28} {status.entries_complete}/{status.entries} "
                f"scenarios complete ({status.percent:.0f}%)"
            )
        return 0

    if args.campaign_command == "report":
        try:
            report = campaign_report(_open_store(args.store), args.name)
        except ValueError as error:
            print(f"campaign: {error}", file=sys.stderr)
            return 2
        if args.as_json:
            from repro.store import report_document

            print(json.dumps(report_document(report), indent=2, default=str))
            return 0
        if args.output == "-" and args.format is None:
            print(format_table(report["rows"]))
            if report["incomplete_entries"]:
                print(
                    f"note: {report['incomplete_entries']} scenario(s) not "
                    "simulated yet (campaign run resumes them)"
                )
            return 0
        export_rows(report["rows"], args.output, format=args.format)
        if args.output != "-":
            print(f"wrote {args.output} ({len(report['rows'])} rows)")
        return 0

    if args.campaign_command == "diff":
        try:
            store_a = _open_store(args.store)
            store_b = (
                _open_store(args.store_b) if args.store_b else store_a
            )
            diff = diff_campaigns(store_a, args.name_a, store_b, args.name_b)
        except ValueError as error:
            print(f"campaign: {error}", file=sys.stderr)
            return 2
        if args.output != "-":
            with open(args.output, "w", encoding="utf-8") as handle:
                json.dump(diff, handle, indent=2)
                handle.write("\n")
            print(f"wrote {args.output}")
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

    raise AssertionError(
        f"unhandled campaign command {args.campaign_command}"
    )  # pragma: no cover


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.store import (
        aggregate_rows,
        export_rows,
        gc_store,
        import_store,
        query_rows,
    )

    try:
        store = _open_store(args.store)
    except ValueError as error:
        print(f"store: {error}", file=sys.stderr)
        return 2

    if args.store_command in ("query", "export"):
        rows = query_rows(
            store,
            tracker=args.tracker,
            workload=args.workload,
            attack=args.attack,
            nrh=args.nrh,
            code_version=args.code_version,
            limit=args.limit,
            offset=args.offset,
        )
        if args.store_command == "export":
            export_rows(rows, args.output, format=args.format)
            if args.output != "-":
                print(f"wrote {args.output} ({len(rows)} rows)")
            return 0
        if args.group_by:
            try:
                rows = aggregate_rows(
                    rows, [name.strip() for name in args.group_by.split(",")]
                )
            except ValueError as error:
                print(f"store: {error}", file=sys.stderr)
                return 2
        print(format_table(rows))
        return 0

    if args.store_command == "metrics":
        keys = sorted(store.metrics_keys())
        if args.list_keys:
            for key in keys:
                print(key)
            return 0
        if not args.key:
            print("store: metrics needs --key (or --list)", file=sys.stderr)
            return 2
        matches = [key for key in keys if key.startswith(args.key)]
        if len(matches) != 1:
            problem = (
                f"{len(matches)} stored runs match"
                if matches
                else "no stored metrics match"
            )
            print(
                f"store: {problem} key prefix {args.key!r} "
                "(store metrics --list shows the keys)",
                file=sys.stderr,
            )
            return 2
        series = store.get_metrics(matches[0], metric=args.metric)
        rows = [
            {"metric": name, "t_ns": t_ns, "value": value}
            for name, points in sorted(series.items())
            for t_ns, value in points
        ]
        if args.output == "-" and args.format is None:
            print(format_table(rows))
            return 0
        export_rows(rows, args.output, format=args.format)
        if args.output != "-":
            print(f"wrote {args.output} ({len(rows)} rows)")
        return 0

    if args.store_command == "import":
        from pathlib import Path

        # Validate before opening: opening a typo'd warehouse path would
        # silently create a fresh empty warehouse there.
        source = Path(args.source) if args.source else None
        if source is None or not source.exists():
            print(
                f"store: import source {args.source!r} does not exist",
                file=sys.stderr,
            )
            return 2
        if not source.is_dir():
            # A directory is a legacy JSON cache; anything else must open
            # as another warehouse.
            try:
                source = _open_store(args.source)
            except ValueError as error:
                print(f"store: {error}", file=sys.stderr)
                return 2
        counts = import_store(store, source, overwrite=args.overwrite)
        print(
            f"imported {counts.runs} record(s), {counts.metrics} metric "
            f"series and {counts.campaigns} campaign(s) from {args.source} "
            f"({counts.skipped} already present)"
        )
        return 0

    if args.store_command == "gc":
        removed = gc_store(store, dry_run=args.dry_run)
        verb = "would delete" if args.dry_run else "deleted"
        print(f"{verb} {removed} stale record(s)")
        return 0

    raise AssertionError(
        f"unhandled store command {args.store_command}"
    )  # pragma: no cover


def _obs_spec(args: argparse.Namespace) -> ScenarioSpec:
    """The scenario ``obs trace`` instruments: suite entry or ad-hoc flags."""
    if args.suite is not None:
        from repro.scenarios import load_suite

        suite = load_suite(args.suite)
        specs = suite.compile()
        if not 0 <= args.index < len(specs):
            raise ValueError(
                f"--index {args.index} out of range: suite {suite.name!r} "
                f"has {len(specs)} scenario(s)"
            )
        spec = specs[args.index]
        if args.requests is not None:
            spec = dataclasses.replace(spec, requests_per_core=args.requests)
        return spec
    config = baseline_config(nrh=args.nrh).with_refresh_window_scale(
        args.trefw_scale
    )
    return ScenarioSpec(
        tracker=args.tracker,
        workload=args.workload,
        attack=args.attack,
        seed=args.seed,
        requests_per_core=args.requests if args.requests is not None else 4_000,
        config=config,
    )


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import MetricsSampler, PipelineProfiler, TraceRecorder

    if args.obs_command != "trace":  # pragma: no cover
        raise AssertionError(f"unhandled obs command {args.obs_command}")
    try:
        spec = _obs_spec(args)
        trace = TraceRecorder(max_events=args.max_events)
        metrics = MetricsSampler(interval_ns=args.metrics_interval_ns)
        profiler = PipelineProfiler()
        # Opened before simulating, so an unusable warehouse fails fast.
        store = _open_store(args.store) if args.store else None
    except ValueError as error:
        print(f"obs: {error}", file=sys.stderr)
        return 2
    result = spec.run(
        engine=args.engine, observers=(trace, metrics), profiler=profiler
    )

    trace.write(args.output)
    dropped = f", {trace.dropped} dropped" if trace.dropped else ""
    print(f"trace    : {args.output} ({len(trace.events)} events{dropped})")
    print(
        f"metrics  : {len(metrics.series)} series, {metrics.samples} samples "
        f"(every {args.metrics_interval_ns:g} simulated ns)"
    )
    report = profiler.report()
    print(f"profile  : {report['total_seconds']:.3f}s wall")
    for name, stage in report["stages"].items():
        print(
            f"  {name:<16} {stage['seconds']:8.3f}s "
            f"({stage['fraction'] * 100.0:5.1f}%)"
        )
    print(
        f"scenario : {json.dumps(spec.describe(), sort_keys=True)}"
    )
    print(
        f"result   : {result.dram_stats.activations} activations, "
        f"{result.tracker_stats.mitigations_issued} mitigations"
    )

    if store is not None:
        from repro.sim.sweep import ResultCache

        key = spec.cache_key()
        ResultCache(store).store(key, spec, result)
        store.put_metrics(key, metrics.to_rows())
        print(f"stored   : {key[:16]}... in {args.store}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.list or args.number is None:
        for number in FIGURE_IDS:
            function = getattr(figure_definitions, f"figure{number}")
            summary = (function.__doc__ or "").strip().splitlines()[0]
            print(f"figure {number:>2}: {summary}")
        return 0
    if args.number not in FIGURE_IDS:
        print(f"no regeneration function for figure {args.number}; "
              f"available: {', '.join(str(n) for n in FIGURE_IDS)}")
        return 2
    figure = getattr(figure_definitions, f"figure{args.number}")()
    print_figure(figure)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.list or args.number is None:
        for number in TABLE_IDS:
            function = getattr(table_definitions, f"table{number}")
            summary = (function.__doc__ or "").strip().splitlines()[0]
            print(f"table {number}: {summary}")
        return 0
    if args.number not in TABLE_IDS:
        print(f"no regeneration function for table {args.number}; "
              f"available: {', '.join(str(n) for n in TABLE_IDS)}")
        return 2
    table = getattr(table_definitions, f"table{args.number}")()
    print_figure(table)
    return 0


def _cmd_list_attacks() -> int:
    from repro.attacks import attack_by_name, available_attacks
    from repro.dram.address import AddressMapper

    config = baseline_config()
    mapper = AddressMapper(config.dram)
    for name in available_attacks():
        attack = attack_by_name(name, config.dram, mapper)
        print(f"{name:<24} {type(attack).__name__}")
    return 0


def _cmd_trace_record(args: argparse.Namespace) -> int:
    entries = record_workload_trace(
        args.workload, args.entries, config=baseline_config(), seed=args.seed
    )
    written = write_trace(
        args.output,
        entries,
        header=f"synthetic trace of {args.workload} ({args.entries} entries)",
    )
    print(f"wrote {written} entries to {args.output}")
    return 0


def _configure_logging(verbose: int, quiet: int) -> None:
    """Map the global -v/-q counters onto the root logger.

    Results stay on stdout (plain ``print``); progress and diagnostics go to
    stderr through :mod:`logging`, so piping a command's output somewhere
    never captures its chatter.  The default level is INFO -- campaign shard
    progress stays visible without any flag.
    """
    noise = verbose - quiet
    if noise > 0:
        level = logging.DEBUG
    elif noise == 0:
        level = logging.INFO
    elif noise == -1:
        level = logging.WARNING
    else:
        level = logging.ERROR
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    logger = logging.getLogger("repro")
    logger.setLevel(level)
    # Replace (don't append) so repeated main() calls in one process -- the
    # test suite, notebooks -- never double-print.
    logger.handlers[:] = [handler]


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    _configure_logging(args.verbose, args.quiet)
    # One engine selector for every simulating subcommand: the flag (from
    # the shared _engine_flag parent) overrides REPRO_SIM_ENGINE, which the
    # engine_class resolver reads wherever a simulator is constructed.
    if getattr(args, "engine", None):
        os.environ["REPRO_SIM_ENGINE"] = args.engine
    if args.command == "list-trackers":
        return _cmd_list_trackers()
    if args.command == "list-workloads":
        return _cmd_list_workloads(args.suite)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "storage":
        return _cmd_storage()
    if args.command == "security":
        return _cmd_security(args)
    if args.command == "security-sweep":
        return _cmd_security_sweep(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "scenarios":
        return _cmd_scenarios(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "store":
        return _cmd_store(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "table":
        return _cmd_table(args)
    if args.command == "list-attacks":
        return _cmd_list_attacks()
    if args.command == "trace-record":
        return _cmd_trace_record(args)
    raise AssertionError(f"unhandled command {args.command}")   # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
