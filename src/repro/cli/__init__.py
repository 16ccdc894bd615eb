"""Command-line interface for the DAPPER reproduction.

The CLI wraps the most common entry points so experiments can be launched
without writing Python:

``python -m repro.cli list-trackers``
    Show every registered RowHammer mitigation.
``python -m repro.cli list-workloads [--suite SPEC2K6]``
    Show the 57 workload profiles.
``python -m repro.cli run --tracker dapper-h --workload 429.mcf [--attack refresh]``
    Run one scenario and print normalized performance plus key statistics.
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
    Browse the scenario catalog: named families (multi-attacker, fuzz, the
    paper's own figure batches) and their parameters.
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
``-o -`` puts a verb's document alone on stdout and its status lines on
stderr (``campaign report`` and ``store metrics`` without ``--format``, and
``campaign diff``, print an aligned table instead).

The verb groups :mod:`repro.cli.paper`, :mod:`repro.cli.scenario` and
:mod:`repro.cli.warehouse` bind every leaf verb to its handler, which
:func:`main` calls.

Naming scenarios
----------------

Every verb that names a scenario expands a family of the scenario catalog
(:mod:`repro.scenarios`), the only code that turns names into specs:
``run``, ``obs trace`` and ``security`` the ``single`` family, and ``sweep``
``cross-product``.  An unset ``--requests`` takes the family default of
4,000 requests per core.  An unknown tracker, attack or workload name, or a
bad value such as ``--requests 0``, exits 2 before anything is simulated.

Running sweeps
--------------

The ``sweep`` subcommand is the batch entry point: it expands comma-separated
tracker, attack and workload lists into the full cross-product of scenarios,
deduplicates the insecure baselines they share, fans the remaining simulations
out over ``--jobs`` worker processes, and memoizes every completed result in
the experiment warehouse (``--cache-dir``, a SQLite file, default
``.sweep-cache.sqlite``) keyed by a stable hash of the scenario and the full
system configuration.  Re-running the same
sweep -- or any other sweep, suite, figure or benchmark that overlaps with
it -- is served from the cache; the summary reports the hit rate.  Use
``none`` in ``--attacks`` for benign (attack-free) scenarios.  A JSON report
with one entry per scenario plus the cache/parallelism summary is written to
``--output`` (default ``sweep-report.json``)::

    python -m repro.cli sweep --trackers graphene,dapper-h --attacks refresh \
        --workloads 429.mcf --jobs 2

``sweep`` and ``scenarios run`` share one batch path; Ctrl-C ends either with
one line on stderr and exit code 130.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from repro.cli import paper, scenario, warehouse
from repro.cli.paper import FIGURE_IDS, TABLE_IDS

__all__ = ["FIGURE_IDS", "TABLE_IDS", "main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DAPPER (HPCA 2025) reproduction command-line interface",
    )
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
    for group in (paper, scenario, warehouse):
        group.register(sub)
    return parser


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
    # One engine selector for every simulating subcommand: the --engine
    # scenario flag overrides REPRO_SIM_ENGINE, which the engine_class
    # resolver reads wherever a simulator is constructed.
    if getattr(args, "engine", None):
        os.environ["REPRO_SIM_ENGINE"] = args.engine
    return args.handler(args)
