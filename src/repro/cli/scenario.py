"""The scenario verbs: ``run``, ``security``, ``security-sweep``, ``sweep``,
``scenarios``, ``obs trace`` and ``trace-record``."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from repro.analysis.security_eval import (
    DEFAULT_SECURITY_ATTACKS,
    DETERMINISTIC_TRACKERS,
    format_security_table,
    security_sweep,
)
from repro.cli.common import _open_store, _output_argument, _refuse, _write_output
from repro.config import baseline_config
from repro.cpu.tracefile import format_trace, record_workload_trace
from repro.cpu.workloads import ALL_WORKLOADS
from repro.obs import MetricsSampler, PipelineProfiler, TraceRecorder
from repro.scenarios import (
    DEFAULT_TREFW_SCALE,
    available_families,
    family_by_name,
    load_suite,
)
from repro.scenarios.catalog import REQUIRED
from repro.sim.metrics import slowdown_percent
from repro.sim.sweep import ResultCache, ScenarioSpec, SweepRunner

#: Every flag that names part of a scenario, declared once.  A verb takes the
#: ones it uses through :func:`_scenario_flags`.  Each flag's destination is
#: the catalog parameter it sets (``--engine`` sets none), and an unset flag
#: (``None``) leaves the family's default; :func:`_flag_specs` relies on both.
_SCENARIO_FLAGS = {
    "--tracker": dict(default="dapper-h", help="tracker name (see list-trackers)"),
    "--workload": dict(default="429.mcf", help="workload name (see list-workloads)"),
    "--attack": dict(default=None, help="attack name ('none' = benign, the default)"),
    "--nrh": dict(type=int, default=500),
    "--trefw-scale": dict(
        type=float,
        default=DEFAULT_TREFW_SCALE,
        help="refresh-window scale used for short simulation windows",
    ),
    "--requests": dict(
        type=int,
        default=None,
        dest="requests_per_core",
        metavar="N",
        help="per-core request budget (default 4000, the catalog's; with "
        "obs trace --suite, overrides the suite's own budget)",
    ),
    "--seed": dict(type=int, default=None),
    "--attack-matched-baseline": dict(
        action="store_true",
        help="normalise against baselines that also run the attacker",
    ),
    "--engine": dict(
        choices=("scalar", "batched", "event"),
        default=None,
        help="simulation engine (default: REPRO_SIM_ENGINE or batched): "
        "scalar is the reference, batched the fast engine (event is another "
        "name for it); both are bit-identical",
    ),
}


def _scenario_flags(*flags: str) -> argparse.ArgumentParser:
    """A parent parser holding the named :data:`_SCENARIO_FLAGS`."""
    parent = argparse.ArgumentParser(add_help=False)
    for flag in flags:
        parent.add_argument(flag, **_SCENARIO_FLAGS[flag])
    return parent


def _batch_flags(output: str) -> argparse.ArgumentParser:
    """The flags of a verb that runs a batch through :func:`_run_batch`."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes to fan simulations out over",
    )
    parent.add_argument(
        "--cache-dir",
        default=".sweep-cache.sqlite",
        help="result warehouse file ('' disables caching; 'store import' "
        "upgrades a legacy JSON cache directory)",
    )
    _output_argument(
        parent, output, "path of the JSON report ('-' prints it to stdout)"
    )
    return parent


def register(sub) -> None:
    """Add the scenario verbs to the top parser's subcommands."""
    sub.add_parser(
        "run",
        help="run one simulation scenario (the catalog's single family)",
        parents=[
            _scenario_flags(
                "--tracker",
                "--workload",
                "--attack",
                "--nrh",
                "--trefw-scale",
                "--requests",
                "--attack-matched-baseline",
                "--engine",
            )
        ],
    ).set_defaults(handler=_cmd_run)

    sub.add_parser(
        "security",
        help="RowHammer security audit under a double-sided attack",
        parents=[_scenario_flags("--tracker", "--nrh", "--requests")],
    ).set_defaults(handler=_cmd_security)

    security = sub.add_parser(
        "security-sweep",
        help="audit several trackers against several hammering patterns",
        parents=[_scenario_flags("--nrh")],
    )
    security.add_argument(
        "--trackers",
        default=",".join(DETERMINISTIC_TRACKERS),
        help="comma-separated tracker names",
    )
    security.add_argument(
        "--attacks",
        default=",".join(DEFAULT_SECURITY_ATTACKS),
        help="comma-separated attack names",
    )
    security.add_argument("--activations", type=int, default=20_000)
    security.set_defaults(handler=_cmd_security_sweep)

    sweep = sub.add_parser(
        "sweep",
        help="run a tracker x attack x workload cross-product with caching "
        "and parallel fan-out (the catalog's cross-product family)",
        parents=[
            _scenario_flags(
                "--nrh",
                "--trefw-scale",
                "--requests",
                "--seed",
                "--attack-matched-baseline",
                "--engine",
            ),
            _batch_flags("sweep-report.json"),
        ],
    )
    sweep.add_argument(
        "--trackers",
        default="dapper-h",
        help="comma-separated tracker names",
    )
    sweep.add_argument(
        "--attacks",
        default="none",
        help="comma-separated attack names ('none' = benign, no attacker)",
    )
    sweep.add_argument(
        "--workloads",
        default="429.mcf",
        help="comma-separated workload names",
    )
    sweep.set_defaults(handler=_cmd_sweep)

    scenarios = sub.add_parser(
        "scenarios",
        help="browse the scenario catalog and run declarative suite files",
    )
    scenarios_sub = scenarios.add_subparsers(dest="scenarios_command", required=True)
    scenarios_sub.add_parser(
        "list", help="list the registered scenario families"
    ).set_defaults(handler=_cmd_scenarios_list)
    scenarios_show = scenarios_sub.add_parser(
        "show", help="show one family's parameters and defaults"
    )
    scenarios_show.add_argument("family", help="scenario family name")
    scenarios_show.set_defaults(handler=_cmd_scenarios_show)
    scenarios_run = scenarios_sub.add_parser(
        "run",
        help="compile and execute a YAML/JSON suite file",
        parents=[_batch_flags("scenario-report.json")],
    )
    scenarios_run.add_argument("suite", help="path of the suite file")
    scenarios_run.add_argument(
        "--dry-run",
        action="store_true",
        help="only compile the suite and list its scenarios",
    )
    scenarios_run.set_defaults(handler=_cmd_scenarios_run)

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
        parents=[
            _scenario_flags(
                "--tracker",
                "--workload",
                "--attack",
                "--nrh",
                "--trefw-scale",
                "--requests",
                "--seed",
                "--engine",
            )
        ],
    )
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
    _output_argument(
        obs_trace,
        "trace.json",
        "Chrome-trace output path (load it in Perfetto or chrome://tracing; "
        "'-' prints it to stdout)",
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
    obs_trace.set_defaults(handler=_cmd_obs_trace)

    trace = sub.add_parser(
        "trace-record", help="record a synthetic workload to a trace file"
    )
    trace.add_argument("--workload", default="429.mcf")
    trace.add_argument("--entries", type=int, default=10_000)
    trace.add_argument("--seed", type=int, default=None)
    _output_argument(trace, None, "trace file path ('-' prints it to stdout)")
    trace.set_defaults(handler=_cmd_trace_record)


def _split_names(raw: str) -> list[str]:
    return [name.strip() for name in raw.split(",") if name.strip()]


def _flag_specs(
    args: argparse.Namespace, family: str = "single", **fixed
) -> list[ScenarioSpec]:
    """Expand a catalog family from a verb's scenario flags.

    This is the only place a command line becomes specs.  Every flag set on
    ``args`` whose destination the family declares as a parameter is passed
    on (an unset ``--requests`` leaves the family's default budget), and
    ``fixed`` adds the parameters the verb sets itself.  Raises
    ``ValueError`` for an unknown name or a bad value, before anything is
    simulated.
    """
    recipe = family_by_name(family)
    params = {
        name: value
        for name, value in vars(args).items()
        if name in recipe.parameter_names() and value is not None
    }
    return recipe.expand({**params, **fixed})


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        (spec,) = _flag_specs(args)
    except ValueError as error:
        return _refuse("run", error)
    run = SweepRunner().run_one(spec)
    result = run.result
    print(f"tracker             : {spec.tracker}")
    print(f"workload            : {spec.workload}")
    print(f"attack              : {spec.attack or 'none'}")
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


def _cmd_security(args: argparse.Namespace) -> int:
    # The audit's fixed scenario: a double-sided hammer next to 403.gcc on
    # the reduced row space, over the full refresh window.  The auditor
    # counts every activation from the first, so the tracker is not warmed.
    try:
        (spec,) = _flag_specs(
            args,
            workload="403.gcc",
            attack="rowhammer",
            geometry="reduced",
            trefw_scale=1.0,
        )
    except ValueError as error:
        return _refuse("security", error)
    result = dataclasses.replace(
        spec, enable_auditor=True, attack_warmup_activations=0
    ).run()
    report = result.security
    print(f"tracker                  : {args.tracker}")
    print(f"RowHammer threshold      : {report.nrh}")
    print(f"max per-row activations  : {report.max_count}")
    print(f"mitigations issued       : {result.tracker_stats.mitigations_issued}")
    print(f"verdict                  : {'SECURE' if report.is_secure else 'VULNERABLE'}")
    return 0 if report.is_secure or args.tracker == "none" else 1


def _cmd_security_sweep(args: argparse.Namespace) -> int:
    try:
        scenarios = security_sweep(
            trackers=tuple(_split_names(args.trackers)),
            attacks=tuple(_split_names(args.attacks)),
            config=baseline_config(nrh=args.nrh),
            activations=args.activations,
        )
    except ValueError as error:
        return _refuse("security-sweep", error)
    print(format_security_table(scenarios))
    insecure = [s for s in scenarios if not s.is_secure and s.tracker != "none"]
    return 1 if insecure else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        specs = _flag_specs(
            args,
            "cross-product",
            trackers=_split_names(args.trackers),
            attacks=_split_names(args.attacks),
            workloads=_split_names(args.workloads),
        )
    except ValueError as error:
        return _refuse("sweep", error)
    config = {
        "nrh": args.nrh,
        "requests_per_core": specs[0].requests_per_core,
        "trefw_scale": args.trefw_scale,
        "seed": specs[0].resolved_seed(),
        "attack_matched_baseline": args.attack_matched_baseline,
    }
    return _run_batch("sweep", specs, args, config=config)


def _scenario_line_label(spec) -> str:
    """What a scenario ran: its attack, or its core plan for plan specs."""
    if spec.core_plan is not None:
        attackers = [a.label() for a in spec.core_plan if a.is_attacker]
        return "+".join(attackers) if attackers else "blend"
    return spec.attack or "none"


def _run_batch(verb: str, specs, args: argparse.Namespace, **header) -> int:
    """Run a batch through the sweep engine: ``sweep`` and ``scenarios run``.

    Writes the JSON report (``header``, then one row per scenario, then the
    cache/parallelism summary) and prints one line per scenario plus a
    summary line.  Ctrl-C ends the batch with one line on stderr and exit
    code 130, the shell's code for a SIGINT exit.
    """
    runner = SweepRunner(store=args.cache_dir or None, jobs=args.jobs)
    started = time.monotonic()
    try:
        outcomes = runner.run(specs)
    except KeyboardInterrupt:
        resume = (
            " -- completed simulations are stored; rerun the same command to "
            "resume"
            if args.cache_dir
            else ""
        )
        print(f"\n{verb} interrupted{resume}", file=sys.stderr)
        return 130
    elapsed = time.monotonic() - started
    stats = runner.stats
    report = {
        **header,
        "scenarios": [
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
        ],
        "summary": {
            "scenarios": stats.scenarios,
            "simulations": stats.simulations,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
            "cache_hit_rate": stats.hit_rate,
            "baselines_shared": stats.baselines_shared,
            "jobs": args.jobs,
            "cache_dir": args.cache_dir or None,
            "elapsed_seconds": elapsed,
        },
    }
    status = _write_output(
        args.output,
        json.dumps(report, indent=2) + "\n",
        f"wrote {args.output} ({len(outcomes)} scenarios)",
    )
    for outcome in outcomes:
        spec = outcome.spec
        origin = "cache" if outcome.from_cache else "run"
        print(
            f"{spec.tracker:<16} {spec.workload_name:<12} "
            f"{_scenario_line_label(spec):<18} {outcome.normalized:.4f} "
            f"({slowdown_percent(outcome.normalized):6.2f}% slowdown) [{origin}]",
            file=status,
        )
    print(
        f"simulations: {stats.simulations}  cache hits: {stats.cache_hits} "
        f"({stats.hit_rate * 100.0:.0f}%)  misses: {stats.cache_misses}  "
        f"baselines shared: {stats.baselines_shared}  "
        f"elapsed: {elapsed:.1f}s  jobs: {args.jobs}",
        file=status,
    )
    return 0


def _cmd_scenarios_list(args: argparse.Namespace) -> int:
    for name in available_families():
        family = family_by_name(name)
        print(f"{name:<22} {family.description}")
    return 0


def _cmd_scenarios_show(args: argparse.Namespace) -> int:
    try:
        family = family_by_name(args.family)
    except ValueError as error:
        return _refuse("scenarios", error)
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


def _cmd_scenarios_run(args: argparse.Namespace) -> int:
    try:
        suite = load_suite(args.suite)
        specs = suite.compile()
    except ValueError as error:
        return _refuse("scenarios", error)
    if args.dry_run:
        print(f"suite {suite.name!r}: {len(specs)} scenario(s)")
        for spec in specs:
            print(f"  {json.dumps(spec.describe())}")
        return 0
    suite_header = {
        "name": suite.name,
        "description": suite.description,
        "path": args.suite,
        "families": [entry.family for entry in suite.entries],
    }
    return _run_batch("scenarios run", specs, args, suite=suite_header)


def _obs_spec(args: argparse.Namespace) -> ScenarioSpec:
    """The scenario ``obs trace`` instruments: suite entry or flags."""
    if args.suite is None:
        (spec,) = _flag_specs(args)
        return spec
    suite = load_suite(args.suite)
    specs = suite.compile()
    if not 0 <= args.index < len(specs):
        raise ValueError(
            f"--index {args.index} out of range: suite {suite.name!r} "
            f"has {len(specs)} scenario(s)"
        )
    spec = specs[args.index]
    if args.requests_per_core is not None:
        spec = dataclasses.replace(spec, requests_per_core=args.requests_per_core)
    return spec


def _cmd_obs_trace(args: argparse.Namespace) -> int:
    try:
        spec = _obs_spec(args)
        trace = TraceRecorder(max_events=args.max_events)
        metrics = MetricsSampler(interval_ns=args.metrics_interval_ns)
        profiler = PipelineProfiler()
        # Opened before simulating, so an unusable warehouse fails fast.
        store = _open_store(args.store) if args.store else None
    except ValueError as error:
        return _refuse("obs", error)
    result = spec.run(
        engine=args.engine, observers=(trace, metrics), profiler=profiler
    )

    dropped = f", {trace.dropped} dropped" if trace.dropped else ""
    status = _write_output(
        args.output,
        json.dumps(trace.chrome_trace()) + "\n",
        f"trace    : {args.output} ({len(trace.events)} events{dropped})",
    )
    print(
        f"metrics  : {len(metrics.series)} series, {metrics.samples} samples "
        f"(every {args.metrics_interval_ns:g} simulated ns)",
        file=status,
    )
    report = profiler.report()
    print(f"profile  : {report['total_seconds']:.3f}s wall", file=status)
    for name, stage in report["stages"].items():
        print(
            f"  {name:<16} {stage['seconds']:8.3f}s "
            f"({stage['fraction'] * 100.0:5.1f}%)",
            file=status,
        )
    print(f"scenario : {json.dumps(spec.describe(), sort_keys=True)}", file=status)
    print(
        f"result   : {result.dram_stats.activations} activations, "
        f"{result.tracker_stats.mitigations_issued} mitigations",
        file=status,
    )

    if store is not None:
        key = spec.cache_key()
        ResultCache(store).store(key, spec, result)
        store.put_metrics(key, metrics.to_rows())
        print(f"stored   : {key[:16]}... in {args.store}", file=status)
    return 0


def _cmd_trace_record(args: argparse.Namespace) -> int:
    if args.workload not in {profile.name for profile in ALL_WORKLOADS}:
        return _refuse(
            "trace-record",
            f"unknown workload {args.workload!r} (see `repro.cli list-workloads`)",
        )
    if args.entries < 1:
        return _refuse("trace-record", f"--entries must be >= 1, got {args.entries}")
    entries = record_workload_trace(
        args.workload, args.entries, config=baseline_config(), seed=args.seed
    )
    header = f"synthetic trace of {args.workload} ({args.entries} entries)"
    _write_output(
        args.output,
        format_trace(entries, header=header),
        f"wrote {len(entries)} entries to {args.output}",
    )
    return 0
