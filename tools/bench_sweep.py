#!/usr/bin/env python3
"""Benchmark the sweep engine: scalar vs batched, serial vs pooled vs warm.

Runs one reference scenario suite (a tracker x attack x workload
cross-product) four ways and writes the wall-clock and cache accounting to a
JSON artifact (default ``BENCH_sweep.json``), seeding the repo's performance
trajectory:

``scalar_serial``
    Cold, cache-less, single-process execution on the reference *scalar*
    engine -- the pre-batching cost of simulating the suite.
``serial``
    The same cold single-process execution on the default batched engine.
    The two serial modes must produce bit-identical results; the benchmark
    asserts this on every run.
``pool``
    Cold execution fanned out over ``--jobs`` worker processes, filling the
    SQLite warehouse as results land.
``warm``
    The same suite again, served entirely from the warehouse: this is the
    steady-state cost of re-generating figures or resuming campaigns.

Usage::

    PYTHONPATH=src python tools/bench_sweep.py --jobs 4 -o BENCH_sweep.json

With ``--baseline committed.json`` the run additionally gates against a
committed report: the run fails if the batched engine's serial-mode speedup
over the scalar reference regressed by more than ``--max-regression``
(default 25%).  The speedup ratio is used rather than raw seconds so the
gate is insensitive to how fast the machine running the check happens to be.

The reference suite is intentionally small enough for CI while still
exercising baseline dedup, the process pool, and both attack and benign
scenarios.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.scenarios import family_by_name                    # noqa: E402
from repro.sim.sweep import CODE_VERSION, SweepRunner         # noqa: E402
from repro.store import SqliteStore                           # noqa: E402

_ENGINE_ENV = "REPRO_SIM_ENGINE"


def reference_specs(requests_per_core: int):
    """The benchmark's scenario matrix (via the scenario catalog)."""
    return family_by_name("cross-product").expand(
        {
            "trackers": ["none", "graphene", "dapper-h"],
            "attacks": ["none", "refresh"],
            "workloads": ["453.povray", "429.mcf"],
            "requests_per_core": requests_per_core,
            "geometry": "reduced",
            "nrh": 500,
        }
    )


def _run_mode(specs, runner: SweepRunner, engine: str | None = None) -> tuple[dict, list]:
    previous = os.environ.get(_ENGINE_ENV)
    if engine is not None:
        os.environ[_ENGINE_ENV] = engine
    try:
        started = time.perf_counter()
        outcomes = runner.run(specs)
        elapsed = time.perf_counter() - started
    finally:
        if engine is not None:
            if previous is None:
                os.environ.pop(_ENGINE_ENV, None)
            else:
                os.environ[_ENGINE_ENV] = previous
    return {
        "elapsed_seconds": elapsed,
        "scenarios": len(outcomes),
        "simulations": runner.stats.simulations,
        "cache_hits": runner.stats.cache_hits,
        "cache_misses": runner.stats.cache_misses,
        "cache_hit_rate": runner.stats.hit_rate,
        "baselines_shared": runner.stats.baselines_shared,
    }, outcomes


def _profile_stages(specs) -> dict[str, float]:
    """Per-stage wall time of one representative profiled simulation.

    Picks the first mitigated attack scenario of the suite (the most work per
    stage) and runs it once with a pipeline profiler attached, on the same
    fast paths an unprofiled run takes; the breakdown
    (generation / warm-up / drain / mitigation scan) lands in the report so
    stage-level cost shifts show up next to the headline speedups.
    """
    from repro.obs import PipelineProfiler

    spec = next(
        (s for s in specs if s.tracker != "none" and s.attack), specs[0]
    )
    profiler = PipelineProfiler()
    spec.run(profiler=profiler)
    report = profiler.report()
    return {
        name: stage["seconds"] for name, stage in report["stages"].items()
    }


def _longhorizon_case(tmp: Path, requests: int) -> dict:
    """Idle-heavy long-horizon case: the fast engine vs the scalar reference.

    Replays a hot-set trace (256 distinct lines, inter-access gaps far above
    the LLC hit latency) for ``requests`` accesses on one core next to idle
    cores -- the shape the fast engine's quiescent stretch executor exists
    for.  Both engines run the same spec (the fast one under its ``event``
    name, which the report's ``event_*`` fields keep); the case records
    their wall-clock and asserts bit-identical results.
    """
    import random

    from repro.cpu.trace import TraceEntry
    from repro.cpu.tracefile import write_trace

    rng = random.Random(7)
    entries = [
        TraceEntry(
            gap_instructions=rng.randint(2_500, 7_500),
            address=(1 << 20) + 64 * rng.randrange(256),
            is_write=rng.random() < 0.25,
        )
        for _ in range(16_384)
    ]
    trace_path = tmp / "longhorizon.trace"
    write_trace(trace_path, entries, header="bench: hot-set idle-heavy trace")
    # The full 32 ms window is the whole point: most of the horizon is
    # idle stretch between sparse hits, which the stretch executor skips.
    spec = family_by_name("trace-replay").expand(
        {
            "tracker": "graphene",
            "trace": str(trace_path),
            "requests_per_core": requests,
            "geometry": "reduced",
            "nrh": 500,
            "trefw_scale": 1.0,
        }
    )[0]

    def _one(engine: str):
        started = time.perf_counter()
        result = spec.run(engine=engine)
        return time.perf_counter() - started, result

    scalar_seconds, scalar_result = _one("scalar")
    event_seconds, event_result = _one("event")
    return {
        "scenario": "trace-replay (hot-set, idle-heavy)",
        "trace_entries": len(entries),
        "requests_per_core": requests,
        "scalar_seconds": scalar_seconds,
        "event_seconds": event_seconds,
        "parity": scalar_result.to_dict() == event_result.to_dict(),
        "speedup": (
            scalar_seconds / event_seconds if event_seconds > 0 else None
        ),
    }


#: Speedup ratios gated by --baseline, with a human-readable label each.
_GATED_SPEEDUPS = (
    ("speedup_batched_vs_scalar", "batched-vs-scalar"),
    ("speedup_event_vs_scalar", "event-vs-scalar (long horizon)"),
)


def check_baseline(report: dict, baseline: dict, max_regression: float) -> str | None:
    """Compare a fresh report against a committed baseline report.

    Returns an error message when a gated engine speedup over the scalar
    reference regressed by more than ``max_regression`` (a fraction: 0.25
    allows a 25% slowdown), or ``None`` when the run is acceptable.
    Reports that predate a speedup field skip that gate rather than fail,
    so the gate cannot break on schema evolution.
    """
    for field, label in _GATED_SPEEDUPS:
        current = report.get(field)
        reference = baseline.get(field)
        if not current or not reference:
            continue
        floor = reference * (1.0 - max_regression)
        if current < floor:
            return (
                f"regression: {label} speedup {current:.2f}x is below "
                f"{floor:.2f}x ({(1.0 - max_regression):.0%} of the "
                f"committed baseline's {reference:.2f}x)"
            )
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default="BENCH_sweep.json")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--requests", type=int, default=1500)
    parser.add_argument(
        "--longhorizon-requests",
        type=int,
        default=4_000_000,
        help="request budget of the idle-heavy long-horizon case (fast "
        "engine vs scalar reference)",
    )
    parser.add_argument(
        "--store",
        default=None,
        help="warehouse path (default: a temporary .sqlite file)",
    )
    parser.add_argument(
        "--allow-warm-store",
        action="store_true",
        help="proceed even if --store already holds results (the pool/warm "
        "modes then measure a pre-warmed warehouse; the report is marked)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed BENCH_sweep.json to gate against (see --max-regression)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="maximum tolerated serial-mode speedup regression vs --baseline "
        "(fraction, default 0.25 = 25%%)",
    )
    args = parser.parse_args(argv)

    store_prewarmed = False
    if args.store is not None:
        store_path = Path(args.store)
        if store_path.exists():
            existing = len(SqliteStore(store_path))
            if existing:
                if not args.allow_warm_store:
                    print(
                        f"ERROR: store {store_path} already holds {existing} "
                        "results; the pool and warm modes would measure cache "
                        "hits instead of simulation cost.  Point --store at a "
                        "fresh path, or pass --allow-warm-store to benchmark "
                        "against the pre-warmed warehouse anyway.",
                        file=sys.stderr,
                    )
                    return 2
                store_prewarmed = True
                print(
                    f"note: store {store_path} holds {existing} results; "
                    "pool/warm modes measure a pre-warmed warehouse"
                )

    specs = reference_specs(args.requests)
    print(f"reference suite: {len(specs)} scenarios, "
          f"{args.requests} requests/core")

    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(args.store) if args.store else Path(tmp) / "wh.sqlite"

        scalar_serial, scalar_outcomes = _run_mode(
            specs, SweepRunner(jobs=1), engine="scalar"
        )
        print(f"scalar serial: {scalar_serial['elapsed_seconds']:.1f}s "
              f"({scalar_serial['cache_misses']} simulations)")

        serial, batched_outcomes = _run_mode(
            specs, SweepRunner(jobs=1), engine="batched"
        )
        print(f"serial: {serial['elapsed_seconds']:.1f}s "
              f"({serial['cache_misses']} simulations)")

        mismatched = [
            outcome.spec.tracker
            for outcome, reference in zip(batched_outcomes, scalar_outcomes)
            if outcome.result.to_dict() != reference.result.to_dict()
        ]
        if mismatched:
            print(
                "ERROR: batched engine diverged from the scalar reference "
                f"on: {', '.join(mismatched)}",
                file=sys.stderr,
            )
            return 1

        store = SqliteStore(store_path)
        pool_runner = SweepRunner(store=store, jobs=args.jobs)
        pool, _ = _run_mode(specs, pool_runner)
        pool["jobs"] = args.jobs
        worker_utilization = pool_runner.worker_report()
        print(f"pool x{args.jobs}: {pool['elapsed_seconds']:.1f}s "
              f"({pool['cache_misses']} simulations)")

        warm, _ = _run_mode(specs, SweepRunner(store=store, jobs=args.jobs))
        print(f"warm warehouse: {warm['elapsed_seconds']:.2f}s "
              f"(hit rate {warm['cache_hit_rate']:.0%})")

        stage_times = _profile_stages(specs)
        top = sorted(
            stage_times.items(), key=lambda item: item[1], reverse=True
        )[:3]
        print("stage times: " + ", ".join(
            f"{name} {seconds:.2f}s" for name, seconds in top
        ))

        longhorizon = _longhorizon_case(
            Path(tmp), args.longhorizon_requests
        )
        if not longhorizon["parity"]:
            print(
                "ERROR: fast engine diverged from the scalar reference "
                "on the long-horizon case",
                file=sys.stderr,
            )
            return 1
        print(
            f"long horizon: scalar {longhorizon['scalar_seconds']:.1f}s, "
            f"event {longhorizon['event_seconds']:.1f}s "
            f"({longhorizon['speedup']:.1f}x)"
        )

    def _ratio(numerator, denominator):
        return numerator / denominator if denominator > 0 else None

    report = {
        "benchmark": "sweep-engine",
        "code_version": CODE_VERSION,
        "reference_suite": {
            "scenarios": len(specs),
            "requests_per_core": args.requests,
        },
        "store_prewarmed": store_prewarmed,
        "engine_parity": True,
        "modes": {
            "scalar_serial": scalar_serial,
            "serial": serial,
            "pool": pool,
            "warm": warm,
        },
        "speedup_batched_vs_scalar": _ratio(
            scalar_serial["elapsed_seconds"], serial["elapsed_seconds"]
        ),
        "speedup_pool_vs_serial": _ratio(
            serial["elapsed_seconds"], pool["elapsed_seconds"]
        ),
        "speedup_warm_vs_serial": _ratio(
            serial["elapsed_seconds"], warm["elapsed_seconds"]
        ),
        "longhorizon": longhorizon,
        "speedup_event_vs_scalar": longhorizon["speedup"],
        "stage_times": stage_times,
        "worker_utilization": worker_utilization,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")
    if report["speedup_batched_vs_scalar"]:
        print(f"batched vs scalar (serial): "
              f"{report['speedup_batched_vs_scalar']:.2f}x")
    if report["speedup_event_vs_scalar"]:
        print(f"event vs scalar (long horizon): "
              f"{report['speedup_event_vs_scalar']:.2f}x")

    if warm["cache_hit_rate"] < 1.0:
        print("ERROR: warm warehouse run was not fully cached", file=sys.stderr)
        return 1

    if args.baseline:
        with open(args.baseline, encoding="utf-8") as handle:
            baseline = json.load(handle)
        error = check_baseline(report, baseline, args.max_regression)
        if error:
            print(f"ERROR: {error}", file=sys.stderr)
            return 3
        reference = baseline.get("speedup_batched_vs_scalar")
        if reference:
            print(f"baseline gate passed (committed speedup {reference:.2f}x)")

    return 0


if __name__ == "__main__":
    sys.exit(main())
