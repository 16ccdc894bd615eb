"""One measured run of one workload, meant to run in a fresh process.

Usage::

    python bench/child.py --workload dapper-attack --seed 14326242 \\
        [--scale full|tiny] [--engine scalar|batched|event] [--traced] \\
        [--setup-only]

A fresh process pays every cost a user pays: importing ``repro``, building
the workload's generators and memo tables (the LLC warm-up memo, the LLBC
group memos) and warming the trackers.  The run prints one JSON object as
its last line: the set-up and simulation wall times, peak RSS, the digest of
every simulation and the simulated-model totals; a ``--traced`` run adds the
span aggregates and the layer replays.  ``bench/run.py`` starts these
processes and aggregates them.

Set-up is timed from the first line of this file to the first simulation:
imports, expanding the scenario specs and writing/parsing trace files.  Run
as a script, the process samples the host speed from its first lines on, so
set-up is calibrated by the speed the host had while it set up, and the
simulation by the speed while it simulated (``bench/calibration.py``).
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
from contextlib import nullcontext  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import HostSpeed  # noqa: E402

#: Host-speed samples of this process's set-up.
SETUP_SPEED = HostSpeed(arrays=False)
if __name__ == "__main__":
    SETUP_SPEED.start()

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.sim.experiment import run_workload  # noqa: E402
from repro.sim.sweep import CODE_VERSION  # noqa: E402

from tracer import CallRecorder, SpanTracer  # noqa: E402
from workloads import SCALES, WORKLOADS, simulations  # noqa: E402


def digest(result) -> str:
    """SHA-256 of the sorted-key JSON of a ``SimulationResult``."""
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def label(spec) -> str:
    """Readable identity of one simulation (for reports, not for matching)."""
    rows = spec.resolved_config().dram.rows_per_bank
    return (
        f"{spec.tracker} / {spec.attack or 'no attack'} / "
        f"{spec.workload_name} / {rows} rows per bank"
    )


def simulate(spec, engine: str):
    """Run one scenario exactly as a sweep worker does, on ``engine``."""
    return run_workload(
        config=spec.resolved_config(),
        tracker=spec.tracker,
        workload=spec.workload if spec.core_plan is not None
        else spec.resolved_workload(),
        attack=spec.attack,
        requests_per_core=spec.requests_per_core,
        seed=spec.resolved_seed(),
        enable_auditor=spec.enable_auditor,
        attack_warmup_activations=spec.attack_warmup_activations,
        llc_warmup_accesses=spec.llc_warmup_accesses,
        core_plan=spec.core_plan,
        engine=engine,
    )


def _model(specs, plan, results) -> dict:
    """Simulated-system totals over every simulation (deterministic)."""
    done = [results[key] for key, _ in plan if key in results]
    hits = sum(r.llc_stats.hits for r in done)
    accesses = sum(r.llc_stats.hits + r.llc_stats.misses for r in done)
    normalized = []
    for spec in specs:
        measured = results.get(spec.cache_key())
        baseline = results.get(spec.baseline_spec().cache_key())
        if measured is not None and baseline is not None:
            normalized.append(spec.normalized_against(measured, baseline))
    return {
        "activations": sum(r.dram_stats.activations for r in done),
        "mitigations": sum(
            r.controller_stats.mitigation_refreshes
            + r.controller_stats.group_mitigations
            for r in done
        ),
        "counter_accesses": sum(
            r.controller_stats.tracker_counter_accesses for r in done
        ),
        "blackout_ms": sum(r.dram_stats.blackout_time_ns for r in done) / 1e6,
        "llc_hit_ratio": hits / accesses if accesses else 0.0,
        "norm_perf_mean": sum(normalized) / len(normalized) if normalized else 0.0,
        "controller_requests": sum(r.controller_stats.requests for r in done),
    }


def replay_tracker(recorder: CallRecorder) -> dict:
    """Replay the recorded calls into a fresh tracker; check the responses.

    Raises ``RuntimeError`` on any mismatch, so a tracker whose behaviour
    depends on something other than its call sequence fails the run instead
    of reporting a meaningless time.
    """
    from repro.trackers.registry import create_tracker

    calls = recorder.calls
    activations = sum(1 for call in calls if call[0])
    if recorder.target is None or not activations:
        return {"activations": 0, "seconds": 0.0}
    fresh = create_tracker(recorder.tracker_name, recorder.target.config)
    on_activation = fresh.on_activation
    on_refresh_window = fresh.on_refresh_window
    responses = []
    append = responses.append
    started = perf_counter()
    for is_activation, first, second, _ in calls:
        if is_activation:
            append(on_activation(first, second))
        else:
            on_refresh_window(first, second)
    seconds = perf_counter() - started
    recorded = [call[3] for call in calls if call[0]]
    for index, (want, got) in enumerate(zip(recorded, responses)):
        if _response_key(want) != _response_key(got):
            raise RuntimeError(
                f"tracker replay diverged at activation {index}: "
                f"recorded {want!r}, replayed {got!r}"
            )
    return {"activations": activations, "seconds": seconds}


def _response_key(response) -> tuple:
    # GroupMitigation carries a membership predicate (a closure), which does
    # not compare by value; its geometry fields identify it.
    return (
        response.counter_reads,
        response.counter_writes,
        tuple(response.mitigations),
        tuple(
            (g.channel, g.rank, g.num_rows, g.rows_per_bank, g.reason)
            for g in response.group_mitigations
        ),
        tuple(response.blackouts),
    )


def replay_llc(workload, specs, seed: int, accesses: int) -> dict:
    """Stream a fixed generator's accesses through a fresh ``SharedLLC``.

    The batched engines inline the LLC hit path, so the LLC's own cost is
    measured here, on ``SharedLLC.access``, outside the simulation.
    """
    from repro.cache.llc import SharedLLC
    from repro.cpu.trace import WorkloadTraceGenerator
    from repro.cpu.tracefile import FileTraceGenerator
    from repro.cpu.workloads import get_workload
    from repro.dram.address import AddressMapper

    config = specs[0].resolved_config()
    if workload.replay_profile is None:
        trace = next(a for a in specs[0].core_plan if a.role == "trace")
        generator = FileTraceGenerator(trace.trace_info().entries)
    else:
        generator = WorkloadTraceGenerator(
            get_workload(workload.replay_profile),
            config.dram,
            AddressMapper(config.dram),
            core_id=1,
            seed=seed,
        )
    _, addresses, writes = generator.next_batch(accesses)
    llc = SharedLLC(config.llc)
    access = llc.access
    started = perf_counter()
    for address, is_write in zip(addresses, writes):
        access(address, is_write, 1)
    seconds = perf_counter() - started
    return {
        "accesses": accesses,
        "seconds": seconds,
        "hits": llc.stats.hits,
    }


def run(
    workload_name: str,
    seed: int,
    scale: str = "full",
    engine: str | None = None,
    traced: bool = False,
    setup_only: bool = False,
    work_dir: Path | None = None,
    started: float | None = None,
    setup_speed: HostSpeed | None = None,
) -> dict:
    """Set up and simulate one workload; return the run's measurements.

    ``started`` is when set-up began and ``setup_speed`` the host-speed
    sampler running since then; by default set-up starts now and is
    calibrated by one kernel pass taken after it.
    """
    started = perf_counter() if started is None else started
    setup_speed = HostSpeed(arrays=False) if setup_speed is None else setup_speed
    workload = WORKLOADS[workload_name]
    engine = engine or workload.engine
    work_dir = work_dir or ROOT / ".bench_work"
    specs = workload.build(seed, SCALES[scale], work_dir)
    plan = simulations(specs)
    raw_setup_s = setup_speed.clock() - started
    setup_speed.stop()
    out = {
        "code_version": CODE_VERSION,
        "workload": workload_name,
        "seed": seed,
        "scale": scale,
        "engine": engine,
        "raw_setup_s": raw_setup_s,
        "setup_s": setup_speed.scale(raw_setup_s),
    }
    if setup_only:
        return out

    speed = HostSpeed()
    tracer = (
        SpanTracer(CallRecorder(workload.replay_tracker), clock=speed.clock)
        if traced else None
    )
    results: dict = {}
    errors: dict = {}
    with (
        tracer.installed() if tracer is not None else nullcontext(),
        speed.sampling(),
    ):
        begin = speed.clock()
        for key, spec in plan:
            try:
                results[key] = simulate(spec, engine)
            except Exception as error:  # counted as a failed simulation
                errors[key] = f"{type(error).__name__}: {error}"
        raw_wall_s = speed.clock() - begin

    out.update(
        wall_s=speed.scale(raw_wall_s),
        raw_wall_s=raw_wall_s,
        slowdown=speed.slowdown(),
        kernel_samples=len(speed.samples),
        requests=sum(
            core.requests
            for result in results.values()
            for core in result.core_results
        ),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        simulations=[
            {
                "key": key,
                "label": label(spec),
                "digest": digest(results[key]) if key in results else None,
                "error": errors.get(key),
            }
            for key, spec in plan
        ],
        model=_model(specs, plan, results),
    )
    if tracer is not None:
        out["trace"] = {
            "spans": tracer.totals(),
            "unattributed_s": raw_wall_s - tracer.top_level_s(),
            "encrypt_under_group_of": tracer.calls_under(
                "crypto.llbc.encrypt", "core.rgc.group_of"
            ),
            "nonempty_responses": tracer.nonempty_responses,
            "tracker_replay": replay_tracker(tracer.recorder),
            "llc_replay": replay_llc(
                workload, specs, seed, SCALES[scale].llc_replay
            ),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=lambda text: int(text, 0), required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--engine", choices=("scalar", "batched", "event"))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    out = run(
        args.workload,
        args.seed,
        scale=args.scale,
        engine=args.engine,
        traced=args.traced,
        setup_only=args.setup_only,
        started=STARTED,
        setup_speed=SETUP_SPEED,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
