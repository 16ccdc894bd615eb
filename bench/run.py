"""Run the repo benchmark and print every metric by name and unit.

Usage::

    python bench/run.py [--workload W] [--seed S] [--runs N | --seconds T]
                        [--trace 0|1] [--parent DIR] [-o results.json]
    python bench/run.py --write-golden [--workload W]

Every measured run simulates the whole workload in a fresh ``python``
process (``bench/child.py``), serially, so each run pays what a user pays:
imports, memo tables and tracker warm-up.  Without ``--trace`` the command
measures the end-to-end metrics over ``--runs`` untraced runs (or as many as
fit in ``--seconds``) and then the per-layer metrics from one traced run;
``--trace 0`` and ``--trace 1`` restrict it to one kind.

``--parent DIR`` names a checkout of the parent commit (with the same
``bench/``) and measures it and this tree in alternating order, one child
of each per round, with the side that goes first switching every round.
The report holds both sides; ``bench/compare.py`` claims a gain only from
such interleaved runs.

Every simulation's result digest is checked: against ``bench/golden.json``
when the seed has golden digests, otherwise against the scalar reference
engine at tiny scale.  Runs must agree with each other, and a traced run
with the untraced ones.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and the medians in
``metrics``.  The exit code is 0 when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

WORKLOAD_NAMES = ("dapper-attack", "benign-mix", "perf-attacks", "long-horizon")
DEV_SEED = 0xDA99E2
HELD_OUT_SEED = 0x5EED

#: End-to-end metrics: name -> (unit, better).  Measured with tracing off.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "requests_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Set-up-only processes per measurement, beside each full run's own
#: set-up, so that one measurement sets up several times even when it has
#: time for a single full run.
SETUP_PROBES = 4
#: A child that has not finished by then has hung; it is killed.
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    """A benchmark child process exited non-zero or printed no result."""


def child(
    root: Path, workload: str, seed: int, *flags: str,
    timeout: float | None = CHILD_TIMEOUT_S,
) -> dict:
    """Run ``bench/child.py`` of checkout ``root`` in a fresh process and
    return its result."""
    env = dict(os.environ)
    env.pop("REPRO_SIM_ENGINE", None)  # the workload names its engine
    env["PYTHONHASHSEED"] = "0"  # same string hashing, so runs repeat exactly
    command = [
        sys.executable, str(root / "bench" / "child.py"),
        "--workload", workload, "--seed", str(seed), *flags,
    ]
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True,
            timeout=timeout, cwd=root, env=env,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload}: child timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise ChildFailed(f"{workload}: child exited {proc.returncode}\n{tail}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    """Median, quartiles, max and count of one metric's samples."""
    if len(values) > 1:
        # Inclusive quartiles stay within the samples, even for two of them.
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "max": max(values),
        "n": len(values),
        "values": values,
    }


def end_to_end(runs: list[dict], setups: list[float]) -> dict:
    """The end-to-end metrics over untraced runs (median and spread)."""
    samples = {
        "wall_s": [run["wall_s"] for run in runs],
        "requests_per_s": [run["requests"] / run["wall_s"] for run in runs],
        "setup_s": setups,
        "peak_rss_mb": [run["peak_rss_mb"] for run in runs],
    }
    return {
        name: {"unit": END_TO_END[name][0], **summary(values)}
        for name, values in samples.items()
    }


def _ratio(numerator: float, denominator: float) -> float:
    # Undefined ratios (nothing to divide) read 0 rather than NaN.
    return numerator / denominator if denominator else 0.0


def per_layer(traced: dict, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced run: ``name -> (value, unit)``."""
    trace = traced["trace"]
    spans = trace["spans"]
    model = traced["model"]
    metrics: dict[str, tuple[float, str]] = {}
    for name, span in spans.items():
        calls = span["calls"]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (span["self_s"], "s")
        metrics[f"{name}.ns_per_call"] = (_ratio(span["self_s"] * 1e9, calls), "ns")
    requests = model["controller_requests"]
    metrics["mc.fast_path_share"] = (
        _ratio(requests - spans["mc.service_row"]["calls"], requests), "ratio"
    )
    metrics["trackers.on_activation.nonempty_ratio"] = (
        _ratio(trace["nonempty_responses"], spans["trackers.on_activation"]["calls"]),
        "ratio",
    )
    group_of = spans["core.rgc.group_of"]["calls"]
    metrics["core.rgc.group_of.memo_hit_ratio"] = (
        _ratio(group_of - trace["encrypt_under_group_of"], group_of), "ratio"
    )
    llc = trace["llc_replay"]
    metrics["cache.replay.ns_per_access"] = (
        _ratio(llc["seconds"] * 1e9, llc["accesses"]), "ns"
    )
    metrics["cache.replay.hit_ratio"] = (_ratio(llc["hits"], llc["accesses"]), "ratio")
    replay = trace["tracker_replay"]
    metrics["trackers.replay.ns_per_act"] = (
        _ratio(replay["seconds"] * 1e9, replay["activations"]), "ns"
    )
    for name, unit in (
        ("activations", "count"),
        ("mitigations", "count"),
        ("counter_accesses", "count"),
        ("blackout_ms", "ms"),
        ("llc_hit_ratio", "ratio"),
        ("norm_perf_mean", "ratio"),
    ):
        metrics[f"model.{name}"] = (model[name], unit)
    wall = traced["wall_s"]
    metrics["trace.overhead"] = (_ratio(wall, untraced_wall_s), "ratio")
    metrics["trace.unattributed_share"] = (
        _ratio(trace["unattributed_s"], traced["raw_wall_s"]), "ratio"
    )
    return metrics


# --------------------------------------------------------------------------- #
# Correctness
# --------------------------------------------------------------------------- #


def load_golden(root: Path = ROOT) -> dict:
    path = root / "bench" / "golden.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def digests(run: dict) -> dict[str, str | None]:
    return {sim["key"]: sim["digest"] for sim in run["simulations"]}


class Checker:
    """Counts attempted and failed simulations and collects the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, run: dict) -> None:
        """Count one run's simulations; a simulation that raised fails."""
        for sim in run["simulations"]:
            self.attempted += 1
            if sim["error"] is not None:
                self.failed += 1
                self.problems.append(f"{sim['label']}: {sim['error']}")

    def crashed(self, error: Exception) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(str(error))

    def agree(self, run: dict, reference: dict, what: str) -> None:
        """Fail every simulation of ``run`` whose digest differs."""
        want = digests(reference)
        for sim in run["simulations"]:
            if sim["error"] is None and want.get(sim["key"]) != sim["digest"]:
                self.failed += 1
                self.problems.append(f"{sim['label']}: digest differs from {what}")
        missing = set(want) - set(digests(run))
        if missing:
            self.failed += len(missing)
            self.problems.append(f"{len(missing)} simulation(s) missing vs {what}")

    @property
    def correct(self) -> bool:
        return self.failed == 0


# --------------------------------------------------------------------------- #
# Measurement
# --------------------------------------------------------------------------- #


class Side:
    """One checkout being measured: its runs and its correctness checks."""

    def __init__(self, root: Path, name: str):
        self.root = root
        self.name = name
        self.golden = load_golden(root)
        self.checker = Checker()
        self.untraced: list[dict] = []
        self.setups: list[float] = []
        self.traced: dict | None = None
        self.reference = "nothing"

    def run_untraced(self, workload: str, seed: int) -> bool:
        """One untraced run; False if the child failed."""
        try:
            result = child(self.root, workload, seed)
        except ChildFailed as error:
            self.checker.crashed(error)
            return False
        self.checker.record(result)
        if self.untraced:
            self.checker.agree(result, self.untraced[0], "the first run")
        self.untraced.append(result)
        self.setups.append(result["setup_s"])
        return True

    def probe_setup(self, workload: str, seed: int) -> None:
        try:
            self.setups.append(
                child(self.root, workload, seed, "--setup-only")["setup_s"]
            )
        except ChildFailed as error:
            self.checker.crashed(error)

    def run_traced(self, workload: str, seed: int) -> None:
        try:
            traced = child(self.root, workload, seed, "--traced")
        except ChildFailed as error:
            self.checker.crashed(error)
            return
        self.checker.record(traced)
        self.checker.agree(traced, self.untraced[0], "the untraced run")
        self.traced = traced

    def check_reference(self, workload: str, seed: int) -> None:
        """Check the first run against golden digests, or the scalar engine
        at tiny scale when the seed has none."""
        run = self.untraced[0]
        golden = self.golden
        recorded = golden.get("workloads", {}).get(workload, {}).get(hex(seed))
        if recorded is not None and golden.get("code_version") == run["code_version"]:
            self.reference = "golden digests"
            reference = {
                "simulations": [
                    {"key": key, "digest": entry["digest"]}
                    for key, entry in recorded.items()
                ]
            }
            self.checker.agree(run, reference, "the golden digest")
            return
        self.reference = "scalar engine at tiny scale"
        try:
            scalar = child(self.root, workload, seed, "--scale", "tiny",
                           "--engine", "scalar")
            fast = child(self.root, workload, seed, "--scale", "tiny")
        except ChildFailed as error:
            self.checker.crashed(error)
            return
        self.checker.record(fast)
        self.checker.agree(fast, scalar, "the scalar engine")

    def report(self, workload: str, seed: int, trace: str) -> dict:
        report: dict = {"workload": workload, "seed": seed, "side": self.name,
                        "reference": self.reference}
        if self.untraced and trace != "1":
            report["end_to_end"] = end_to_end(self.untraced, self.setups)
            report["host"] = {
                "raw_wall_s": summary([run["raw_wall_s"] for run in self.untraced]),
                "slowdown": summary([run["slowdown"] for run in self.untraced]),
            }
        if self.traced is not None:
            wall = statistics.median(run["wall_s"] for run in self.untraced)
            report["per_layer"] = {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in per_layer(self.traced, wall).items()
            }
        checker = self.checker
        report.update(
            correct=checker.correct and bool(self.untraced),
            attempted=max(1, checker.attempted),
            failed=checker.failed,
            fail_rate=checker.failed / max(1, checker.attempted),
            problems=checker.problems,
        )
        return report


def alternating(sides: list[Side], round_index: int) -> list[Side]:
    """The sides in this round's order: the first side goes first in even
    rounds and last in odd ones."""
    return sides if round_index % 2 == 0 else sides[::-1]


def measure(
    workload: str,
    seed: int,
    runs: int,
    seconds: float | None,
    trace: str,
    sides: list[Side],
) -> list[dict]:
    """Measure one workload on every side; return one report per side."""
    started = perf_counter()
    rounds = 0
    while True:
        ok = all(
            side.run_untraced(workload, seed)
            for side in alternating(sides, rounds)
        )
        rounds += 1
        if not ok or trace == "1":
            break  # with --trace 1, one untraced run: the overhead baseline
        elapsed = perf_counter() - started
        if seconds is None:
            if rounds >= runs:
                break
        elif elapsed + elapsed / rounds > seconds:
            break

    if all(side.untraced for side in sides):
        for side in sides:
            side.check_reference(workload, seed)
        if trace != "1":
            for probe in range(SETUP_PROBES):
                for side in alternating(sides, rounds + probe):
                    side.probe_setup(workload, seed)
        if trace != "0":
            for side in alternating(sides, rounds):
                side.run_traced(workload, seed)
    return [side.report(workload, seed, trace) for side in sides]


def print_report(report: dict, labelled: bool) -> None:
    name = report["workload"]
    if labelled:
        name = f"{report['side']}: {name}"
    verdict = "correct" if report["correct"] else "INCORRECT"
    print(
        f"== {name} (seed {report['seed']:#x}): {verdict}, "
        f"{report['failed']}/{report['attempted']} simulations failed "
        f"(fail_rate {report['fail_rate']:.3g}); checked against "
        f"{report['reference']}"
    )
    for problem in report["problems"][:10]:
        print(f"   ! {problem}")
    for metric, stat in report.get("end_to_end", {}).items():
        print(
            f"   {metric:<16} median {stat['median']:<12.6g} "
            f"q1 {stat['q1']:<12.6g} q3 {stat['q3']:<12.6g} "
            f"max {stat['max']:<12.6g} {stat['unit']:<4} (n={stat['n']})"
        )
    if "host" in report:
        host = report["host"]
        print(
            f"   (uncalibrated wall median {host['raw_wall_s']['median']:.6g} s; "
            f"host {host['slowdown']['median']:.3g}x slower than the reference)"
        )
    for metric, entry in report.get("per_layer", {}).items():
        print(f"   {metric:<44} {entry['value']:<14.6g} {entry['unit']}")


def result_line(reports: list[dict]) -> dict:
    """The JSON object printed last: medians of every metric measured.

    Names carry a ``<side>.`` prefix when two sides were measured and a
    ``<workload>.`` prefix when several workloads were.
    """
    sides = len({report["side"] for report in reports}) > 1
    workloads = len({report["workload"] for report in reports}) > 1
    metrics = {}
    for report in reports:
        prefix = (f"{report['side']}." if sides else "") + (
            f"{report['workload']}." if workloads else ""
        )
        for name, stat in report.get("end_to_end", {}).items():
            metrics[prefix + name] = {"value": stat["median"], "unit": stat["unit"]}
        for name, entry in report.get("per_layer", {}).items():
            metrics[prefix + name] = entry
    return {
        "correct": all(report["correct"] for report in reports),
        "attempted": sum(report["attempted"] for report in reports),
        "failed": sum(report["failed"] for report in reports),
        "metrics": metrics,
    }


def write_golden(workloads: list[str]) -> None:
    """Record scalar-engine digests for the dev and held-out seeds."""
    golden = load_golden()
    for workload in workloads:
        for seed in (DEV_SEED, HELD_OUT_SEED):
            # The scalar engine takes minutes on long-horizon: no time limit.
            run = child(ROOT, workload, seed, "--engine", "scalar", timeout=None)
            failed = [sim["label"] for sim in run["simulations"] if sim["error"]]
            if failed:
                raise ChildFailed(f"{workload}: {failed} raised")
            if golden.get("code_version") != run["code_version"]:
                golden = {"code_version": run["code_version"], "workloads": {}}
            golden["engine"] = "scalar"
            golden["workloads"].setdefault(workload, {})[hex(seed)] = {
                sim["key"]: {"label": sim["label"], "digest": sim["digest"]}
                for sim in run["simulations"]
            }
            print(f"{workload} {seed:#x}: {len(run['simulations'])} digests")
    (ROOT / "bench" / "golden.json").write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n"
    )


def parse_seed(text: str) -> int:
    """A non-negative seed, decimal or ``0x`` hexadecimal."""
    seed = int(text, 16) if text.lower().startswith("0x") else int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seeds are non-negative")
    return seed


def is_checkout(root: Path) -> bool:
    return (root / "src" / "repro" / "__init__.py").is_file() and (
        root / "bench" / "child.py"
    ).is_file()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repo benchmark (see bench/README.md)."
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=parse_seed, default=DEV_SEED)
    parser.add_argument("--runs", type=int, default=5, help="untraced runs")
    parser.add_argument(
        "--seconds", type=float,
        help="measure untraced runs for about this long instead of --runs",
    )
    parser.add_argument(
        "--trace", choices=("0", "1"),
        help="0: end-to-end metrics only; 1: per-layer metrics only",
    )
    parser.add_argument(
        "--parent", type=Path,
        help="checkout of the parent commit, measured alternately with this one",
    )
    parser.add_argument("-o", "--output", type=Path, help="write the report here")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    if not is_checkout(ROOT):
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.parent is not None and not is_checkout(args.parent.resolve()):
        parser.error(f"--parent {args.parent}: not a checkout with bench/")
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    if args.write_golden:
        write_golden(workloads)
        return 0

    roots = [("change", ROOT)]
    if args.parent is not None:
        roots.insert(0, ("parent", args.parent.resolve()))
    reports = []
    for workload in workloads:
        sides = [Side(root, name) for name, root in roots]
        for report in measure(
            workload, args.seed, args.runs, args.seconds,
            args.trace or "both", sides,
        ):
            print_report(report, labelled=len(roots) > 1)
            reports.append(report)
    if args.output is not None:
        args.output.write_text(json.dumps(
            {"seed": args.seed, "interleaved": len(roots) > 1, "reports": reports},
            indent=1,
        ) + "\n")
    line = result_line(reports)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
