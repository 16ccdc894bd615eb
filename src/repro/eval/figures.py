"""Experiment definitions for every performance figure in the paper.

Each ``figureN`` function runs the simulations behind the corresponding
figure and returns a :class:`~repro.eval.report.FigureData` whose rows are the
series the paper plots.  All functions accept ``workloads`` /
``requests_per_core`` / ``nrh_values`` arguments so the benchmark harness can
trade accuracy against runtime; the defaults are the "quick" settings used by
``benchmarks/``.  Every simulated figure also takes ``sweep``, the
:class:`~repro.sim.sweep.SweepRunner` that executes its batch (a fresh,
cache-less one by default).

Three methodology notes (see EXPERIMENTS.md for the full discussion):

* Motivation figures (1-5) report slowdowns relative to the insecure,
  attack-free baseline, so they include the attack's own bandwidth cost --
  that is what the paper's 60-90% numbers mean.
* Mitigation-overhead figures (9-17) report slowdowns relative to an
  *attack-matched* insecure baseline, isolating the overhead added by the
  mitigation itself (the paper's sub-1% DAPPER-H numbers are only meaningful
  under this normalisation).
* Experiments that require the mapping-agnostic *streaming* attack to sweep
  the whole row space use the reduced-row configuration
  (:func:`repro.config.reduced_row_config`).
"""

from __future__ import annotations

from repro.cpu.workloads import get_workload
from repro.eval.report import FigureData
from repro.scenarios import family_by_name
from repro.scenarios.families import (
    MOTIVATION_TRACKERS,
    default_workloads,
    figure5_series,
    figure13_series,
    figure14_series,
    figure17_series,
    mapping_agnostic_series,
    motivation_series,
    paper_batch,
    paper_figure12_series,
    probabilistic_series,
)
from repro.sim.sweep import ScenarioSpec, SweepRunner

#: RowHammer thresholds swept by figure 4.
MOTIVATION_NRH_SWEEP: tuple[int, ...] = (500, 1000, 2000, 4000)


# --------------------------------------------------------------------------- #
# Every figure is one scenario batch (repro.scenarios.families.paper_batch,
# or a registered ``paper-*`` family built on it) executed through a
# SweepRunner, which deduplicates shared insecure baselines across the batch
# and, given a cache directory or warehouse, replays previously simulated
# scenarios.  Pass ``sweep=SweepRunner(cache_dir=..., jobs=...)`` to any
# figure to parallelise or cache its regeneration, or one runner to several
# figures so they share simulations; suite files that reference the same
# ``paper-*`` families share the cache entries.
# --------------------------------------------------------------------------- #


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _mean_figure(
    name: str,
    title: str,
    column: str,
    steps,
    series,
    workloads: list[str],
    specs: list[ScenarioSpec],
    sweep: SweepRunner | None,
) -> FigureData:
    """A figure with one row per step and series label: the label's mean
    normalized performance over the workloads.  ``specs`` is the batch in
    ``paper_batch`` order (steps x ``series(step)`` x workloads)."""
    figure = FigureData(name=name, title=title)
    outcomes = iter((sweep or SweepRunner()).run(specs))
    for step in steps:
        for label, *_ in series(step):
            values = [next(outcomes).normalized for _ in workloads]
            figure.add(
                **{column: step},
                series=label,
                normalized_performance=_mean(values),
            )
    return figure


def _nrh_figure(
    name: str,
    title: str,
    note: str,
    series,
    workloads: list[str] | None,
    requests_per_core: int,
    nrh_values: tuple[int, ...],
    sweep: SweepRunner | None,
) -> FigureData:
    """A mean-row figure over NRH steps whose batch is ``paper_batch`` of
    ``series`` on the first three default workloads unless given."""
    workloads = workloads or default_workloads(1)[:3]
    specs = paper_batch(nrh_values, series, workloads, requests_per_core)
    figure = _mean_figure(
        name, title, "nrh", nrh_values, series, workloads, specs, sweep
    )
    figure.notes.append(note)
    return figure


# --------------------------------------------------------------------------- #
# Motivation figures (Section III)
# --------------------------------------------------------------------------- #


def _figure3_batch(
    workloads: list[str], requests_per_core: int, nrh: int
) -> list[ScenarioSpec]:
    """``paper-figure3``: per workload, cache thrashing and then each
    tailored Perf-Attack, in :func:`motivation_series` order."""
    return family_by_name("paper-figure3").expand(
        {"workloads": workloads, "requests_per_core": requests_per_core, "nrh": nrh}
    )


def figure1(
    workloads: list[str] | None = None,
    requests_per_core: int = 8_000,
    nrh: int = 500,
    sweep: SweepRunner | None = None,
) -> FigureData:
    """Figure 1: per-suite normalized performance of the four scalable
    trackers under their tailored Perf-Attacks, versus cache thrashing."""
    workloads = workloads or default_workloads(1)
    figure = FigureData(
        name="figure1",
        title="Normalized performance under Perf-Attacks vs cache thrashing "
        f"(NRH={nrh})",
    )
    series = motivation_series()
    specs = _figure3_batch(workloads, requests_per_core, nrh)
    outcomes = iter((sweep or SweepRunner()).run(specs))
    by_suite: dict[str, dict[str, list[float]]] = {}
    for workload in workloads:
        suite = get_workload(workload).suite
        for label, _, _ in series:
            by_suite.setdefault(suite, {}).setdefault(label, []).append(
                next(outcomes).normalized
            )
    for suite, values in by_suite.items():
        for label, normals in values.items():
            figure.add(
                suite=suite,
                series=label,
                normalized_performance=sum(normals) / len(normals),
                workloads=len(normals),
            )
    # Overall average ("All" bar of the paper's figure).
    for label, _, _ in series:
        all_values = [
            row["normalized_performance"]
            for row in figure.rows
            if row["series"] == label
        ]
        figure.add(
            suite="All",
            series=label,
            normalized_performance=sum(all_values) / len(all_values),
            workloads=len(workloads),
        )
    figure.notes.append(
        "Paper reports 60-90% slowdowns for tailored Perf-Attacks and ~40% "
        "for cache thrashing at NRH=500."
    )
    return figure


def figure2(
    workload: str = "470.lbm",
    requests_per_core: int = 8_000,
    nrh: int = 500,
    sweep: SweepRunner | None = None,
) -> FigureData:
    """Figure 2 (qualitative): the mechanism each tailored attack exploits.

    Reports, per tracker, the extra in-DRAM counter traffic and the structure
    reset blackout time the attack induces.
    """
    figure = FigureData(
        name="figure2",
        title="Attack mechanics: counter traffic and reset blackouts",
    )
    # Figure 3's batch for one workload, without its cache-thrashing row.
    tracked = [
        spec
        for spec in _figure3_batch([workload], requests_per_core, nrh)
        if spec.tracker in MOTIVATION_TRACKERS
    ]
    for outcome in (sweep or SweepRunner()).run(tracked):
        stats = outcome.result.dram_stats
        activations = max(1, stats.activations)
        figure.add(
            tracker=outcome.spec.tracker,
            attack=outcome.spec.attack,
            counter_accesses_per_kilo_act=1000.0
            * (stats.counter_reads + stats.counter_writes)
            / activations,
            structure_resets=outcome.result.tracker_stats.structure_resets,
            blackout_ms=stats.blackout_time_ns / 1e6,
            normalized_performance=outcome.normalized,
        )
    figure.notes.append(
        "Hydra/START are hurt through counter traffic; CoMeT/ABACUS through "
        "full-structure reset refreshes."
    )
    return figure


def figure3(
    workloads: list[str] | None = None,
    requests_per_core: int = 8_000,
    nrh: int = 500,
    sweep: SweepRunner | None = None,
) -> FigureData:
    """Figure 3: per-workload normalized performance under cache thrashing
    and tailored Perf-Attacks for the four scalable trackers."""
    workloads = workloads or default_workloads(1)
    figure = FigureData(
        name="figure3",
        title=f"Per-workload impact of Perf-Attacks (NRH={nrh})",
    )
    series = motivation_series()
    specs = _figure3_batch(workloads, requests_per_core, nrh)
    outcomes = iter((sweep or SweepRunner()).run(specs))
    for workload in workloads:
        memory_intensive = get_workload(workload).memory_intensive
        for label, _, _ in series:
            figure.add(
                workload=workload,
                memory_intensive=memory_intensive,
                series=label,
                normalized_performance=next(outcomes).normalized,
            )
    return figure


def figure4(
    workloads: list[str] | None = None,
    requests_per_core: int = 6_000,
    nrh_values: tuple[int, ...] = MOTIVATION_NRH_SWEEP,
    sweep: SweepRunner | None = None,
) -> FigureData:
    """Figure 4: sensitivity of the Perf-Attacks to the RowHammer threshold."""
    workloads = workloads or default_workloads(1)[:3]
    specs = family_by_name("paper-figure4").expand(
        {
            "workloads": workloads,
            "requests_per_core": requests_per_core,
            "nrh_values": nrh_values,
        }
    )
    figure = _mean_figure(
        "figure4",
        "Perf-Attack slowdowns as NRH varies",
        "nrh",
        nrh_values,
        lambda nrh: motivation_series(),
        workloads,
        specs,
        sweep,
    )
    figure.notes.append(
        "Paper: even at NRH=4K the tailored attacks cost 46-71% vs ~41% for "
        "cache thrashing."
    )
    return figure


def figure5(
    workloads: list[str] | None = None,
    requests_per_core: int = 6_000,
    llc_sizes_mb: tuple[int, ...] = (2, 3, 4, 5),
    nrh: int = 500,
    sweep: SweepRunner | None = None,
) -> FigureData:
    """Figure 5: sensitivity to per-core LLC size on the 8-channel system."""
    workloads = workloads or default_workloads(1)[:3]

    def series(llc_mb):
        return figure5_series(llc_mb, nrh)

    return _mean_figure(
        "figure5",
        "Perf-Attacks on the large system as per-core LLC size varies",
        "per_core_llc_mb",
        llc_sizes_mb,
        series,
        workloads,
        paper_batch(
            llc_sizes_mb, series, workloads, requests_per_core, matched_baselines=False
        ),
        sweep,
    )


# --------------------------------------------------------------------------- #
# DAPPER-S / DAPPER-H figures (Sections V and VI)
# --------------------------------------------------------------------------- #


def _mapping_agnostic_batch(
    tracker: str, workloads: list[str], requests_per_core: int, nrh: int
) -> list[ScenarioSpec]:
    """Per workload, ``tracker`` under the streaming and then the refresh
    attack, each against its attack-matched baseline."""
    return paper_batch(
        [nrh],
        lambda nrh: mapping_agnostic_series(tracker, nrh),
        workloads,
        requests_per_core,
        by_workload=True,
    )


def figure9(
    workloads: list[str] | None = None,
    requests_per_core: int = 8_000,
    nrh: int = 500,
    sweep: SweepRunner | None = None,
) -> FigureData:
    """Figure 9: DAPPER-S under the two mapping-agnostic attacks, per suite."""
    workloads = workloads or default_workloads(1)
    figure = FigureData(
        name="figure9",
        title="Performance overhead of DAPPER-S under mapping-agnostic attacks",
    )
    specs = _mapping_agnostic_batch("dapper-s", workloads, requests_per_core, nrh)
    outcomes = iter((sweep or SweepRunner()).run(specs))
    labels = [label for label, *_ in mapping_agnostic_series("dapper-s", nrh)]
    by_suite: dict[str, dict[str, list[float]]] = {}
    for workload in workloads:
        suite = get_workload(workload).suite
        for label in labels:
            overhead = (1.0 - next(outcomes).normalized) * 100.0
            by_suite.setdefault(suite, {}).setdefault(label, []).append(overhead)
    for suite, values in by_suite.items():
        for label, overheads in values.items():
            figure.add(
                suite=suite,
                attack=label,
                overhead_percent=sum(overheads) / len(overheads),
            )
    for label in labels:
        all_values = [
            row["overhead_percent"]
            for row in figure.rows
            if row["attack"] == label
        ]
        figure.add(
            suite="All",
            attack=label,
            overhead_percent=sum(all_values) / len(all_values),
        )
    figure.notes.append(
        "Paper: streaming costs DAPPER-S ~13% and the refresh attack ~20%."
    )
    return figure


def figure10(
    workloads: list[str] | None = None,
    requests_per_core: int = 8_000,
    nrh: int = 500,
    sweep: SweepRunner | None = None,
) -> FigureData:
    """Figure 10: DAPPER-H under the streaming and refresh attacks."""
    workloads = workloads or default_workloads(1)
    figure = FigureData(
        name="figure10",
        title="Normalized performance of DAPPER-H under mapping-agnostic attacks",
    )
    specs = _mapping_agnostic_batch("dapper-h", workloads, requests_per_core, nrh)
    outcomes = iter((sweep or SweepRunner()).run(specs))
    labels = [label for label, *_ in mapping_agnostic_series("dapper-h", nrh)]
    for workload in workloads:
        memory_intensive = get_workload(workload).memory_intensive
        for label in labels:
            figure.add(
                workload=workload,
                memory_intensive=memory_intensive,
                attack=label,
                normalized_performance=next(outcomes).normalized,
            )
    all_values = figure.column("normalized_performance")
    figure.add(
        workload="average",
        memory_intensive=True,
        attack="both",
        normalized_performance=sum(all_values) / len(all_values),
    )
    figure.notes.append("Paper: <1% average slowdown, worst case 4.7%.")
    return figure


def figure11(
    workloads: list[str] | None = None,
    requests_per_core: int = 8_000,
    nrh: int = 500,
    sweep: SweepRunner | None = None,
) -> FigureData:
    """Figure 11: DAPPER-H on benign applications (no attacker)."""
    workloads = workloads or default_workloads(1)
    sweep = sweep or SweepRunner()
    figure = FigureData(
        name="figure11",
        title="Normalized performance of DAPPER-H on benign applications",
    )
    specs = family_by_name("paper-figure11").expand(
        {"workloads": workloads, "requests_per_core": requests_per_core, "nrh": nrh}
    )
    for workload, outcome in zip(workloads, sweep.run(specs)):
        figure.add(
            workload=workload,
            memory_intensive=get_workload(workload).memory_intensive,
            normalized_performance=outcome.normalized,
        )
    values = figure.column("normalized_performance")
    figure.add(
        workload="average",
        memory_intensive=True,
        normalized_performance=sum(values) / len(values),
    )
    figure.notes.append("Paper: 0.1% average slowdown, worst case 4.4% (429.mcf).")
    return figure


def figure12(
    workloads: list[str] | None = None,
    requests_per_core: int = 6_000,
    nrh_values: tuple[int, ...] = (125, 250, 500, 1000),
    sweep: SweepRunner | None = None,
) -> FigureData:
    """Figure 12: DAPPER-H sensitivity to the RowHammer threshold."""
    workloads = workloads or default_workloads(1)[:3]
    specs = family_by_name("paper-figure12").expand(
        {
            "workloads": workloads,
            "requests_per_core": requests_per_core,
            "nrh_values": nrh_values,
        }
    )
    figure = _mean_figure(
        "figure12",
        "DAPPER-H vs NRH under benign and Perf-Attack conditions",
        "nrh",
        nrh_values,
        paper_figure12_series,
        workloads,
        specs,
        sweep,
    )
    figure.notes.append(
        "Paper: <1% slowdown at NRH >= 500; up to ~6% at NRH = 125 under attack."
    )
    return figure


def figure13(
    workloads: list[str] | None = None,
    requests_per_core: int = 6_000,
    nrh_values: tuple[int, ...] = (250, 500, 1000),
    sweep: SweepRunner | None = None,
) -> FigureData:
    """Figure 13: blast radius 2 and Same-Bank DRFM mitigation back-ends."""
    return _nrh_figure(
        "figure13",
        "DAPPER-H with blast radius 2 and DRFMsb, benign and refresh attack",
        "Paper: at NRH=500 under the refresh attack, BR1/BR2 cost 1%/2% and "
        "DRFMsb about 8%.",
        figure13_series,
        workloads,
        requests_per_core,
        nrh_values,
        sweep,
    )


# --------------------------------------------------------------------------- #
# Comparison figures (Section VI-I .. VI-K)
# --------------------------------------------------------------------------- #


def figure14(
    workloads: list[str] | None = None,
    requests_per_core: int = 6_000,
    nrh_values: tuple[int, ...] = (125, 250, 500, 1000),
    sweep: SweepRunner | None = None,
) -> FigureData:
    """Figure 14: BlockHammer versus DAPPER-H on benign applications."""
    return _nrh_figure(
        "figure14",
        "BlockHammer vs DAPPER-H (benign) as NRH varies",
        "Paper: BlockHammer loses 25% at NRH=500 and 66% at NRH=125, while "
        "DAPPER-H stays within a few percent.",
        figure14_series,
        workloads,
        requests_per_core,
        nrh_values,
        sweep,
    )


def figure15(
    workloads: list[str] | None = None,
    requests_per_core: int = 6_000,
    nrh_values: tuple[int, ...] = (125, 500, 1000),
    sweep: SweepRunner | None = None,
) -> FigureData:
    """Figure 15: PARA / PrIDE vs DAPPER-H on benign applications."""
    return _nrh_figure(
        "figure15",
        "Probabilistic mitigations vs DAPPER-H (benign)",
        "Paper: at NRH=125, PARA and PrIDE cost 8.5% and 16.7%; DAPPER-H 4%.",
        probabilistic_series,
        workloads,
        requests_per_core,
        nrh_values,
        sweep,
    )


def figure16(
    workloads: list[str] | None = None,
    requests_per_core: int = 6_000,
    nrh_values: tuple[int, ...] = (125, 500, 1000),
    sweep: SweepRunner | None = None,
) -> FigureData:
    """Figure 16: PARA / PrIDE vs DAPPER-H under Perf-Attacks."""
    return _nrh_figure(
        "figure16",
        "Probabilistic mitigations vs DAPPER-H under the refresh attack",
        "Paper: at NRH=125, DAPPER-H loses ~6% while PARA and PrIDE lose "
        "15% and 23%.",
        lambda nrh: probabilistic_series(nrh, attack="refresh"),
        workloads,
        requests_per_core,
        nrh_values,
        sweep,
    )


def figure17(
    workloads: list[str] | None = None,
    requests_per_core: int = 6_000,
    nrh_values: tuple[int, ...] = (125, 500, 1000),
    sweep: SweepRunner | None = None,
) -> FigureData:
    """Figure 17: PRAC versus DAPPER-H, benign and under Perf-Attacks."""
    return _nrh_figure(
        "figure17",
        "PRAC vs DAPPER-H, benign and under the refresh attack",
        "Paper: PRAC costs ~7% on benign applications at every NRH but is "
        "largely insensitive to Perf-Attacks; DAPPER-H costs <4% benign.",
        figure17_series,
        workloads,
        requests_per_core,
        nrh_values,
        sweep,
    )
