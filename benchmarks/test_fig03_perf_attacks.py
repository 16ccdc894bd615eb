"""Figure 3: per-workload normalized performance of the four scalable trackers
under cache thrashing and tailored RH-Tracker-based Perf-Attacks."""

from repro.eval.figures import default_workloads, figure3


def test_figure3_per_workload_impact(regenerate, sweep):
    workloads = default_workloads(1)[:4]
    figure = regenerate(
        figure3, workloads=workloads, requests_per_core=8_000, nrh=500, sweep=sweep
    )

    # Every workload suffers more under at least one tailored attack than
    # under cache thrashing.
    for workload in workloads:
        rows = figure.filter(workload=workload)
        thrash = next(
            r["normalized_performance"] for r in rows if r["series"] == "cache-thrashing"
        )
        tailored = [
            r["normalized_performance"] for r in rows if r["series"] != "cache-thrashing"
        ]
        assert min(tailored) < thrash
