"""Figure 5: the Perf-Attacks on a large (8-channel) system as the per-core
LLC size grows -- bigger caches do not fix the vulnerability."""

from repro.eval.figures import default_workloads, figure5


def test_figure5_large_system_remains_vulnerable(regenerate, sweep):
    figure = regenerate(
        figure5,
        workloads=default_workloads(1)[:2],
        requests_per_core=5_000,
        llc_sizes_mb=(2, 5),
        nrh=500,
        sweep=sweep,
    )

    for llc_mb in (2, 5):
        rows = {
            row["series"]: row["normalized_performance"]
            for row in figure.filter(per_core_llc_mb=llc_mb)
        }
        tailored_worst = min(rows[t] for t in ("hydra", "start", "abacus", "comet"))
        assert tailored_worst < rows["cache-thrashing"]
