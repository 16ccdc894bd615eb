"""Figure 1: normalized performance of Hydra/START/ABACUS/CoMeT under tailored
Perf-Attacks versus a cache-thrashing attack, per benchmark suite, NRH=500."""

from repro.eval.figures import default_workloads, figure1


def test_figure1_perf_attacks_vs_cache_thrashing(regenerate, sweep):
    figure = regenerate(
        figure1,
        workloads=default_workloads(1),
        requests_per_core=8_000,
        nrh=500,
        sweep=sweep,
    )

    overall = {
        row["series"]: row["normalized_performance"]
        for row in figure.filter(suite="All")
    }
    # Shape check: every tailored Perf-Attack hurts the benign applications
    # more than cache thrashing does (the paper reports 60-90% vs ~40%).
    for tracker in ("hydra", "start", "abacus", "comet"):
        assert overall[tracker] < overall["cache-thrashing"]
    # And the attacks are devastating in absolute terms.
    assert min(overall[t] for t in ("hydra", "start", "abacus", "comet")) < 0.5
