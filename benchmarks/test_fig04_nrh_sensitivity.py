"""Figure 4: sensitivity of the Perf-Attacks to the RowHammer threshold.
The paper's point: the attacks remain potent even at NRH = 4K."""

from repro.eval.figures import default_workloads, figure4


def test_figure4_attacks_remain_potent_at_high_nrh(regenerate, sweep):
    figure = regenerate(
        figure4,
        workloads=default_workloads(1)[:2],
        requests_per_core=6_000,
        nrh_values=(500, 2000, 4000),
        sweep=sweep,
    )

    # Even at the highest threshold the tailored attacks beat cache thrashing.
    high = {row["series"]: row["normalized_performance"] for row in figure.filter(nrh=4000)}
    tailored_worst = min(high[t] for t in ("hydra", "start", "abacus", "comet"))
    assert tailored_worst < high["cache-thrashing"]
