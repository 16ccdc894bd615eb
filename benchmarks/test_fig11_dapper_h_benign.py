"""Figure 11: DAPPER-H on benign applications (no attacker) -- essentially
free (the paper reports a 0.1% average slowdown)."""

from repro.eval.figures import default_workloads, figure11


def test_figure11_dapper_h_benign_overhead(regenerate, sweep):
    figure = regenerate(
        figure11,
        workloads=default_workloads(1),
        requests_per_core=8_000,
        nrh=500,
        sweep=sweep,
    )

    average = figure.value("normalized_performance", workload="average")
    assert average > 0.98
    for row in figure.rows:
        assert row["normalized_performance"] > 0.9
