"""Figure 10: DAPPER-H under the streaming and refresh attacks.  The headline
result: the double hash, bit-vector and reset counters hold the overhead to
about a percent."""

from repro.eval.figures import default_workloads, figure10


def test_figure10_dapper_h_resilience(regenerate, sweep):
    figure = regenerate(
        figure10,
        workloads=default_workloads(1)[:4],
        requests_per_core=8_000,
        nrh=500,
        sweep=sweep,
    )

    average = figure.value("normalized_performance", workload="average", attack="both")
    assert average > 0.93          # paper: <1% average slowdown
    for row in figure.rows:
        if row["workload"] == "average":
            continue
        assert row["normalized_performance"] > 0.85   # paper worst case: 4.7%
