"""Figure 16: PARA / PrIDE versus DAPPER-H under the refresh Perf-Attack."""

from repro.eval.figures import default_workloads, figure16


def test_figure16_probabilistic_under_attack(regenerate, sweep):
    figure = regenerate(
        figure16,
        workloads=default_workloads(1)[:2],
        requests_per_core=6_000,
        nrh_values=(125, 500),
        sweep=sweep,
    )

    for nrh in (125, 500):
        rows = {row["series"]: row["normalized_performance"] for row in figure.filter(nrh=nrh)}
        assert rows["DAPPER-H"] >= rows["PARA"] - 0.02
        assert rows["DAPPER-H"] >= rows["PrIDE"] - 0.02
    assert figure.value("normalized_performance", nrh=500, series="DAPPER-H") > 0.9
