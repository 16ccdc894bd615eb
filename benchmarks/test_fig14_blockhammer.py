"""Figure 14: BlockHammer versus DAPPER-H on benign applications.  Throttling
becomes very expensive at ultra-low thresholds; DAPPER-H does not."""

from repro.eval.figures import default_workloads, figure14


def test_figure14_blockhammer_comparison(regenerate, sweep):
    figure = regenerate(
        figure14,
        workloads=default_workloads(1)[:2],
        requests_per_core=6_000,
        nrh_values=(125, 500),
        sweep=sweep,
    )

    for nrh in (125, 500):
        rows = {row["series"]: row["normalized_performance"] for row in figure.filter(nrh=nrh)}
        assert rows["DAPPER-H"] >= rows["BlockHammer"] - 0.02
    # DAPPER-H stays near 1.0 even at the lowest threshold.
    assert figure.value("normalized_performance", nrh=125, series="DAPPER-H") > 0.9
