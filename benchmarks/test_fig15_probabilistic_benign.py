"""Figure 15: PARA / PrIDE versus DAPPER-H on benign applications as the
RowHammer threshold drops."""

from repro.eval.figures import default_workloads, figure15


def test_figure15_probabilistic_benign(regenerate, sweep):
    figure = regenerate(
        figure15,
        workloads=default_workloads(1)[:2],
        requests_per_core=6_000,
        nrh_values=(125, 500),
        sweep=sweep,
    )

    low = {row["series"]: row["normalized_performance"] for row in figure.filter(nrh=125)}
    # At NRH=125 the stateless mitigations pay much more than DAPPER-H.
    assert low["DAPPER-H"] >= low["PARA"]
    assert low["DAPPER-H"] >= low["PrIDE"]
    # DRFMsb makes the probabilistic mitigations clearly worse than their
    # per-bank variants.
    assert low["PARA-DRFMsb"] <= low["PARA"] + 0.01
