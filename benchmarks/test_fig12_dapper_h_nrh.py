"""Figure 12: DAPPER-H as the RowHammer threshold drops to 125 -- the overhead
stays small under both mapping-agnostic attacks."""

from repro.eval.figures import default_workloads, figure12


def test_figure12_dapper_h_nrh_sensitivity(regenerate, sweep):
    figure = regenerate(
        figure12,
        workloads=default_workloads(1)[:2],
        requests_per_core=6_000,
        nrh_values=(125, 500),
        sweep=sweep,
    )

    # At NRH >= 500 the overhead is tiny; at 125 it may grow but stays modest.
    assert figure.value("normalized_performance", nrh=500, series="DAPPER-H") > 0.97
    assert figure.value("normalized_performance", nrh=500, series="DAPPER-H-Refresh") > 0.9
    assert figure.value("normalized_performance", nrh=125, series="DAPPER-H-Refresh") > 0.75
