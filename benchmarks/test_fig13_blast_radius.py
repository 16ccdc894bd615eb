"""Figure 13: blast radius 2 and Same-Bank DRFM as the mitigation back-end.
Wider mitigations cost more, and DRFMsb (blocking 8 banks) costs the most."""

from repro.eval.figures import default_workloads, figure13


def test_figure13_blast_radius_and_drfm(regenerate, sweep):
    figure = regenerate(
        figure13,
        workloads=default_workloads(1)[:2],
        requests_per_core=6_000,
        nrh_values=(500,),
        sweep=sweep,
    )

    refresh = {
        row["series"]: row["normalized_performance"]
        for row in figure.filter(nrh=500)
        if row["series"].endswith("-Refresh")
    }
    # Under the refresh attack: BR1 >= BR2 >= DRFMsb (heavier mitigations
    # cost more), mirroring the paper's 1% / 2% / 8% ordering.
    assert refresh["DAPPER-H-Refresh"] >= refresh["DAPPER-H-BR2-Refresh"] - 0.02
    assert refresh["DAPPER-H-BR2-Refresh"] >= refresh["DAPPER-H-DRFMsb-Refresh"] - 0.02
