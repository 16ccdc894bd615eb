"""Figure 17: PRAC versus DAPPER-H.  PRAC pays a roughly constant benign
overhead from its per-activation counter read-modify-writes; DAPPER-H is
nearly free on benign applications."""

from repro.eval.figures import default_workloads, figure17


def test_figure17_prac_comparison(regenerate, sweep):
    figure = regenerate(
        figure17,
        workloads=default_workloads(1)[:2],
        requests_per_core=6_000,
        nrh_values=(500, 1000),
        sweep=sweep,
    )

    for nrh in (500, 1000):
        rows = {row["series"]: row["normalized_performance"] for row in figure.filter(nrh=nrh)}
        # PRAC's benign overhead is visible at every threshold; DAPPER-H beats it.
        assert rows["PRAC"] < 0.99
        assert rows["DAPPER-H"] > rows["PRAC"]
        # PRAC is comparatively insensitive to the Perf-Attack.
        assert abs(rows["PRAC-Perf"] - rows["PRAC"]) < 0.15
