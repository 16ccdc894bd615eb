"""Table IV: energy overhead of DAPPER-H under benign, streaming-attack and
refresh-attack conditions as the RowHammer threshold varies."""

from repro.eval.tables import table4


def test_table4_energy_overheads(regenerate, sweep):
    table = regenerate(
        table4,
        requests_per_core=6_000,
        nrh_values=(125, 500),
        sweep=sweep,
    )

    def overhead(nrh, scenario):
        return table.value("energy_overhead_percent", nrh=nrh, scenario=scenario)

    # Benign energy overhead is negligible at NRH=500 and stays small at 125.
    assert overhead(500, "benign") < 2.0
    assert overhead(125, "benign") < 10.0
    # The refresh attack costs more energy than the benign case at low NRH
    # (mitigative refreshes dominate), but remains bounded.
    assert overhead(125, "refresh") >= overhead(500, "benign") - 0.5
    assert overhead(125, "refresh") < 20.0
