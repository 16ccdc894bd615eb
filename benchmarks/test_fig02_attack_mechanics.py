"""Figure 2 (qualitative): the hardware mechanism each tailored Perf-Attack
exploits -- extra in-DRAM counter traffic for Hydra/START, full-structure
reset refreshes for CoMeT/ABACUS."""

from repro.eval.figures import figure2


def test_figure2_attack_mechanics(regenerate, sweep):
    figure = regenerate(
        figure2, workload="470.lbm", requests_per_core=8_000, sweep=sweep
    )

    by_tracker = {row["tracker"]: row for row in figure.rows}
    # Hydra and START are attacked through counter traffic.
    assert by_tracker["hydra"]["counter_accesses_per_kilo_act"] > 100
    assert by_tracker["start"]["counter_accesses_per_kilo_act"] > 100
    # CoMeT and ABACUS are attacked through structure-reset refreshes.
    assert (
        by_tracker["comet"]["blackout_ms"] + by_tracker["abacus"]["blackout_ms"] > 0.5
    )
