"""A tracker's state changes only through its two hooks.

The benchmark's traced run records one tracker instance's
``on_activation(row, now_ns)`` and ``on_refresh_window(window, now_ns)``
calls over a whole simulation, tracker warm-up included, replays them into a
fresh tracker and requires the same response to every activation.  That
replay is only meaningful while every change of tracker state goes through
those two calls: a warm-up or engine path that fed the tracker any other way
would make the replayed responses diverge.  Each case here runs past the
warm-up's first mitigation and asserts that the measured run also drew
non-empty responses, so the replay compares active responses too.
"""

import pytest

from repro.scenarios.families import full_geometry_config
from repro.sim.experiment import run_workload
from repro.trackers.registry import create_tracker

#: The benchmark's NRH and refresh-window scale.
NRH = 500
TREFW_SCALE = 1.0 / 16.0

#: Caps the tracker warm-up, which ends at the tracker's first mitigation.
#: At these settings that is warm-up activation 8,001 for DAPPER-H, 7,969
#: for DAPPER-S, 31,873 for Hydra and 95,233 for CoMeT.
WARMUP = 100_000


def _recorded(tracker) -> list[tuple]:
    """Record every call of ``tracker``'s two hooks, with its response."""
    calls = []
    on_activation = tracker.on_activation
    on_refresh_window = tracker.on_refresh_window

    def activation(row, now_ns):
        response = on_activation(row, now_ns)
        calls.append((True, row, now_ns, response))
        return response

    def refresh_window(window_index, now_ns):
        calls.append((False, window_index, now_ns, None))
        return on_refresh_window(window_index, now_ns)

    tracker.on_activation = activation
    tracker.on_refresh_window = refresh_window
    return calls


def _response_key(response) -> tuple:
    # A GroupMitigation's membership predicate is a closure, which does not
    # compare by value; its geometry fields identify it.
    return (
        response.counter_reads,
        response.counter_writes,
        tuple(response.mitigations),
        tuple(
            (group.channel, group.rank, group.num_rows, group.rows_per_bank,
             group.reason)
            for group in response.group_mitigations
        ),
        tuple(response.blackouts),
    )


@pytest.mark.parametrize(
    "tracker_name, attack",
    [
        ("dapper-h", "refresh"),
        ("dapper-s", "refresh"),
        ("hydra", "rcc-conflict"),
        ("comet", "rat-thrash"),
    ],
)
def test_replaying_the_hook_calls_gives_every_response(tracker_name, attack):
    config = full_geometry_config(NRH, TREFW_SCALE)
    tracker = create_tracker(tracker_name, config)
    calls = _recorded(tracker)
    result = run_workload(
        config=config,
        tracker=tracker,
        workload="429.mcf",
        attack=attack,
        requests_per_core=1_500,
        attack_warmup_activations=WARMUP,
        llc_warmup_accesses=2_000,
    )
    stats = result.controller_stats
    assert (
        stats.tracker_counter_accesses
        + stats.mitigation_refreshes
        + stats.group_mitigations
        + stats.structure_reset_blackouts
    ) > 0, "no non-empty tracker response after the warm-up"

    fresh = create_tracker(tracker_name, config)
    for index, (is_activation, first, now_ns, response) in enumerate(calls):
        if is_activation:
            replayed = fresh.on_activation(first, now_ns)
            assert _response_key(replayed) == _response_key(response), index
        else:
            fresh.on_refresh_window(first, now_ns)
