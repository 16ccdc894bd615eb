"""The tracker warm-up against a per-entry replay of the same attack streams.

``warm_up_tracker`` and ``warm_up_tracker_from_plan`` generate each attack
kernel's activations in blocks and decode them in bulk.  The reference here
is the plain loop they replace: one ``next_entry`` per activation, decoded
with ``AddressMapper.decode(...).row_address``.  Both must make the same
``on_activation(row, now_ns)`` calls, with Python-int row fields, and stop
after the same activation.
"""

import pytest

import repro.dram.address as address_mod
from repro.attacks import attack_by_name
from repro.config import baseline_config, reduced_row_config
from repro.dram.address import AddressMapper
from repro.sim.experiment import (
    _attacker_seed,
    warm_up_tracker,
    warm_up_tracker_from_plan,
)
from repro.sim.sweep import CoreAssignment
from repro.trackers.registry import create_tracker

#: Three 4,096-activation warm-up chunks (DAPPER-S stops inside the second).
ACTIVATIONS = 12_000


@pytest.fixture(params=["numpy", "pure-python"])
def decode_mode(request, monkeypatch):
    if request.param == "pure-python":
        monkeypatch.setattr(address_mod, "_np", None)
    elif address_mod._np is None:
        pytest.skip("numpy is not installed")
    return request.param


def _per_entry_warmup(tracker, generators, rates, config, activations):
    """Weighted round-robin over the generators, one activation at a time."""
    mapper = AddressMapper(config.dram)
    credits = [0.0] * len(generators)
    now_ns = 0.0
    performed = 0
    while performed < activations:
        for which, rate in enumerate(rates):
            credits[which] += rate
        chosen = max(range(len(generators)), key=credits.__getitem__)
        credits[chosen] -= 1.0
        address = generators[chosen].next_entry().address
        response = tracker.on_activation(mapper.decode(address).row_address, now_ns)
        now_ns += config.timings.trrd_s_ns
        performed += 1
        if response.mitigations or response.group_mitigations or response.blackouts:
            break
    return performed


def _recording(tracker_name, config):
    """A fresh tracker whose on_activation calls are recorded."""
    tracker = create_tracker(tracker_name, config)
    calls = []
    on_activation = tracker.on_activation

    def record(row, now_ns):
        calls.append((row, now_ns))
        return on_activation(row, now_ns)

    tracker.on_activation = record
    return tracker, calls


def _assert_same_replay(performed, calls, expected_performed, expected_calls):
    assert performed == expected_performed == len(calls)
    assert calls == expected_calls
    assert all(
        type(field) is int
        for row, _ in calls
        for field in (*row.bank, row.row)
    )


@pytest.mark.parametrize(
    "tracker_name, attack, make_config",
    [
        ("start", "counter-streaming", baseline_config),
        ("abacus", "id-streaming", baseline_config),
        ("hydra", "rcc-conflict", baseline_config),
        ("comet", "rat-thrash", baseline_config),
        ("dapper-h", "row-streaming", reduced_row_config),
        ("dapper-s", "refresh", baseline_config),
    ],
)
def test_warm_up_matches_the_per_entry_replay(
    tracker_name, attack, make_config, decode_mode
):
    config = make_config()
    seed = config.seed
    tracker, calls = _recording(tracker_name, config)
    performed = warm_up_tracker(tracker, attack, config, ACTIVATIONS, seed)

    reference, expected = _recording(tracker_name, config)
    generator = attack_by_name(
        attack, config.dram, AddressMapper(config.dram), seed=_attacker_seed(seed, 0)
    )
    expected_performed = _per_entry_warmup(
        reference, [generator], [1.0], config, ACTIVATIONS
    )
    _assert_same_replay(performed, calls, expected_performed, expected)


@pytest.mark.parametrize("rate", [1.0, 0.25])
def test_two_attacker_plan_warm_up_matches_the_per_entry_replay(rate, decode_mode):
    config = baseline_config()
    seed = config.seed
    plan = (
        CoreAssignment(role="attack", name="rcc-conflict"),
        CoreAssignment(role="workload", name="429.mcf"),
        CoreAssignment(role="attack", name="row-streaming", hammer_rate=rate),
        CoreAssignment(role="idle"),
    )
    tracker, calls = _recording("hydra", config)
    performed = warm_up_tracker_from_plan(tracker, plan, config, ACTIVATIONS, seed)

    reference, expected = _recording("hydra", config)
    mapper = AddressMapper(config.dram)
    generators = [
        attack_by_name(name, config.dram, mapper, seed=_attacker_seed(seed, core_id))
        for core_id, name in ((0, "rcc-conflict"), (2, "row-streaming"))
    ]
    expected_performed = _per_entry_warmup(
        reference, generators, [1.0, rate], config, ACTIVATIONS
    )
    _assert_same_replay(performed, calls, expected_performed, expected)
