"""Checks of the benchmark itself, on every workload at tiny scale.

Runs in-process (no child processes), so the whole file takes a few
seconds: every metric ``BENCHMARK.json`` names is emitted with its unit, the
scalar and default engines give equal digests, tracing changes no digest,
and the tracer restores every method it wrapped.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import child  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = run.HELD_OUT_SEED


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    work_dir = tmp_path_factory.mktemp("bench-work")
    return {
        name: {
            variant: child.run(
                name, SEED, scale="tiny", work_dir=work_dir, **options
            )
            for variant, options in (
                ("default", {}),
                ("scalar", {"engine": "scalar"}),
                ("traced", {"traced": True}),
            )
        }
        for name in WORKLOADS
    }


def test_workloads_match_the_benchmark_spec():
    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


def test_every_metric_is_emitted_with_its_unit(tiny):
    for runs in tiny.values():
        default = runs["default"]
        e2e = run.end_to_end([default], [default["setup_s"]])
        layers = run.per_layer(runs["traced"], default["wall_s"])
        assert {m["name"] for m in SPEC["end_to_end"]} == set(e2e)
        assert {m["name"] for m in SPEC["per_layer"]} == set(layers)
        for metric in SPEC["end_to_end"]:
            assert e2e[metric["name"]]["unit"] == metric["unit"]
        for metric in SPEC["per_layer"]:
            assert layers[metric["name"]][1] == metric["unit"]


def test_scalar_and_default_engines_agree(tiny):
    for runs in tiny.values():
        assert all(sim["error"] is None for sim in runs["default"]["simulations"])
        assert run.digests(runs["default"]) == run.digests(runs["scalar"])


def test_tracing_changes_no_digest(tiny):
    for runs in tiny.values():
        assert run.digests(runs["traced"]) == run.digests(runs["default"])
    # The traced run exercised the layers the replays measure.
    attack = tiny["dapper-attack"]["traced"]["trace"]
    assert attack["tracker_replay"]["activations"] > 0
    assert attack["spans"]["crypto.llbc.encrypt"]["calls"] > 0
    assert tiny["long-horizon"]["traced"]["trace"]["llc_replay"]["hits"] > 0


def test_wrappers_are_restored():
    from repro.trackers.base import RowHammerTracker

    def snapshot():
        found = {
            (owner, attr): vars(owner)[attr]
            for owner, attr, _ in tracer.entry_points()
        }
        for cls in tracer._subclasses(RowHammerTracker):
            if "on_refresh_window" in vars(cls):
                found[(cls, "on_refresh_window")] = vars(cls)["on_refresh_window"]
        return found

    before = snapshot()
    spans = tracer.SpanTracer(tracer.CallRecorder("dapper-h"))
    with spans.installed():
        during = snapshot()
        assert all(during[key] is not before[key] for key in before)
    after = snapshot()
    assert all(after[key] is before[key] for key in before)


def test_a_timer_tick_during_a_kernel_pass_is_skipped():
    speed = calibration.HostSpeed(arrays=False)
    speed._in_pass = True
    speed._pass()
    assert speed.samples == []
    speed._in_pass = False
    speed._pass()
    assert len(speed.samples) == 1


def test_compare_flags_regressions_and_unresolved_spread():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05] * 2

    def status(a, b, paired=True):
        return compare.verdict(a, b, "lower", 0.1, paired)["status"]

    assert status(steady, [12.0] * 10) == "REGRESSION"
    assert status(steady, [12.0] * 10, paired=False) == "REGRESSION"
    assert status(steady, [9.0] * 10) == "gain"
    # Sets taken one after the other never show a gain, nor do five pairs.
    assert status(steady, [9.0] * 10, paired=False) == "no regression"
    assert status(steady[:5], [9.0] * 5) == "no regression"
    assert status(steady, steady) == "no regression"
    noisy = [5.0, 10.0, 15.0, 10.0, 20.0]
    assert status(noisy, noisy) == "unresolved"


def test_interleaved_rounds_alternate_which_side_goes_first():
    parent, change = object(), object()
    orders = [run.alternating([parent, change], i) for i in range(4)]
    assert orders == [[parent, change], [change, parent]] * 2
