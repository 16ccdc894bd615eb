"""Pinned multi-tREFW horizon behaviour, under the scalar and fast engines.

A run sized by the ``multi-refresh-window`` family must actually cross the
requested number of refresh windows, and crossing a window must do the two
things the paper's long-horizon experiments depend on: the controller books
the window (and the energy model the elapsed auto-refresh REF commands), and
the tracker runs its periodic epoch reset.  Both engines must agree on all
of it bit-for-bit -- the fast engine's quiescent stretch executor is only
useful if a multi-window horizon means the same thing there.
"""

import json

import pytest

from repro.scenarios import family_by_name

WINDOWS = 2


def _spec(tracker="graphene", windows=WINDOWS):
    return family_by_name("multi-refresh-window").expand(
        {
            "tracker": tracker,
            "workload": "453.povray",
            "windows": windows,
            "trefw_scale": 1.0 / 256.0,
            "geometry": "reduced",
            "nrh": 500,
        }
    )[0]


def _run(spec, engine):
    return spec.run(engine=engine)


def _canon(result) -> dict:
    return json.loads(json.dumps(result.to_dict(), sort_keys=True, default=str))


class TestRefreshHorizon:
    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_run_spans_requested_windows(self, engine):
        spec = _spec()
        result = _run(spec, engine)
        timings = spec.config.timings
        # The family sizes the budget so the issue stream alone spans the
        # horizon; the run must therefore cross at least WINDOWS boundaries.
        assert result.elapsed_ns >= WINDOWS * timings.trefw_ns
        assert result.controller_stats.refresh_windows >= WINDOWS

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_refresh_commands_match_elapsed_time(self, engine):
        spec = _spec()
        result = _run(spec, engine)
        timings = spec.config.timings
        org = spec.config.dram
        num_ranks = org.channels * org.ranks_per_channel
        # One REF per rank per elapsed tREFI: the energy model books exactly
        # the auto-refresh commands the horizon implies.
        expected = int(result.elapsed_ns // timings.trefi_ns) * num_ranks
        assert result.energy.command_counts["REF"] == expected
        assert expected >= WINDOWS * int(
            timings.trefw_ns // timings.trefi_ns
        ) * num_ranks

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_tracker_epoch_resets_once_per_window(self, engine):
        spec = _spec()
        result = _run(spec, engine)
        # Graphene resets its counter table on every on_refresh_window call,
        # and the controller makes exactly one call per crossed window.
        assert (
            result.tracker_stats.periodic_resets
            == result.controller_stats.refresh_windows
        )

    def test_engines_agree_bit_for_bit_on_the_horizon(self):
        spec = _spec()
        assert _canon(_run(spec, "batched")) == _canon(_run(spec, "scalar"))

    def test_deeper_horizon_crosses_more_windows(self):
        two = _run(_spec(windows=2), "batched")
        three = _run(_spec(windows=3), "batched")
        assert (
            three.controller_stats.refresh_windows
            > two.controller_stats.refresh_windows
        )
        assert three.controller_stats.refresh_windows >= 3
