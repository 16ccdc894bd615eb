"""Campaign drains: resumability, bounded participation, determinism of the
resumed results, manifest reconciliation, status/report/diff."""

from __future__ import annotations

import logging
import re

import pytest

from repro.config import MitigationCommand, reduced_row_config
from repro.sim.sweep import ScenarioSpec
from repro.store import (
    CampaignWorker,
    SqliteStore,
    campaign_report,
    campaign_status,
    diff_campaigns,
    open_store,
)
from repro.store.campaign import build_manifest, validate_campaign_name

REQUESTS = 200
TRACKERS = ("none", "dapper-h", "graphene")
WORKLOADS = ("453.povray", "429.mcf")


@pytest.fixture(scope="module")
def sweep_config():
    return reduced_row_config(nrh=500, rows_per_bank=2048).with_refresh_window_scale(
        1 / 32
    )


@pytest.fixture(scope="module")
def specs(sweep_config):
    return [
        ScenarioSpec(
            tracker=tracker,
            workload=workload,
            requests_per_core=REQUESTS,
            config=sweep_config,
        )
        for tracker in TRACKERS
        for workload in WORKLOADS
    ]


#: The six specs share one insecure baseline per workload, and that baseline
#: *is* the tracker="none" scenario itself: six unique simulations in total.
UNIQUE_SIMS = len(TRACKERS) * len(WORKLOADS)


@pytest.fixture(scope="module")
def finished_store(specs, tmp_path_factory):
    """One fully-executed campaign, shared by the read-only tests."""
    store = SqliteStore(tmp_path_factory.mktemp("campaign") / "wh.sqlite")
    CampaignWorker("full", specs, store, shard_size=4).run()
    return store


#: The per-shard progress line the worker logs (``repro.worker``, INFO).
SHARD_LINE = re.compile(
    r"completed shard \d+ \((?P<executed>\d+)/\d+ executed here\); "
    r"(?P<shards>\d+)/\d+ shards, (?P<done>\d+)/(?P<total>\d+) simulations "
    r"\((?P<percent>[\d.]+)%\), eta (?P<eta>\S+)"
)


class TestRunAndResume:
    def test_first_run_executes_everything(self, specs, finished_store):
        # finished_store ran the campaign; inspect its summary via a re-run.
        saved = finished_store.load_campaign("full")
        worker = CampaignWorker("full", specs, finished_store)
        summary = worker.run()
        assert len(worker.manifest["entries"]) == len(specs)
        assert summary.simulations == UNIQUE_SIMS
        assert summary.already_stored == UNIQUE_SIMS
        assert summary.executed == 0
        assert worker.manifest == saved   # resumed: the manifest was adopted

    def test_progress_ticks_and_eta(self, specs, tmp_path, caplog):
        store = SqliteStore(tmp_path / "wh.sqlite")
        with caplog.at_level(logging.INFO, logger="repro.worker"):
            CampaignWorker("ticks", specs, store, shard_size=2).run()
        ticks = [
            SHARD_LINE.search(record.getMessage())
            for record in caplog.records
            if "completed shard" in record.getMessage()
        ]
        assert all(ticks)
        assert [int(tick["shards"]) for tick in ticks] == [1, 2, 3]
        assert int(ticks[-1]["done"]) == UNIQUE_SIMS
        assert float(ticks[-1]["percent"]) == 100.0
        assert all(tick["eta"] != "unknown" for tick in ticks)
        assert int(ticks[0]["executed"]) == 2

    def test_interrupt_then_resume_executes_only_missing(
        self, specs, tmp_path, finished_store
    ):
        store = SqliteStore(tmp_path / "wh.sqlite")
        # Stop after one shard: everything it drained is checkpointed.
        first = CampaignWorker("resume", specs, store, shard_size=2)
        first.run(max_shards=1)
        manifest_keys = {
            key
            for entry in first.manifest["entries"]
            for key in (entry["key"], entry["baseline_key"])
        }
        stored = len(store.keys() & manifest_keys)
        assert 0 < stored < UNIQUE_SIMS   # checkpointed, but incomplete
        status = campaign_status(store, "resume")
        assert not status.complete
        assert status.simulations_stored == stored

        worker = CampaignWorker("resume", specs, store, shard_size=2)
        resumed = worker.run()
        assert worker.manifest == first.manifest   # resumed, not replaced
        assert resumed.already_stored == stored
        assert resumed.executed == UNIQUE_SIMS - stored   # zero re-execution
        assert campaign_status(store, "resume").complete

        third = CampaignWorker("resume", specs, store, shard_size=2).run()
        assert third.executed == 0

        # Determinism: the interrupted-and-resumed campaign reports exactly
        # the numbers of the campaign that ran start to finish.
        resumed_rows = campaign_report(store, "resume")["rows"]
        full_rows = campaign_report(finished_store, "full")["rows"]
        assert [row["normalized_performance"] for row in resumed_rows] == [
            row["normalized_performance"] for row in full_rows
        ]


    def test_suffixless_warehouse_path_supports_campaigns(self, specs, tmp_path):
        # Any path is a warehouse file, with or without a .sqlite suffix.
        store = open_store(tmp_path / "cache")
        subset = specs[:2]   # none + dapper-h on one workload
        summary = CampaignWorker("plain-path", subset, store, shard_size=8).run()
        assert summary.executed == 2
        assert campaign_status(store, "plain-path").complete
        # The manifest must not pollute the run-record key space.
        assert not any(key.startswith("plain-path") for key in store.keys())
        store.close()
        resumed = CampaignWorker(
            "plain-path", subset, open_store(tmp_path / "cache")
        ).run()
        assert resumed.executed == 0


class TestManifestReconciliation:
    def test_changed_scenario_set_requires_force(self, specs, finished_store):
        with pytest.raises(ValueError, match="different scenario set"):
            CampaignWorker("full", specs[:2], finished_store).run()

    def test_force_replaces_manifest(self, specs, tmp_path):
        store = SqliteStore(tmp_path / "wh.sqlite")
        first = CampaignWorker("evolving", specs[:2], store)
        first.run()
        worker = CampaignWorker("evolving", specs[:4], store, force=True)
        summary = worker.run()
        # A fresh manifest was written, and the shard plan with it.
        assert store.load_campaign("evolving") == worker.manifest
        assert worker.manifest["entries"] != first.manifest["entries"]
        assert len(worker.manifest["entries"]) == 4
        # Results stored by the first manifest still count: only the two new
        # unique simulations execute.
        assert summary.executed == summary.simulations - summary.already_stored
        status = campaign_status(store, "evolving")
        assert status.entries == 4 and status.complete
        assert status.leases["done"] == status.leases["shards"]

    def test_unknown_campaign_is_reported(self, finished_store):
        with pytest.raises(ValueError, match="unknown campaign"):
            campaign_status(finished_store, "nope")

    def test_invalid_names_rejected(self):
        for name in ("", "../escape", "a b", ".hidden", "x" * 101):
            with pytest.raises(ValueError, match="invalid campaign name"):
                validate_campaign_name(name)
        assert validate_campaign_name("nrh-sweep_v2.1") == "nrh-sweep_v2.1"

    def test_empty_campaign_rejected(self, finished_store):
        with pytest.raises(ValueError, match="no scenarios"):
            build_manifest("empty", [])


class TestStatusReportDiff:
    def test_status_of_finished_campaign(self, specs, finished_store):
        status = campaign_status(finished_store, "full")
        assert status.entries == len(specs)
        assert status.entries_complete == len(specs)
        assert status.complete
        assert status.percent == 100.0

    def test_report_rows_cover_every_entry(self, specs, finished_store):
        report = campaign_report(finished_store, "full")
        assert len(report["rows"]) == len(specs)
        assert report["incomplete_entries"] == 0
        by_tracker = {
            (row["tracker"], row["workload"]): row for row in report["rows"]
        }
        for workload in WORKLOADS:
            assert by_tracker[("none", workload)]["normalized_performance"] == 1.0
        for row in report["rows"]:
            assert row["elapsed_seconds"] is not None
            assert row["dram_activations"] > 0

    def test_self_diff_is_all_zero(self, finished_store):
        diff = diff_campaigns(finished_store, "full")
        assert diff["matched"] == UNIQUE_SIMS
        assert diff["only_in_a"] == [] and diff["only_in_b"] == []
        assert diff["max_abs_normalized_delta"] == 0.0

    def test_diff_two_campaigns_same_store(self, specs, finished_store):
        # A second campaign over the same specs costs zero simulations (every
        # key is already stored) and diffs clean against the first.
        CampaignWorker("full-copy", specs, finished_store).run()
        diff = diff_campaigns(finished_store, "full", finished_store, "full-copy")
        assert diff["matched"] == UNIQUE_SIMS
        assert diff["max_abs_normalized_delta"] == 0.0

    def test_diff_reports_missing_scenarios(self, specs, finished_store):
        CampaignWorker("subset", specs[:2], finished_store).run()
        diff = diff_campaigns(finished_store, "full", finished_store, "subset")
        assert diff["matched"] == 2
        assert len(diff["only_in_a"]) == UNIQUE_SIMS - 2
        assert diff["only_in_b"] == []

    def test_diff_matches_every_mitigation_backend(self, sweep_config, tmp_path):
        # Figure 13's back-ends on one tracker and workload: the diff matches
        # runs by identity, so each back-end must be a row of its own.
        specs = [
            ScenarioSpec(
                tracker="dapper-h",
                workload="453.povray",
                attack="refresh",
                requests_per_core=REQUESTS,
                attack_matched_baseline=True,
                config=sweep_config.with_mitigation(command, blast_radius),
            )
            for command, blast_radius in (
                (MitigationCommand.VRR, 1),
                (MitigationCommand.VRR, 2),
                (MitigationCommand.DRFM_SB, 2),
            )
        ]
        store = SqliteStore(tmp_path / "wh.sqlite")
        CampaignWorker("backends", specs, store).run()
        rows = campaign_report(store, "backends")["rows"]
        assert [
            (row.get("mitigation_command", "VRR"), row.get("blast_radius", 1))
            for row in rows
        ] == [("VRR", 1), ("VRR", 2), ("DRFMsb", 2)]
        diff = diff_campaigns(store, "backends")
        assert diff["matched"] == len(specs)
        assert diff["max_abs_normalized_delta"] == 0.0
