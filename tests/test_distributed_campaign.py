"""Distributed campaign execution: lease-based multi-worker drains.

The contract under test (see the "Distributed campaigns" section of
docs/warehouse.md): N workers drain one campaign concurrently, any of them
may be SIGKILLed at any instruction, and the campaign still completes with
zero lost and zero duplicated results -- the final report is byte-identical
to a serial single-worker run of the same suite.

Four layers of evidence, cheapest first:

* in-process drains under a fake clock (single worker, interleaved workers,
  crash reclaim, lease loss, poison-shard quarantine) -- every lease
  transition deterministic;
* a property-based state machine (seeded stdlib ``random``) driving random
  claim/renew/expire/complete/crash/release interleavings against the real
  SQLite lease table, with model-checked invariants;
* degenerate-manifest regressions (zero-spec percent, unknown-campaign
  joins) and the CLI worker/leases verbs;
* the headline fault-injection harness: real worker subprocesses on one
  warehouse, one SIGKILLed while it holds a lease, survivors reclaim and
  finish.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.config import reduced_row_config
from repro.sim.sweep import ScenarioSpec
from repro.store import (
    Campaign,
    CampaignWorker,
    LeaseLost,
    SqliteStore,
    campaign_report,
    campaign_status,
    manifest_shard_plan,
)
from repro.store.campaign import CampaignProgress, CampaignStatus

REQUESTS = 200
TRACKERS = ("none", "dapper-h", "graphene")

#: tracker="none" is its own insecure baseline: three unique simulations.
UNIQUE_SIMS = len(TRACKERS)


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
            workload="453.povray",
            requests_per_core=REQUESTS,
            config=sweep_config,
        )
        for tracker in TRACKERS
    ]


@pytest.fixture(scope="module")
def serial_report(specs, tmp_path_factory):
    """The reference: the same suite drained by one ordinary Campaign."""
    store = SqliteStore(tmp_path_factory.mktemp("serial") / "wh.sqlite")
    Campaign("dist", specs, store).run()
    return campaign_report(store, "dist")


class FakeClock:
    """Injectable wall clock: lease transitions happen when *we* say so."""

    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


#: Report fields that legitimately differ between runs of identical work.
VOLATILE = ("elapsed_seconds", "peak_memory_bytes")


def _stable(report: dict) -> str:
    rows = [
        {key: value for key, value in row.items() if key not in VOLATILE}
        for row in report["rows"]
    ]
    return json.dumps(rows, sort_keys=True)


def _worker(name, specs, store, **kwargs) -> CampaignWorker:
    kwargs.setdefault("clock", FakeClock())
    kwargs.setdefault("sleep", lambda seconds: None)
    return CampaignWorker(name, specs, store, **kwargs)


# --------------------------------------------------------------------------- #
# In-process drains
# --------------------------------------------------------------------------- #


class TestWorkerDrain:
    def test_single_worker_matches_serial_run(
        self, specs, tmp_path, serial_report
    ):
        store = SqliteStore(tmp_path / "wh.sqlite")
        worker = _worker("dist", specs, store, init=True, shard_size=2,
                         worker_id="w0")
        summary = worker.run()
        assert summary.completed == summary.shards == 2   # ceil(3 / 2)
        assert summary.executed == UNIQUE_SIMS
        assert summary.failed == summary.lost == summary.reclaimed == 0
        status = campaign_status(store, "dist")
        assert status.complete and status.percent == 100.0
        assert status.leases["done"] == 2
        assert status.leases["workers"] == {"w0": {"completed": 2, "active": 0}}
        # Byte-identical to the serial reference, volatile fields aside.
        assert _stable(campaign_report(store, "dist")) == _stable(serial_report)

    def test_interleaved_workers_split_disjointly(
        self, specs, tmp_path, serial_report
    ):
        path = tmp_path / "wh.sqlite"
        first = _worker("dist", specs, SqliteStore(path), init=True,
                        shard_size=1, worker_id="a")
        second = _worker("dist", specs, SqliteStore(path), shard_size=99,
                         worker_id="b")
        assert first.join() == UNIQUE_SIMS
        # The stored plan is authoritative: b's shard_size=99 is ignored.
        assert second.join() == UNIQUE_SIMS
        summaries = []
        for worker in (first, second, first, second, first, second):
            summaries.append(worker.run(max_shards=1))
            if campaign_status(worker.store, "dist").complete:
                break
        completed = sum(summary.completed for summary in summaries)
        executed = sum(summary.executed for summary in summaries)
        assert completed == UNIQUE_SIMS and executed == UNIQUE_SIMS
        leases = SqliteStore(path).lease_summary("dist")
        assert leases["done"] == UNIQUE_SIMS
        assert leases["reclaims"] == 0   # nobody died, nothing reclaimed
        by_worker = leases["workers"]
        assert sum(entry["completed"] for entry in by_worker.values()) == 3
        assert _stable(campaign_report(SqliteStore(path), "dist")) == \
            _stable(serial_report)

    def test_finished_campaign_rejoins_as_noop(self, specs, tmp_path):
        store = SqliteStore(tmp_path / "wh.sqlite")
        _worker("dist", specs, store, init=True, worker_id="w0").run()
        again = _worker("dist", specs, store, worker_id="w1").run()
        assert again.completed == 0 and again.executed == 0

    def test_worker_refuses_mismatched_suite(self, specs, tmp_path):
        store = SqliteStore(tmp_path / "wh.sqlite")
        # A campaign saved with a two-spec manifest...
        Campaign("dist", specs[:2], store)._reconcile_manifest(force=False)
        # ...cannot be joined by a worker compiled from three specs.
        with pytest.raises(ValueError, match="does not match"):
            _worker("dist", specs, store).join()

    def test_nonpositive_lease_duration_is_refused(self, specs, tmp_path):
        store = SqliteStore(tmp_path / "wh.sqlite")
        with pytest.raises(ValueError, match="lease_duration"):
            _worker("dist", specs, store, lease_duration=0.0)


class TestCrashReclaim:
    def test_dead_workers_shard_is_reclaimed(self, specs, tmp_path):
        path = tmp_path / "wh.sqlite"
        dead = _worker("dist", specs, SqliteStore(path), init=True,
                       shard_size=1, worker_id="dead", lease_duration=30.0)
        dead.join()
        # The "crash": claim a shard and never touch it again (a SIGKILLed
        # process does exactly this -- the lease row simply stops moving).
        lease = dead.store.claim_lease("dist", "dead", now=0.0, duration=30.0)
        assert lease is not None and lease.shard == 0

        survivor = _worker("dist", specs, SqliteStore(path), worker_id="live",
                           lease_duration=30.0, clock=FakeClock(31.0))
        summary = survivor.run()
        assert summary.completed == UNIQUE_SIMS
        assert summary.reclaimed == 1     # shard 0, taken over past deadline
        rows = survivor.store.lease_rows("dist")
        assert rows[0].state == "done" and rows[0].attempts == 2
        assert rows[0].reclaims == 1
        assert campaign_status(survivor.store, "dist").complete

    def test_lost_lease_aborts_the_drain(self, specs, tmp_path):
        path = tmp_path / "wh.sqlite"
        slow = _worker("dist", specs, SqliteStore(path), init=True,
                       shard_size=3, worker_id="slow", lease_duration=10.0,
                       heartbeat_interval=0.0, clock=FakeClock(0.0))
        slow.join()
        lease = slow.store.claim_lease("dist", "slow", now=0.0, duration=10.0)
        # Another worker reclaims the shard after the deadline passed...
        thief = SqliteStore(path)
        stolen = thief.claim_lease("dist", "thief", now=11.0, duration=10.0)
        assert stolen is not None and stolen.reclaimed
        # ...so the original holder's next heartbeat fails mid-drain.
        with pytest.raises(LeaseLost):
            slow._drain(lease)
        assert thief.renew_lease("dist", lease.shard, "thief",
                                 now=12.0, duration=10.0)

    def test_completion_is_idempotent_after_takeover(self, specs, tmp_path):
        # The loser finished the work before noticing the takeover: marking
        # the shard done is still safe (results are content-keyed) and the
        # second complete call is a no-op.
        store = SqliteStore(tmp_path / "wh.sqlite")
        _worker("dist", specs, store, init=True, shard_size=3).join()
        store.claim_lease("dist", "a", now=0.0, duration=5.0)
        store.claim_lease("dist", "b", now=6.0, duration=5.0)
        assert store.complete_lease("dist", 0, "a") is True
        assert store.complete_lease("dist", 0, "b") is False
        assert store.lease_rows("dist")[0].state == "done"


class _PoisonWorker(CampaignWorker):
    """Shard 0 raises on every attempt; everything else drains normally."""

    def _drain(self, lease):
        if lease.shard == 0:
            raise RuntimeError("poison shard")
        return super()._drain(lease)


class TestPoisonShardQuarantine:
    def test_repeated_failure_quarantines_not_wedges(self, specs, tmp_path):
        store = SqliteStore(tmp_path / "wh.sqlite")
        worker = _PoisonWorker("dist", specs, store, init=True, shard_size=1,
                               max_attempts=2, worker_id="w0",
                               clock=FakeClock(), sleep=lambda _s: None)
        summary = worker.run()
        # Two failed attempts on shard 0, then quarantine; shards 1-2 drain.
        assert summary.failed == 2
        assert summary.completed == UNIQUE_SIMS - 1
        rows = store.lease_rows("dist")
        assert rows[0].state == "quarantined"
        assert rows[0].attempts == 2
        assert "RuntimeError: poison shard" in rows[0].last_error
        assert all(row.state == "done" for row in rows[1:])
        status = campaign_status(store, "dist")
        assert not status.complete and status.leases["quarantined"] == 1

    def test_interrupt_releases_the_held_shard(self, specs, tmp_path):
        class _Interrupted(CampaignWorker):
            def _drain(self, lease):
                raise KeyboardInterrupt

        store = SqliteStore(tmp_path / "wh.sqlite")
        worker = _Interrupted("dist", specs, store, init=True, shard_size=3,
                              worker_id="w0", clock=FakeClock(),
                              sleep=lambda _s: None)
        with pytest.raises(KeyboardInterrupt):
            worker.run()
        rows = store.lease_rows("dist")
        # Ctrl-C gives the shard straight back: no waiting out the lease.
        assert rows[0].state == "pending" and rows[0].worker is None


# --------------------------------------------------------------------------- #
# Property-based lease state machine
# --------------------------------------------------------------------------- #


class TestLeaseStateMachine:
    """Random interleavings of claim/renew/expire/complete/crash/release
    against the real lease table, checked against a belief model:

    * a shard is never held by two *live* leases (two workers whose claimed
      deadline has not passed both believing they own it);
    * attempt counts are monotone non-decreasing;
    * after draining, every shard ends ``done`` or ``quarantined``.
    """

    SHARDS = 5
    WORKERS = ("w0", "w1", "w2")
    DURATION = 10.0
    MAX_ATTEMPTS = 3

    def _check(self, store, clock, held, attempts_seen):
        rows = store.lease_rows("prop")
        for row in rows:
            assert row.attempts >= attempts_seen[row.shard], (
                f"shard {row.shard}: attempts went backwards "
                f"({attempts_seen[row.shard]} -> {row.attempts})"
            )
            attempts_seen[row.shard] = row.attempts
        for shard in range(self.SHARDS):
            live = [
                worker
                for worker in self.WORKERS
                if held[worker].get(shard, -1.0) >= clock
            ]
            assert len(live) <= 1, (
                f"shard {shard} held by two live leases at t={clock}: {live}"
            )

    def _machine(self, tmp_path, seed: int, events: int = 120) -> None:
        rng = random.Random(seed)
        store = SqliteStore(tmp_path / f"wh-{seed}.sqlite")
        store.init_leases(
            "prop", [[f"key-{index}"] for index in range(self.SHARDS)]
        )
        clock = 0.0
        held: dict[str, dict[int, float]] = {w: {} for w in self.WORKERS}
        attempts_seen = {shard: 0 for shard in range(self.SHARDS)}

        for _ in range(events):
            event = rng.choice(
                ("claim", "claim", "renew", "advance", "complete",
                 "crash", "release")
            )
            worker = rng.choice(self.WORKERS)
            if event == "claim":
                lease = store.claim_lease(
                    "prop", worker, now=clock, duration=self.DURATION,
                    max_attempts=self.MAX_ATTEMPTS,
                )
                if lease is not None:
                    held[worker][lease.shard] = lease.deadline
            elif event == "advance":
                clock += rng.uniform(0.0, 1.5 * self.DURATION)
            elif held[worker]:
                shard = rng.choice(sorted(held[worker]))
                if event == "renew":
                    renewed = store.renew_lease(
                        "prop", shard, worker, now=clock,
                        duration=self.DURATION,
                    )
                    if renewed:
                        held[worker][shard] = clock + self.DURATION
                    else:
                        held[worker].pop(shard)   # takeover discovered
                elif event == "complete":
                    store.complete_lease("prop", shard, worker)
                    held[worker].pop(shard)
                elif event == "release":
                    store.release_lease(
                        "prop", shard, worker, error="released",
                        quarantine_after=self.MAX_ATTEMPTS,
                    )
                    held[worker].pop(shard)
                elif event == "crash":
                    held[worker] = {}   # SIGKILL: beliefs die, rows persist
            self._check(store, clock, held, attempts_seen)

        # Drain to termination: a finisher that always waits out leases.
        for _ in range(4 * self.SHARDS * self.MAX_ATTEMPTS):
            clock += self.DURATION + 1.0
            lease = store.claim_lease(
                "prop", "finisher", now=clock, duration=self.DURATION,
                max_attempts=self.MAX_ATTEMPTS,
            )
            if lease is None:
                summary = store.lease_summary("prop")
                if not summary["pending"] and not summary["leased"]:
                    break
                continue
            store.complete_lease("prop", lease.shard, "finisher")
        summary = store.lease_summary("prop")
        assert summary["done"] + summary["quarantined"] == self.SHARDS, (
            f"seed {seed}: non-terminal shards remain: {summary}"
        )
        for row in store.lease_rows("prop"):
            assert row.state in ("done", "quarantined")
            assert row.attempts >= 1

    @pytest.mark.parametrize("seed", [7, 19, 23, 42, 1984])
    def test_random_interleavings_preserve_invariants(self, tmp_path, seed):
        self._machine(tmp_path, seed)


# --------------------------------------------------------------------------- #
# Degenerate manifests and error paths
# --------------------------------------------------------------------------- #


class TestDegenerateManifests:
    def test_progress_percent_on_zero_spec_manifest(self):
        tick = CampaignProgress(
            name="empty", batch=0, batches=0, simulations_done=0,
            simulations_total=0, executed=0, elapsed_seconds=0.0,
            eta_seconds=None,
        )
        assert tick.percent == 100.0   # not a ZeroDivisionError

    def test_status_percent_on_zero_spec_manifest(self):
        status = CampaignStatus(
            name="empty", created_at=None, code_version=None,
            current_code_version="x", entries=0, entries_complete=0,
            simulations_total=0, simulations_stored=0, source="",
        )
        assert status.percent == 100.0 and status.complete
        assert status.leases is None   # never joined by a worker

    def test_join_unknown_campaign_is_a_clear_error(self, specs, tmp_path):
        store = SqliteStore(tmp_path / "wh.sqlite")
        with pytest.raises(ValueError) as excinfo:
            _worker("ghost", specs, store).join()
        message = str(excinfo.value)
        assert "unknown campaign 'ghost'" in message
        assert "--init" in message   # tells the user how to proceed

    def test_init_with_zero_specs_is_refused(self, tmp_path):
        store = SqliteStore(tmp_path / "wh.sqlite")
        with pytest.raises(ValueError, match="no scenarios"):
            _worker("empty", [], store, init=True).join()

    def test_shard_plan_dedups_preserving_manifest_order(self):
        manifest = {
            "entries": [
                {"key": "m0", "baseline_key": "base"},
                {"key": "m1", "baseline_key": "base"},
                {"key": "base", "baseline_key": "base"},
            ]
        }
        assert manifest_shard_plan(manifest, 2) == [["m0", "base"], ["m1"]]
        assert manifest_shard_plan({"entries": []}, 4) == []

    def test_lease_summary_without_workers_is_none(self, tmp_path):
        store = SqliteStore(tmp_path / "wh.sqlite")
        assert store.lease_summary("never-joined") is None

    def test_delete_campaign_drops_its_lease_rows(self, specs, tmp_path):
        # Orphaned lease rows would make a later same-named campaign adopt
        # a stale shard plan.
        store = SqliteStore(tmp_path / "wh.sqlite")
        worker = _worker("dist", specs, store, init=True)
        worker.join()
        assert store.lease_rows("dist")
        assert store.delete_campaign("dist")
        assert store.lease_rows("dist") == []
        assert store.lease_summary("dist") is None


# --------------------------------------------------------------------------- #
# CLI verbs
# --------------------------------------------------------------------------- #


CLI_SUITE = {
    "suite": "cli-dist",
    "scenarios": [
        {
            "family": "cross-product",
            "params": {
                "trackers": ["none", "dapper-h"],
                "attacks": ["none"],
                "workloads": ["453.povray"],
                "requests_per_core": REQUESTS,
                "geometry": "reduced",
            },
        }
    ],
}


class TestWorkerCli:
    @pytest.fixture()
    def suite_path(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(CLI_SUITE), encoding="utf-8")
        return path

    def test_worker_leases_status_round_trip(
        self, tmp_path, suite_path, capsys
    ):
        from repro.cli import main

        store_arg = ["--store", str(tmp_path / "wh.sqlite")]
        assert main([
            "campaign", "worker", str(suite_path), *store_arg,
            "--init", "--shard-size", "1", "--worker-id", "cli-w0",
        ]) == 0
        out = capsys.readouterr().out
        assert "2/2 shard(s) completed here" in out
        assert "0 reclaimed, 0 lost, 0 failed" in out

        assert main(["campaign", "leases", "cli-dist", *store_arg]) == 0
        leases_out = capsys.readouterr().out
        assert "done" in leases_out and "cli-w0" in leases_out
        assert "2/2 shard(s) done" in leases_out

        assert main(["campaign", "status", "cli-dist", *store_arg]) == 0
        status_out = capsys.readouterr().out
        # The pre-existing greppable lines survive the lease additions...
        assert "state         : complete" in status_out
        # ...and the distributed accounting rides below them.
        assert "shards        : 2/2 done" in status_out
        assert "cli-w0: 2 shard(s) completed" in status_out

    def test_worker_without_init_on_unknown_campaign_exits_2(
        self, tmp_path, suite_path, capsys
    ):
        from repro.cli import main

        code = main([
            "campaign", "worker", str(suite_path),
            "--store", str(tmp_path / "wh.sqlite"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown campaign" in err and "Traceback" not in err

    def test_leases_on_unknown_campaign_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "campaign", "leases", "nope",
            "--store", str(tmp_path / "wh.sqlite"),
        ])
        assert code == 2
        assert "unknown campaign" in capsys.readouterr().err

    def test_leases_on_non_warehouse_store_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "cache").write_text("not a warehouse", encoding="utf-8")
        code = main([
            "campaign", "leases", "any", "--store", str(tmp_path / "cache"),
        ])
        assert code == 2
        assert "cannot open" in capsys.readouterr().err

    def test_leases_before_any_worker_joined(
        self, tmp_path, suite_path, capsys
    ):
        from repro.cli import main

        store_arg = ["--store", str(tmp_path / "wh.sqlite")]
        assert main([
            "campaign", "run", str(suite_path), *store_arg,
        ]) == 0
        capsys.readouterr()
        assert main(["campaign", "leases", "cli-dist", *store_arg]) == 0
        assert "no lease rows" in capsys.readouterr().out


# --------------------------------------------------------------------------- #
# Fault injection: real workers, real SIGKILL
# --------------------------------------------------------------------------- #


DIST_SUITE = {
    "suite": "chaos",
    "scenarios": [
        {
            "family": "cross-product",
            "params": {
                "trackers": list(TRACKERS),
                "attacks": ["none"],
                "workloads": ["453.povray", "429.mcf"],
                "requests_per_core": REQUESTS,
                "geometry": "reduced",
            },
        }
    ],
}


class TestFaultInjection:
    """3 real worker subprocesses, one SIGKILLed while holding a lease."""

    LEASE_DURATION = "2"

    def _spawn(self, suite, db, worker_id, extra=()):
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(src), env.get("PYTHONPATH")) if part
        )
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "campaign", "worker",
                str(suite), "--store", str(db), "--init",
                "--worker-id", worker_id, "--shard-size", "2",
                "--lease-duration", self.LEASE_DURATION, *extra,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    def _wait_for_lease(self, db, holder, timeout=60.0):
        """Poll until ``holder`` has a live leased shard; returns it."""
        deadline = time.monotonic() + timeout
        store = None
        while time.monotonic() < deadline:
            if store is None and db.exists():
                store = SqliteStore(db)
            if store is not None:
                for row in store.lease_rows("chaos"):
                    if row.state == "leased" and row.worker == holder:
                        store.close()
                        return row
            time.sleep(0.005)
        raise AssertionError(f"worker {holder!r} never claimed a lease")

    def test_sigkill_mid_shard_loses_nothing(self, tmp_path, specs):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps(DIST_SUITE), encoding="utf-8")
        db = tmp_path / "wh.sqlite"

        # The victim starts alone, so it is guaranteed to be the one holding
        # a lease when the axe falls.
        victim = self._spawn(suite, db, "victim")
        try:
            self._wait_for_lease(db, "victim")
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:       # pragma: no cover - cleanup
                victim.kill()
        assert victim.returncode == -signal.SIGKILL

        # The orphaned lease: SIGKILL leaves the victim's shard leased to a
        # dead process (kill latency is microseconds against ~100ms shards,
        # so the victim cannot have slipped to an idle instant).
        store = SqliteStore(db)
        orphans = [
            row for row in store.lease_rows("chaos")
            if row.state == "leased" and row.worker == "victim"
        ]
        assert orphans, "victim died without holding a lease"
        held = orphans[0]
        store.close()

        survivors = [
            self._spawn(suite, db, f"survivor-{index}") for index in range(3)
        ]
        outputs = []
        for proc in survivors:
            out, err = proc.communicate(timeout=300)
            outputs.append((proc.returncode, out, err))
        assert all(code == 0 for code, _out, _err in outputs), outputs

        store = SqliteStore(db)
        status = campaign_status(store, "chaos")
        assert status.complete and status.percent == 100.0

        # The victim's shard went back to the pool and was finished by a
        # survivor (not quarantined: one crash burns one attempt).
        leases = store.lease_summary("chaos")
        assert leases["quarantined"] == 0
        assert leases["reclaims"] >= 1
        victim_shard = next(
            row for row in store.lease_rows("chaos")
            if row.shard == held.shard
        )
        assert victim_shard.state == "done"
        assert victim_shard.worker.startswith("survivor-")
        assert victim_shard.reclaims >= 1

        # Zero lost: every unique simulation is stored.  Zero duplicated:
        # the runs table is keyed by scenario hash, so equality of the two
        # key sets is exact.
        from repro.store.campaign import _manifest_keys, load_manifest

        keys = _manifest_keys(load_manifest(store, "chaos"))
        assert store.keys() & keys == keys
        assert all("0 failed" in out for _code, out, _err in outputs)

        # Byte-identical to a serial single-worker run of the same suite.
        from repro.scenarios import load_suite

        serial_store = SqliteStore(tmp_path / "serial.sqlite")
        Campaign("chaos", load_suite(suite).compile(), serial_store).run()
        assert _stable(campaign_report(store, "chaos")) == \
            _stable(campaign_report(serial_store, "chaos"))


class TestSigtermRelease:
    """SIGTERM is a polite shutdown: the worker releases its lease *now*.

    Unlike the SIGKILL case above (where the shard sits leased to a dead
    process until the deadline passes), a SIGTERM'd worker exits through the
    KeyboardInterrupt path -- same exit code as Ctrl-C, lease released
    immediately.  The lease duration here is a deliberately long 60s so the
    distinction is observable: a successor drains the released shard right
    away, with zero reclaims, which could not happen inside the test timeout
    if the shard were merely waiting out an orphaned lease.
    """

    def _spawn(self, suite, db, worker_id):
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(src), env.get("PYTHONPATH")) if part
        )
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "campaign", "worker",
                str(suite), "--store", str(db), "--init",
                "--worker-id", worker_id, "--shard-size", "2",
                "--lease-duration", "60",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    def test_sigterm_releases_lease_promptly(self, tmp_path):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps(DIST_SUITE), encoding="utf-8")
        db = tmp_path / "wh.sqlite"

        victim = self._spawn(suite, db, "victim")
        try:
            # Reuse the fault-injection poll: live leased shard held by victim.
            TestFaultInjection._wait_for_lease(
                TestFaultInjection(), db, "victim"
            )
            victim.send_signal(signal.SIGTERM)
            out, err = victim.communicate(timeout=60)
        finally:
            if victim.poll() is None:       # pragma: no cover - cleanup
                victim.kill()
                victim.communicate(timeout=30)
        # Same exit code as Ctrl-C: the signal became a KeyboardInterrupt.
        assert victim.returncode == 130, (victim.returncode, out, err)
        assert "interrupted" in err

        # The held shard went straight back to the pool -- no worker, no
        # waiting out the 60s deadline.  (The SIGTERM may also have landed
        # between shards; either way nothing may be left leased.)
        store = SqliteStore(db)
        rows = store.lease_rows("chaos")
        assert rows, "victim exited before initialising the lease table"
        assert all(row.state in ("pending", "done") for row in rows)
        assert all(
            row.worker is None for row in rows if row.state == "pending"
        )
        store.close()

        # A successor claims the released shards as ordinary pending work:
        # completing inside the timeout with zero reclaims is only possible
        # because the victim released rather than orphaned its lease.
        successor = self._spawn(suite, db, "successor")
        out, err = successor.communicate(timeout=300)
        assert successor.returncode == 0, (successor.returncode, out, err)
        assert "0 reclaimed" in out
        store = SqliteStore(db)
        status = campaign_status(store, "chaos")
        assert status.complete and status.percent == 100.0
        store.close()
