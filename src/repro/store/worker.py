"""The campaign drain: lease-based and crash-safe, in one process or a fleet.

``campaign run`` is a :class:`CampaignWorker`.  It creates or adopts the
campaign's manifest, writes the shard plan into the warehouse's ``leases``
table (:class:`~repro.store.backend.SqliteStore`, schema v4) and drains the
campaign by claiming shards.  The same command in N processes -- on one
host, or on N hosts sharing the warehouse file -- is a fleet: every process
is an equal worker of the one plan.

The protocol, designed so that a worker may die at *any* instruction without
losing or duplicating results:

1. **Join.**  A worker compiles the suite and compares it key-for-key with
   the saved manifest.  A new campaign gets its manifest; a changed suite is
   refused unless ``force`` replaces the manifest, and saving a manifest
   drops the old one's lease rows in the same transaction.  Both writes are
   a compare-and-swap against the manifest the worker read, so of workers
   racing to create (or to force-replace) a campaign one writes and the
   others adopt its manifest and plan.  The worker then
   idempotently writes the shard plan: the campaign's unique simulation
   keys, in manifest order, chunked into shards.  The first worker to join
   writes the plan; everyone else adopts it, so the plan never depends on
   per-worker flags.  A plan whose keys differ from the manifest's is
   refused unless ``force`` replaces both.
2. **Claim.**  Workers atomically claim a ``pending`` shard -- or reclaim
   one whose lease expired because its holder died -- under a
   ``BEGIN IMMEDIATE`` transaction (exactly one winner per shard, enforced
   by the database write lock).  A claimed shard holding a key outside the
   worker's compiled suite (a forced run replaced the campaign after this
   worker joined) goes straight back to ``pending``, and the worker stops
   with an error.
3. **Drain + heartbeat.**  A claimed shard executes through
   :meth:`~repro.sim.sweep.SweepRunner.ensure` on one process pool that
   stays open for the whole drain, committing every completed simulation to
   the store the moment it finishes.  As results land the worker renews its
   lease on a clock interval; a failed renewal means the lease expired and
   another worker took the shard over, so this worker abandons it (the
   results it already committed stay valid -- they are keyed by scenario
   hash, and re-executing a stored key is a cheap membership check).
4. **Complete / fail.**  A drained shard is marked ``done`` idempotently,
   and only while its row still holds the keys the worker drained.
   A shard that *raises* goes back to the pool with its attempt count
   intact; after ``max_attempts`` failed attempts it is quarantined
   (poison-shard exit) so one crashing scenario cannot wedge the campaign.
5. **Linger.**  A worker with nothing claimable but non-terminal shards
   outstanding polls until every shard is ``done`` or ``quarantined`` --
   that is what guarantees a campaign finishes even when the worker holding
   the last shard is SIGKILLed: a survivor waits out the lease and reclaims.

An interrupted worker (``KeyboardInterrupt``; the CLI routes SIGTERM there
too) releases its shard at once.  A SIGKILLed one cannot: its shard stays
leased, and a rerun drains every other shard first and reclaims that one
when the lease expires, at most ``lease_duration`` later.

Results are exactly the records a one-worker drain stores (same keys, same
bytes); leases only coordinate *who* computes what.  The wall clock is
injectable (``clock``/``sleep``) so every lease transition is testable under
a simulated clock; the fault-injection and property suites in
``tests/test_distributed_campaign.py`` exercise the real-SIGKILL and
random-interleaving cases.
"""

from __future__ import annotations

import logging
import os
import socket
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.sim.sweep import CODE_VERSION, ScenarioSpec, SweepRunner
from repro.store.backend import LeaseRow, SqliteStore
from repro.store.campaign import (
    _manifest_keys,
    build_manifest,
    validate_campaign_name,
)

_LOG = logging.getLogger("repro.worker")

#: Default seconds a claimed lease stays valid without a heartbeat.  Must
#: comfortably exceed the slowest single simulation; expiry is how dead
#: workers are detected, so shorter means faster reclaim but more heartbeat
#: traffic.
DEFAULT_LEASE_DURATION = 60.0

#: Default attempt budget per shard before quarantine.
DEFAULT_MAX_ATTEMPTS = 3


def default_worker_id() -> str:
    """Host-qualified default worker identity (``<hostname>-<pid>``)."""
    return f"{socket.gethostname()}-{os.getpid()}"


def manifest_shard_plan(manifest: dict, shard_size: int) -> list[list[str]]:
    """The deterministic shard plan of a manifest.

    Unique simulation keys (measured runs and their baselines, first-seen
    order over the manifest entries) chunked into ``shard_size`` slices.
    Derived purely from the persisted manifest so every worker computes the
    identical plan, whatever order its suite compiled in.
    """
    seen: set[str] = set()
    ordered: list[str] = []
    for entry in manifest.get("entries", ()):
        for key in (entry["key"], entry["baseline_key"]):
            if key not in seen:
                seen.add(key)
                ordered.append(key)
    size = max(1, int(shard_size))
    return [ordered[offset:offset + size] for offset in range(0, len(ordered), size)]


class LeaseLost(RuntimeError):
    """A heartbeat failed: the shard's lease expired and was reclaimed."""


@dataclass(frozen=True)
class WorkerSummary:
    """What one :meth:`CampaignWorker.run` invocation did."""

    campaign: str
    worker_id: str
    simulations: int           # unique simulations the campaign needs
    already_stored: int        # of those, stored when this worker joined
    shards: int                # shard rows the campaign has
    completed: int             # shards this worker drained to done
    reclaimed: int             # claims that took over an expired lease
    lost: int                  # shards abandoned after losing the lease
    failed: int                # shard attempts that raised
    executed: int              # simulations this worker actually ran
    elapsed_seconds: float


def check_worker_arguments(name: str, lease_duration: float) -> str:
    """Refuse a campaign name or lease duration no worker can use.

    Raises :class:`ValueError`; returns ``name``.  ``campaign run`` calls it
    before it opens the warehouse, so a refused command line creates no file.
    """
    if not float(lease_duration) > 0:
        raise ValueError(f"lease_duration must be positive, got {lease_duration}")
    return validate_campaign_name(name)


class CampaignWorker:
    """One lease-driven drain participant of a named campaign.

    ``specs`` is the compiled suite.  Joining creates the campaign when it
    does not exist yet and adopts it when the suite matches the saved
    manifest key-for-key; ``force=True`` replaces a manifest or shard plan
    that does not match, and a plan with quarantined shards, so they run
    again.
    """

    def __init__(
        self,
        name: str,
        specs: Sequence[ScenarioSpec],
        store: SqliteStore,
        worker_id: str | None = None,
        jobs: int = 1,
        shard_size: int = 32,
        lease_duration: float = DEFAULT_LEASE_DURATION,
        heartbeat_interval: float | None = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        poll_interval: float | None = None,
        force: bool = False,
        source: str = "",
        description: str = "",
        track_memory: bool = False,
        clock: Callable[[], float] = time.time,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.name = check_worker_arguments(name, lease_duration)
        self.specs = list(specs)
        self.store = store
        self.worker_id = worker_id or default_worker_id()
        self.shard_size = max(1, int(shard_size))
        self.lease_duration = float(lease_duration)
        self.heartbeat_interval = (
            float(heartbeat_interval)
            if heartbeat_interval is not None
            else self.lease_duration / 3.0
        )
        self.max_attempts = max(1, int(max_attempts))
        self.poll_interval = (
            float(poll_interval)
            if poll_interval is not None
            else min(1.0, self.lease_duration / 4.0)
        )
        self.force = bool(force)
        self.source = source
        self.description = description
        self._clock = clock
        self._sleep = sleep
        self._runner = SweepRunner(
            store=store, jobs=jobs, track_memory=track_memory
        )
        self._plan: dict[str, ScenarioSpec] = {}
        self._stored: set[str] = set()
        self.manifest: dict | None = None
        self.shard_count = 0

    # ------------------------------------------------------------------ #

    def join(self) -> int:
        """Create or adopt the manifest and its shard plan.

        Returns the campaign's shard count.  Safe to call from any number
        of workers concurrently: a manifest is written only when it is
        created or replaced, as a compare-and-swap against the manifest
        this worker read, so of racing creators (or racing ``force``
        replacements) one wins and the rest adopt its manifest and plan;
        the shard plan is first-writer-wins.
        """
        plan: dict[str, ScenarioSpec] = {}
        for spec in self.specs:
            plan.setdefault(spec.cache_key(), spec)
            baseline = spec.baseline_spec()
            plan.setdefault(baseline.cache_key(), baseline)
        manifest = self.store.load_campaign(self.name)
        while manifest is None or self._replace(manifest, set(plan)):
            fresh = build_manifest(
                self.name,
                self.specs,
                source=self.source,
                description=self.description,
            )
            if self.store.swap_campaign(self.name, fresh, expected=manifest):
                manifest = fresh
                break
            # Another process created or replaced it first: check theirs.
            manifest = self.store.load_campaign(self.name)
        self.manifest = manifest
        self._plan = plan
        self._stored = self.store.keys() & set(plan)
        self.shard_count = self.store.init_leases(
            self.name, manifest_shard_plan(manifest, self.shard_size)
        )
        return self.shard_count

    def _replace(self, manifest: dict, keys: set[str]) -> bool:
        """Whether ``force`` replaces a saved campaign; raises without it."""
        rows = self.store.lease_rows(self.name)
        planned = {key for row in rows for key in row.keys}
        if _manifest_keys(manifest) != keys:
            problem = (
                "already exists with a different scenario set: the compiled "
                "suite does not match the saved manifest (saved under code "
                f"version {manifest.get('code_version')!r}, current "
                f"{CODE_VERSION!r})"
            )
        elif planned and planned != keys:
            problem = "has a shard plan whose keys differ from its manifest's"
        else:
            return self.force and any(
                row.state == "quarantined" for row in rows
            )
        if not self.force:
            raise ValueError(
                f"campaign {self.name!r} {problem}; rerun with --force "
                "(force=True) to replace its manifest and shard plan, or "
                "pick a new name to keep both for diffing"
            )
        return True

    # ------------------------------------------------------------------ #

    def run(self, max_shards: int | None = None) -> WorkerSummary:
        """Claim and drain shards until the campaign is fully terminal.

        Returns once every shard is ``done`` or ``quarantined`` (or after
        ``max_shards`` shard attempts, for bounded participation).  While
        other workers still hold live leases the worker lingers, polling:
        if one of them dies, its lease expires and this worker reclaims the
        shard -- that linger is what makes an N-worker drain survive the
        SIGKILL of any worker.  ``KeyboardInterrupt`` releases every shard
        this worker holds before it propagates.
        """
        started = time.perf_counter()
        if self.manifest is None:
            self.join()
        done_at_start = self._progress()[0]
        completed = reclaimed = lost = failed = executed = 0
        with self._runner.pooled():
            try:
                while max_shards is None or (completed + lost + failed) < max_shards:
                    lease = self.store.claim_lease(
                        self.name,
                        self.worker_id,
                        now=self._clock(),
                        duration=self.lease_duration,
                        max_attempts=self.max_attempts,
                    )
                    if lease is None:
                        summary = self.store.lease_summary(self.name)
                        if summary is None or not (
                            summary["pending"] or summary["leased"]
                        ):
                            break   # every shard is done or quarantined
                        _LOG.debug(
                            "worker %s: nothing claimable (%d shard(s) leased "
                            "elsewhere); polling",
                            self.worker_id, summary["leased"],
                        )
                        self._sleep(self.poll_interval)
                        continue
                    self._check_plan(lease)
                    if lease.reclaimed:
                        reclaimed += 1
                        _LOG.info(
                            "worker %s reclaimed shard %d (attempt %d) from a "
                            "dead or stalled worker",
                            self.worker_id, lease.shard, lease.attempts,
                        )
                    try:
                        ran = self._drain(lease)
                    except LeaseLost:
                        lost += 1
                        _LOG.warning(
                            "worker %s lost the lease on shard %d mid-drain; "
                            "abandoning it to its new holder",
                            self.worker_id, lease.shard,
                        )
                        continue
                    except Exception as error:
                        failed += 1
                        state = self.store.release_lease(
                            self.name,
                            lease.shard,
                            self.worker_id,
                            error=f"{type(error).__name__}: {error}",
                            quarantine_after=self.max_attempts,
                        )
                        _LOG.error(
                            "worker %s: shard %d attempt %d raised (%s); "
                            "shard -> %s",
                            self.worker_id, lease.shard, lease.attempts, error,
                            state or "reclaimed elsewhere",
                        )
                        continue
                    self.store.complete_lease(
                        self.name, lease.shard, self.worker_id, lease.keys
                    )
                    completed += 1
                    executed += ran
                    self._log_shard(lease, ran, started, done_at_start)
            except KeyboardInterrupt:
                # Give held shards back at once so nobody waits out the
                # lease; completed simulations stay committed.
                self._release_held()
                raise
        return WorkerSummary(
            campaign=self.name,
            worker_id=self.worker_id,
            simulations=len(self._plan),
            already_stored=len(self._stored),
            shards=self.shard_count,
            completed=completed,
            reclaimed=reclaimed,
            lost=lost,
            failed=failed,
            executed=executed,
            elapsed_seconds=time.perf_counter() - started,
        )

    def _check_plan(self, lease: LeaseRow) -> None:
        """Refuse a shard drawn from another manifest: put it back undrained."""
        foreign = [key for key in lease.keys if key not in self._plan]
        if not foreign:
            return
        self.store.release_lease(self.name, lease.shard, self.worker_id)
        raise ValueError(
            f"campaign {self.name!r} was replaced after this worker joined: "
            f"shard {lease.shard} holds {len(foreign)} key(s) outside the "
            "compiled suite; the shard went back to pending -- rerun with "
            "the current suite"
        )

    def _drain(self, lease: LeaseRow) -> int:
        """Execute one shard's missing simulations, heartbeating as results
        land; raises :class:`LeaseLost` if a renewal fails."""
        last_beat = self._clock()

        def heartbeat() -> None:
            nonlocal last_beat
            now = self._clock()
            if now - last_beat < self.heartbeat_interval:
                return
            if not self.store.renew_lease(
                self.name,
                lease.shard,
                self.worker_id,
                now=now,
                duration=self.lease_duration,
            ):
                raise LeaseLost(f"shard {lease.shard} of campaign {self.name!r}")
            last_beat = now

        specs = [self._plan[key] for key in lease.keys if key not in self._stored]
        return self._runner.ensure(specs, progress=heartbeat)

    def _progress(self) -> tuple[int, int, int, int]:
        """``(simulations done, total, shards done, shards)`` of the plan."""
        rows = self.store.lease_rows(self.name)
        done = [row for row in rows if row.state == "done"]
        return (
            sum(len(row.keys) for row in done),
            sum(len(row.keys) for row in rows),
            len(done),
            len(rows),
        )

    def _log_shard(
        self, lease: LeaseRow, ran: int, started: float, done_at_start: int
    ) -> None:
        """One INFO line per drained shard: campaign progress and an ETA
        from the rate at which shards of the campaign complete."""
        done, total, shards_done, shards = self._progress()
        elapsed = time.perf_counter() - started
        rate = (done - done_at_start) / elapsed if elapsed > 0 else 0.0
        eta = f"{(total - done) / rate:.0f}s" if rate > 0 else "unknown"
        _LOG.info(
            "campaign %r: worker %s completed shard %d (%d/%d executed "
            "here); %d/%d shards, %d/%d simulations (%.1f%%), eta %s",
            self.name, self.worker_id, lease.shard, ran, len(lease.keys),
            shards_done, shards, done, total,
            100.0 * done / total if total else 100.0, eta,
        )

    def _release_held(self) -> None:
        """Give every shard this worker holds back to ``pending``."""
        for row in self.store.lease_rows(self.name):
            if row.state == "leased" and row.worker == self.worker_id:
                self.store.release_lease(self.name, row.shard, self.worker_id)
