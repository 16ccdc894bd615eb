"""Distributed campaign workers: lease-based, crash-safe multi-host drains.

:class:`~repro.store.campaign.Campaign` executes a suite inside one process
(fanning simulations out over a local pool).  This module removes that
single-process bound: N independent **workers** -- separate processes on one
host, or separate hosts sharing a warehouse file -- drain the *same* campaign
concurrently by leasing shards from the warehouse's ``leases`` table
(:class:`~repro.store.backend.SqliteStore`, schema v4).

The protocol, designed so that a worker may die at *any* instruction without
losing or duplicating results:

1. **Join.**  A worker compiles the suite, verifies it matches the saved
   manifest key-for-key (mixing scenario sets across workers is refused),
   and idempotently initialises the shard plan: the campaign's unique
   simulation keys, in manifest order, chunked into shards and persisted as
   lease rows.  The first worker to join writes the plan; everyone else
   adopts it, so the plan never depends on per-worker flags.
2. **Claim.**  Workers atomically claim a ``pending`` shard -- or reclaim
   one whose lease expired because its holder died -- under a
   ``BEGIN IMMEDIATE`` transaction (exactly one winner per shard, enforced
   by the database write lock).
3. **Drain + heartbeat.**  A claimed shard executes through the ordinary
   :meth:`~repro.sim.sweep.SweepRunner.ensure` path, committing every
   completed simulation to the store the moment it finishes.  Between
   sub-batches the worker renews its lease on a clock interval; a failed
   renewal means the lease expired and another worker took the shard over,
   so this worker abandons it (the results it already committed stay valid
   -- they are keyed by scenario hash, and re-executing a stored key is a
   cheap membership check).
4. **Complete / fail.**  A drained shard is marked ``done`` idempotently.
   A shard that *raises* goes back to the pool with its attempt count
   intact; after ``max_attempts`` failed attempts it is quarantined
   (poison-shard exit) so one crashing scenario cannot wedge the campaign.
5. **Linger.**  A worker with nothing claimable but non-terminal shards
   outstanding polls until every shard is ``done`` or ``quarantined`` --
   that is what guarantees a campaign finishes even when the worker holding
   the last shard is SIGKILLed: a survivor waits out the lease and reclaims.

Results are exactly the records a serial :class:`Campaign` run would have
stored (same keys, same bytes); leases only coordinate *who* computes what.
The wall clock is injectable (``clock``/``sleep``) so every lease transition
is testable under a simulated clock; the fault-injection and property suites
in ``tests/test_distributed_campaign.py`` exercise the real-SIGKILL and
random-interleaving cases.
"""

from __future__ import annotations

import logging
import os
import socket
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.sim.sweep import ScenarioSpec, SweepRunner
from repro.store.backend import LeaseRow, SqliteStore
from repro.store.campaign import (
    _manifest_keys,
    build_manifest,
    validate_campaign_name,
)

_LOG = logging.getLogger("repro.worker")

#: Default seconds a claimed lease stays valid without a heartbeat.  Must
#: comfortably exceed the slowest sub-batch between heartbeats; expiry is
#: how dead workers are detected, so shorter means faster reclaim but more
#: heartbeat traffic.
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
    shards: int                # shard rows the campaign has
    completed: int             # shards this worker drained to done
    reclaimed: int             # claims that took over an expired lease
    lost: int                  # shards abandoned after losing the lease
    failed: int                # shard attempts that raised
    executed: int              # simulations this worker actually ran
    elapsed_seconds: float


class CampaignWorker:
    """One lease-driven drain participant of a named campaign.

    ``specs`` is the compiled suite (the same sequence ``Campaign`` takes);
    the worker refuses to run if its keys differ from the saved manifest's.
    ``init=True`` lets the first worker create the manifest when the
    campaign does not exist yet; without it, joining an unknown campaign is
    an error, so a typo'd name cannot silently start an empty campaign.
    """

    def __init__(
        self,
        name: str,
        specs: Sequence[ScenarioSpec],
        store: SqliteStore,
        worker_id: str | None = None,
        jobs: int = 1,
        shard_size: int = 4,
        lease_duration: float = DEFAULT_LEASE_DURATION,
        heartbeat_interval: float | None = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        poll_interval: float | None = None,
        init: bool = False,
        source: str = "",
        description: str = "",
        track_memory: bool = False,
        clock: Callable[[], float] = time.time,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if not float(lease_duration) > 0:
            raise ValueError(f"lease_duration must be positive, got {lease_duration}")
        self.name = validate_campaign_name(name)
        self.specs = list(specs)
        self.store = store
        self.worker_id = worker_id or default_worker_id()
        self.jobs = max(1, int(jobs))
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
        self.init = bool(init)
        self.source = source
        self.description = description
        self.track_memory = bool(track_memory)
        self._clock = clock
        self._sleep = sleep
        self._plan: dict[str, ScenarioSpec] = {}
        self.manifest: dict | None = None
        self.shard_count = 0

    # ------------------------------------------------------------------ #

    def join(self) -> int:
        """Adopt (or with ``init``, create) the manifest and lease rows.

        Returns the campaign's shard count.  Safe to call from any number
        of workers concurrently: the manifest comparison is read-only and
        lease initialisation is first-writer-wins.
        """
        plan: dict[str, ScenarioSpec] = {}
        for spec in self.specs:
            plan.setdefault(spec.cache_key(), spec)
            baseline = spec.baseline_spec()
            plan.setdefault(baseline.cache_key(), baseline)
        manifest = self.store.load_campaign(self.name)
        if manifest is None:
            if not self.init:
                known = ", ".join(self.store.campaign_names()) or "(none)"
                raise ValueError(
                    f"unknown campaign {self.name!r} -- create it first with "
                    "'campaign run', or pass --init / init=True to let this "
                    f"worker save the manifest; saved campaigns: {known}"
                )
            manifest = build_manifest(
                self.name,
                self.specs,
                source=self.source,
                description=self.description,
            )
            self.store.save_campaign(self.name, manifest)
        if _manifest_keys(manifest) != set(plan):
            raise ValueError(
                f"campaign {self.name!r}: the compiled suite does not match "
                "the saved manifest (the suite file or the simulator code "
                "version changed); workers never replace a manifest -- "
                "re-create the campaign under a new name, or with "
                "'campaign run --force'"
            )
        self.manifest = manifest
        self._plan = plan
        self.shard_count = self.store.init_leases(
            self.name, manifest_shard_plan(manifest, self.shard_size)
        )
        return self.shard_count

    # ------------------------------------------------------------------ #

    def run(self, max_shards: int | None = None) -> WorkerSummary:
        """Claim and drain shards until the campaign is fully terminal.

        Returns once every shard is ``done`` or ``quarantined`` (or after
        ``max_shards`` shard attempts, for bounded participation).  While
        other workers still hold live leases the worker lingers, polling:
        if one of them dies, its lease expires and this worker reclaims the
        shard -- that linger is what makes an N-worker drain survive the
        SIGKILL of any worker.
        """
        started = time.perf_counter()
        if self.manifest is None:
            self.join()
        completed = reclaimed = lost = failed = executed = 0
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
            if lease.reclaimed:
                reclaimed += 1
                _LOG.info(
                    "worker %s reclaimed shard %d (attempt %d) from a dead "
                    "or stalled worker",
                    self.worker_id, lease.shard, lease.attempts,
                )
            try:
                ran = self._drain(lease)
                executed += ran
            except LeaseLost:
                lost += 1
                _LOG.warning(
                    "worker %s lost the lease on shard %d mid-drain; "
                    "abandoning it to its new holder",
                    self.worker_id, lease.shard,
                )
                continue
            except KeyboardInterrupt:
                # Give the shard back immediately so other workers need not
                # wait out the lease; completed simulations stay committed.
                self.store.release_lease(self.name, lease.shard, self.worker_id)
                raise
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
                    "worker %s: shard %d attempt %d raised (%s); shard -> %s",
                    self.worker_id, lease.shard, lease.attempts, error,
                    state or "reclaimed elsewhere",
                )
                continue
            self.store.complete_lease(self.name, lease.shard, self.worker_id)
            completed += 1
            _LOG.info(
                "worker %s completed shard %d (%d/%d key(s) executed here)",
                self.worker_id, lease.shard, ran, len(lease.keys),
            )
        return WorkerSummary(
            campaign=self.name,
            worker_id=self.worker_id,
            shards=self.shard_count,
            completed=completed,
            reclaimed=reclaimed,
            lost=lost,
            failed=failed,
            executed=executed,
            elapsed_seconds=time.perf_counter() - started,
        )

    def _drain(self, lease: LeaseRow) -> int:
        """Execute one shard's missing simulations, heartbeating between
        sub-batches; raises :class:`LeaseLost` if a renewal fails."""
        specs = [self._plan[key] for key in lease.keys if key in self._plan]
        runner = SweepRunner(
            store=self.store, jobs=self.jobs, track_memory=self.track_memory
        )
        executed = 0
        last_beat = self._clock()
        step = max(1, self.jobs)
        for offset in range(0, len(specs), step):
            executed += runner.ensure(specs[offset:offset + step])
            now = self._clock()
            if now - last_beat >= self.heartbeat_interval:
                if not self.store.renew_lease(
                    self.name,
                    lease.shard,
                    self.worker_id,
                    now=now,
                    duration=self.lease_duration,
                ):
                    raise LeaseLost(
                        f"shard {lease.shard} of campaign {self.name!r}"
                    )
                last_beat = now
        return executed
