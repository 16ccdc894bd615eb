"""The experiment warehouse: persistent, queryable storage of simulation runs.

``repro.store`` turns the sweep engine's per-run memoization into a real
subsystem with four layers:

* :mod:`repro.store.backend` -- :class:`SqliteStore`, the warehouse itself:
  one SQLite database (WAL mode, schema-versioned with migrations, indexed
  scenario columns, per-run timing, metrics, campaign manifests and leases).
* :mod:`repro.store.campaign` -- campaign manifests: what a campaign is,
  how far it got, its result table and diffs between campaigns.
* :mod:`repro.store.worker` -- the campaign drain behind ``campaign run``:
  one process, or N of them on one or many hosts, lease shards of a
  campaign from the warehouse's ``leases`` table with heartbeats, crash
  reclaim, bounded attempts and poison-shard quarantine; every completed
  run is checkpointed and a rerun executes only what is missing.
* :mod:`repro.store.query` -- the read side: filter/aggregate stored runs,
  export CSV/JSON, import legacy JSON cache directories and other
  warehouses, garbage-collect stale code versions.

Every entry point (``SweepRunner``, figures, tables, suites, the CLI) reaches
the warehouse through one ``store`` target: a path opens the warehouse file
there (see :func:`open_store`).
"""

from repro.store.backend import (
    SCHEMA_VERSION,
    LeaseRow,
    RunRecord,
    SqliteStore,
    open_store,
)
from repro.store.campaign import (
    CampaignStatus,
    build_manifest,
    campaign_report,
    campaign_status,
    diff_campaigns,
)
from repro.store.query import (
    aggregate_rows,
    export_rows,
    flatten_record,
    gc_store,
    import_store,
    query_rows,
)
from repro.store.worker import (
    CampaignWorker,
    LeaseLost,
    WorkerSummary,
    default_worker_id,
    manifest_shard_plan,
)

__all__ = [
    "SCHEMA_VERSION",
    "LeaseRow",
    "RunRecord",
    "SqliteStore",
    "open_store",
    "CampaignStatus",
    "build_manifest",
    "campaign_report",
    "campaign_status",
    "diff_campaigns",
    "aggregate_rows",
    "export_rows",
    "flatten_record",
    "gc_store",
    "import_store",
    "query_rows",
    "CampaignWorker",
    "LeaseLost",
    "WorkerSummary",
    "default_worker_id",
    "manifest_shard_plan",
]
