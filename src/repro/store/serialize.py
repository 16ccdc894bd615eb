"""Machine-readable documents for campaign state.

One serializer per inspection surface -- status, leases, report -- behind
the ``--json`` flags of ``campaign status``, ``campaign leases`` and
``campaign report``, so scripts parse one stable document per verb.  The
human table output of those verbs is rendered separately and is not
affected.

Every document is plain JSON-serializable data (dicts, lists, scalars); no
dataclasses or store handles leak out.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.store.backend import LeaseRow
from repro.store.campaign import CampaignStatus


def status_document(status: CampaignStatus) -> dict:
    """The JSON shape of one campaign's completion accounting."""
    return {
        "name": status.name,
        "created_at": status.created_at,
        "code_version": status.code_version,
        "current_code_version": status.current_code_version,
        "source": status.source,
        "entries": status.entries,
        "entries_complete": status.entries_complete,
        "simulations_total": status.simulations_total,
        "simulations_stored": status.simulations_stored,
        "percent": status.percent,
        "state": "complete" if status.complete else "resumable",
        "leases": status.leases,
    }


def lease_document(rows: Sequence[LeaseRow], summary: dict | None) -> dict:
    """The JSON shape of a campaign's per-shard lease table."""
    return {
        "shards": [
            {
                "shard": row.shard,
                "keys": len(row.keys),
                "state": row.state,
                "worker": row.worker,
                "deadline": row.deadline,
                "heartbeats": row.heartbeats,
                "attempts": row.attempts,
                "reclaims": row.reclaims,
                "last_error": row.last_error,
                "acquired_at": row.acquired_at,
                "completed_at": row.completed_at,
            }
            for row in rows
        ],
        "summary": summary,
    }


def report_document(report: dict) -> dict:
    """The JSON shape of a campaign report.

    ``report`` is the :func:`repro.store.campaign.campaign_report` dict; the
    document carries every complete row in manifest order, so ``offset`` is
    always 0 and ``next_offset`` always ``None``.
    """
    rows = list(report.get("rows", []))
    return {
        "campaign": report.get("campaign"),
        "rows": rows,
        "incomplete_entries": report.get("incomplete_entries", 0),
        "leases": report.get("leases"),
        "total_rows": len(rows),
        "offset": 0,
        "limit": None,
        "returned": len(rows),
        "next_offset": None,
    }
