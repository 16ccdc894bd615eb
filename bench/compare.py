"""Compare two benchmark reports with the repo's decision rule.

Usage::

    python bench/run.py --parent ../parent --runs 10 -o AB.json
    python bench/compare.py AB.json        # parent (A) vs change (B), interleaved
    python bench/compare.py A.json B.json  # two sets taken one after the other

For every (workload, end-to-end metric) pair the rule is, with the bound
taken from ``BENCHMARK.json``:

* A's spread (interquartile range over median) wider than the bound: the
  pair is *unresolved*, unless every run of B reads better than every run
  of A.
* B's median worse than A's by more than the bound: a *regression*.
* A *gain* needs interleaved runs (``run.py --parent``): B better in at
  least nine tenths of at least ten pairs (the parent's and the change's
  run of one round, ties counting for neither) and the medians further
  apart than A's interquartile range.  Two sets taken one after the other
  see different host drift, so they can show a regression or its absence
  but never a gain.
* Otherwise: no regression.

Quartiles are those ``run.py`` reports (``run.summary``).  A change that
fails more simulations than A regresses whatever the timings.  Per-layer
metrics are printed side by side, without a verdict.

Exit code: 1 on any regression, 2 when something is unresolved (and nothing
regressed), 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import summary

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: Paired runs a gain needs before it may be claimed.
MIN_PAIRS = 10


def verdict(
    a: list[float], b: list[float], better: str, bound: float, paired: bool
) -> dict:
    """Apply the decision rule to one metric's samples (A, then B).

    ``paired``: run ``i`` of A and run ``i`` of B were taken in one round of
    interleaved runs.
    """
    sa, sb = summary(a), summary(b)
    a_med, a_iqr = sa["median"], sa["q3"] - sa["q1"]
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (sb["median"] - a_med) / a_med
    pairs = list(zip(a, b)) if paired else []
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if better == "lower":
        every_run_better = max(b) < min(a)
    else:
        every_run_better = min(b) > max(a)
    if a_iqr / a_med > bound:
        status = "better in every run" if every_run_better else "unresolved"
    elif worse > bound:
        status = "REGRESSION"
    elif (
        worse < 0
        and len(pairs) >= MIN_PAIRS
        and wins >= 0.9 * len(pairs)
        and abs(sb["median"] - a_med) > a_iqr
    ):
        status = "gain"
    else:
        status = "no regression"
    return {
        "a": (a_med, sa["q1"], sa["q3"]),
        "b": (sb["median"], sb["q1"], sb["q3"]),
        "change": -worse,
        "wins": f"{wins}/{len(pairs)}" if paired else "-",
        "status": status,
    }


def compare(
    a_reports: list[dict], b_reports: list[dict], spec: dict, paired: bool
) -> list[tuple]:
    """Rows of ``(workload, metric, verdict dict)`` for every pair both
    sides measured, plus one fail-rate row per workload."""
    rows = []
    b_by_name = {report["workload"]: report for report in b_reports}
    for a in a_reports:
        b = b_by_name.get(a["workload"])
        if b is None:
            continue
        failed = b["fail_rate"] > a["fail_rate"] or not b["correct"]
        rows.append((a["workload"], "fail_rate", {
            "a": (a["fail_rate"],) * 3,
            "b": (b["fail_rate"],) * 3,
            "change": 0.0,
            "wins": "-",
            "status": "REGRESSION" if failed else "no regression",
        }))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name in a.get("end_to_end", {}) and name in b.get("end_to_end", {}):
                rows.append((a["workload"], name, verdict(
                    a["end_to_end"][name]["values"],
                    b["end_to_end"][name]["values"],
                    metric["better"],
                    metric["bound"],
                    paired,
                )))
    return rows


def load(paths: list[Path]) -> tuple[list[dict], list[dict], bool]:
    """A's reports, B's reports, and whether they were taken interleaved."""
    documents = [json.loads(path.read_text()) for path in paths]
    if len(documents) == 2:
        return documents[0]["reports"], documents[1]["reports"], False
    (document,) = documents
    if not document.get("interleaved"):
        raise SystemExit(f"{paths[0]}: not an interleaved report; give two reports")
    reports = document["reports"]
    return (
        [r for r in reports if r["side"] == "parent"],
        [r for r in reports if r["side"] == "change"],
        True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare bench reports.")
    parser.add_argument(
        "reports", type=Path, nargs="+",
        help="one interleaved report (run.py --parent), or A's and B's reports",
    )
    args = parser.parse_args(argv)
    if len(args.reports) > 2:
        parser.error("give one interleaved report or two reports")
    spec = json.loads(BENCHMARK.read_text())
    a_reports, b_reports, paired = load(args.reports)

    rows = compare(a_reports, b_reports, spec, paired)
    print(f"{'workload':<14} {'metric':<15} {'A median [q1, q3]':<32} "
          f"{'B median [q1, q3]':<32} {'change':>8} {'wins':>6}  verdict")
    for workload, metric, row in rows:
        a_med, a_q1, a_q3 = row["a"]
        b_med, b_q1, b_q3 = row["b"]
        print(
            f"{workload:<14} {metric:<15} "
            f"{f'{a_med:.5g} [{a_q1:.5g}, {a_q3:.5g}]':<32} "
            f"{f'{b_med:.5g} [{b_q1:.5g}, {b_q3:.5g}]':<32} "
            f"{row['change']:>+8.2%} {row['wins']:>6}  {row['status']}"
        )
    if not paired:
        print("(sets taken one after the other: no gain can be claimed)")

    b_by_name = {report["workload"]: report for report in b_reports}
    for a in a_reports:
        b = b_by_name.get(a["workload"], {})
        layers = a.get("per_layer", {})
        if layers and b.get("per_layer"):
            print(f"\nper-layer, {a['workload']} (one traced run each; no verdict)")
            for name, entry in layers.items():
                other = b["per_layer"].get(name, {}).get("value")
                if other is None:
                    print(f"  {name:<44} {entry['value']:<12.5g} -")
                    continue
                ratio = f"{other / entry['value']:.3f}x" if entry["value"] else "-"
                print(f"  {name:<44} {entry['value']:<12.5g} {other:<12.5g} {ratio}")

    statuses = [row["status"] for _, _, row in rows]
    if "REGRESSION" in statuses:
        return 1
    if "unresolved" in statuses:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
