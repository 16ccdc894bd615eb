"""The paper verbs: ``figure`` and ``table`` regenerate one artifact of the
paper, and ``list-trackers``, ``list-workloads`` and ``list-attacks`` show
the names a scenario can use."""

from __future__ import annotations

import argparse
import functools

from repro.attacks import attack_by_name, available_attacks
from repro.config import baseline_config
from repro.cpu.workloads import ALL_WORKLOADS, SUITES
from repro.dram.address import AddressMapper
from repro.eval import figures as figure_definitions
from repro.eval import tables as table_definitions
from repro.eval.report import format_table, print_figure
from repro.trackers.registry import available_trackers

#: Figure numbers that have a regeneration function in :mod:`repro.eval.figures`.
FIGURE_IDS = (1, 2, 3, 4, 5, 9, 10, 11, 12, 13, 14, 15, 16, 17)
#: Table numbers that have a regeneration function in :mod:`repro.eval.tables`.
TABLE_IDS = (1, 2, 3, 4)


def register(sub) -> None:
    """Add the paper verbs to the top parser's subcommands."""
    sub.add_parser(
        "list-trackers", help="list registered RowHammer mitigations"
    ).set_defaults(handler=_cmd_list_trackers)

    list_workloads = sub.add_parser("list-workloads", help="list workload profiles")
    list_workloads.add_argument("--suite", choices=SUITES, default=None)
    list_workloads.set_defaults(handler=_cmd_list_workloads)

    sub.add_parser(
        "list-attacks", help="list the available attack kernels"
    ).set_defaults(handler=_cmd_list_attacks)

    for kind, definitions, ids in (
        ("figure", figure_definitions, FIGURE_IDS),
        ("table", table_definitions, TABLE_IDS),
    ):
        parser = sub.add_parser(kind, help=f"regenerate one {kind} of the paper")
        parser.add_argument("number", nargs="?", type=int, default=None)
        parser.add_argument(
            "--list",
            action="store_true",
            help=f"list the {kind}s that can be regenerated",
        )
        parser.set_defaults(
            handler=functools.partial(_regenerate, kind, definitions, ids)
        )


def _regenerate(kind: str, definitions, ids: tuple[int, ...], args) -> int:
    """``figure`` and ``table``: list what can be regenerated, or print one
    regenerated artifact (``definitions.<kind><number>()``)."""
    if args.list or args.number is None:
        width = len(str(max(ids)))
        for number in ids:
            function = getattr(definitions, f"{kind}{number}")
            summary = (function.__doc__ or "").strip().splitlines()[0]
            print(f"{kind} {number:>{width}}: {summary}")
        return 0
    if args.number not in ids:
        print(f"no regeneration function for {kind} {args.number}; "
              f"available: {', '.join(str(n) for n in ids)}")
        return 2
    print_figure(getattr(definitions, f"{kind}{args.number}")())
    return 0


def _cmd_list_trackers(args: argparse.Namespace) -> int:
    for name in available_trackers():
        print(name)
    return 0


def _cmd_list_workloads(args: argparse.Namespace) -> int:
    rows = [
        {
            "workload": profile.name,
            "suite": profile.suite,
            "apki": profile.apki,
            "row_locality": profile.row_locality,
            "footprint_mb": profile.footprint_bytes // (1024 * 1024),
            "memory_intensive": profile.memory_intensive,
        }
        for profile in ALL_WORKLOADS
        if args.suite is None or profile.suite == args.suite
    ]
    print(format_table(rows))
    return 0


def _cmd_list_attacks(args: argparse.Namespace) -> int:
    config = baseline_config()
    mapper = AddressMapper(config.dram)
    for name in available_attacks():
        attack = attack_by_name(name, config.dram, mapper)
        print(f"{name:<24} {type(attack).__name__}")
    return 0
