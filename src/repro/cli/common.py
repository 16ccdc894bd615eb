"""What more than one verb group uses: the ``-o`` flag, its path check and
the one writer behind it, the refusal line, and the ``--store`` opener."""

from __future__ import annotations

import argparse
import os
import sqlite3
import sys
from typing import TextIO

from repro.store import SqliteStore, open_store


def _output_path(value: str) -> str:
    """The ``type=`` of every ``-o/--output``: refuses a path into a missing
    directory (``-`` passes), so the command exits 2 while parsing, before
    it simulates or opens a store, and creates nothing."""
    directory = os.path.dirname(value)
    if value != "-" and directory and not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"no directory {directory!r}")
    return value


def _output_argument(
    parser: argparse.ArgumentParser, default: str | None, text: str
) -> None:
    """Add ``-o/--output``, checked by :func:`_output_path` and written by
    :func:`_write_output`; ``default=None`` makes it required."""
    parser.add_argument(
        "-o",
        "--output",
        type=_output_path,
        default=default,
        required=default is None,
        help=text,
    )


def _write_output(path: str, document: str, wrote: str) -> TextIO:
    """Send a verb's document to its ``-o``; the only code that does.

    A path gets ``document``, and stdout gets ``wrote``, the verb's one
    "wrote ..." line.  ``-`` puts ``document`` alone on stdout.  Returns the
    stream for the verb's status lines: stdout after a path, stderr after
    ``-``, so that stdout parses as the document.
    """
    if path == "-":
        sys.stdout.write(document)
        return sys.stderr
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(document)
    print(wrote)
    return sys.stdout


def _refuse(verb: str, error) -> int:
    """Report a refused command line in one stderr line; exit code 2."""
    print(f"{verb}: {error}", file=sys.stderr)
    return 2


def _open_store(target: str, *, create: bool) -> SqliteStore:
    """Open a ``--store`` warehouse; :class:`ValueError` when it cannot be.

    Only a verb that writes to the warehouse makes a new one at a missing
    path (``create``); a read-only verb refuses the path, so that a
    mistyped ``--store`` leaves no empty warehouse behind.
    """
    if not create and target and not os.path.exists(target):
        raise ValueError(f"no warehouse at {target}")
    try:
        store = open_store(target)
    except (sqlite3.Error, OSError) as error:
        raise ValueError(
            f"cannot open {target} as a warehouse ({error}); a legacy JSON "
            "cache directory is upgraded with 'store import'"
        ) from None
    if store is None:
        raise ValueError("an empty --store disables the warehouse")
    return store
