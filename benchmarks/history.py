"""The history files the bench harnesses append to (``BENCH_*.json``).

Each harness keeps one JSON list of row dicts at the repository root and
keys its rows its own way.  Appending keeps one row per key, the latest
``timestamp`` winning, so re-running on a commit replaces that commit's
rows and keeps every other commit's: the file reads as a history across
commits.  Rows are stamped with the commit (:func:`git_sha`) and the
machine (:func:`environment`) they ran on.

A run never dies on its own report file: a missing one is an empty
history, and an unreadable, unparseable or wrong-shaped one (anything
but a list of dicts) is moved aside to ``<name>.corrupt``, kept for
inspection, and the run starts a fresh history.

The harnesses import this module by name, so run them from the
repository root (``python benchmarks/bench_overload.py``) or through
pytest, which puts ``benchmarks/`` on the import path.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def git_sha() -> str:
    """The checkout's short commit, or ``"unknown"`` outside git."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def environment() -> "dict":
    """The hardware/software context stamped onto every recorded row:
    without it a row's numbers cannot be compared with another
    commit's."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "numpy_version": np.__version__,
    }


def load(path: pathlib.Path) -> "list[dict]":
    """The rows of the history file at ``path`` (see the module
    docstring for a missing or corrupt file)."""
    if not path.exists():
        return []
    try:
        rows = json.loads(path.read_text())
        if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
            raise ValueError("history must be a list of row dicts")
    except (json.JSONDecodeError, OSError, ValueError) as error:
        backup = path.with_suffix(path.suffix + ".corrupt")
        try:
            path.replace(backup)
            print(
                f"warning: {path.name} is corrupt ({error}); "
                f"moved to {backup.name}, starting a fresh history"
            )
        except OSError:
            print(
                f"warning: {path.name} is corrupt ({error}) and "
                "could not be moved aside; starting a fresh history"
            )
        return []
    return rows


def latest_per_key(rows, key, tiebreak=lambda row: ()) -> "list[dict]":
    """One row per ``key(row)``, the latest ``timestamp`` winning (the
    later row on a tie), ordered by timestamp, then by ``tiebreak``."""
    best: "dict[object, dict]" = {}
    for row in rows:
        row_key = key(row)
        kept = best.get(row_key)
        if kept is None or row.get("timestamp", 0) >= kept.get("timestamp", 0):
            best[row_key] = row
    return sorted(
        best.values(), key=lambda row: (row.get("timestamp", 0), *tiebreak(row))
    )


def append(path: pathlib.Path, rows, latest) -> None:
    """Add ``rows`` to the history file at ``path``, rewritten as
    ``latest(history)``: the harness's :func:`latest_per_key`."""
    path.write_text(json.dumps(latest(load(path) + list(rows)), indent=2) + "\n")
