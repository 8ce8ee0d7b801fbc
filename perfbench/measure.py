"""Metric catalog and the arithmetic behind the reported numbers.

Everything here is pure (no ``repro`` import), so the helpers are tested
on their own: the percentile rule, the accuracy metrics, the oracle gate
and the environment stamp.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import pickle
import platform
import statistics

#: End-to-end metrics, reported with tracing off on every workload:
#: ``(name, unit, better)``.
END_TO_END = [
    ("pps", "packets/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("are_hh", "ratio", "lower"),
    ("hh_recall", "ratio", "higher"),
]

#: Per-layer metrics, reported by the traced run: ``(name, unit)``.
#: Seconds and calls are per pass (mean over the traced passes); a layer a
#: workload never reaches reports 0.
PER_LAYER = [
    ("hashing.place_s", "s"),
    ("hashing.place_calls", "count"),
    ("core.ingest_s", "s"),
    ("core.ingest_calls", "count"),
    ("core.regulation_rate", "ratio"),
    ("core.l1_saturations", "count"),
    ("kernels.regulator_s", "s"),
    ("wsaf.accumulate_s", "s"),
    ("wsaf.accumulate_calls", "count"),
    ("wsaf.events", "count"),
    ("wsaf.occupancy", "count"),
    ("wsaf.evictions", "count"),
    ("source.wait_s", "s"),
    ("source.wait_calls", "count"),
    ("traffic.read_s", "s"),
    ("traffic.read_calls", "count"),
    ("driver.step_s", "s"),
    ("driver.step_calls", "count"),
    ("driver.epochs", "count"),
    ("sharded.route_s", "s"),
    ("sharded.route_calls", "count"),
    ("sharded.localize_s", "s"),
    ("sharded.send_s", "s"),
    ("sharded.ipc_s", "s"),
    ("sharded.worker_ingest_s", "s"),
    ("sharded.merge_s", "s"),
    ("sharded.load_share_max", "ratio"),
    ("sharded.pool_spawn_s", "s"),
    ("state.capture_s", "s"),
    ("state.capture_calls", "count"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.saves", "count"),
    ("checkpoint.bytes", "bytes"),
    ("daemon.query_s", "s"),
    ("daemon.query_calls", "count"),
    ("daemon.query_lock_wait_s", "s"),
    ("daemon.rotate_s", "s"),
    ("daemon.rotate_calls", "count"),
    ("lookup.p50_ms", "ms"),
    ("lookup.p90_ms", "ms"),
    ("daemon.live_query_p50_ms", "ms"),
    ("daemon.live_query_p90_ms", "ms"),
    ("daemon.chunk_p50_ms", "ms"),
    ("daemon.chunk_p95_ms", "ms"),
    ("setup.engine_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
]

#: Samples a percentile needs strictly beyond it before it is reported.
MIN_TAIL_SAMPLES = 10

#: ``are_hh`` covers flows with at least this many true packets.
ARE_MIN_PACKETS = 1_000


def percentile(samples, q: float) -> "float | None":
    """Nearest-rank ``q``-th percentile, or ``None`` when fewer than
    :data:`MIN_TAIL_SAMPLES` samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < MIN_TAIL_SAMPLES:
        return None
    return ordered[rank - 1]


def quartile_spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def accuracy(truth: "dict[int, int]", estimates, min_packets: int, threshold: int):
    """``(are_hh, hh_recall)`` of ``estimates`` against true packet counts.

    ``truth`` maps flow key to its true packet count; ``estimates`` maps
    flow key to ``(packets, bytes)`` (absent keys estimate 0).  ARE is the
    mean relative error over flows with at least ``min_packets`` true
    packets; recall is the share of flows with at least ``threshold`` true
    packets whose estimate also reaches ``threshold``.
    """
    errors = []
    heavy = recalled = 0
    for key, true in truth.items():
        estimate = estimates.get(key, (0.0, 0.0))[0]
        if true >= min_packets:
            errors.append(abs(estimate - true) / true)
        if true >= threshold:
            heavy += 1
            recalled += estimate >= threshold
    if not errors or not heavy:
        raise ValueError("no heavy flows in the trace; the workload is mis-sized")
    return sum(errors) / len(errors), recalled / heavy


def estimate_mismatches(got: dict, expected: dict) -> int:
    """Flows whose estimate differs from the oracle's (missing counts too)."""
    keys = got.keys() | expected.keys()
    return sum(got.get(key) != expected.get(key) for key in keys)


def _dump(fn, path: str) -> None:
    """Child-process body of :func:`in_child`."""
    with open(path, "wb") as handle:
        pickle.dump(fn(), handle, protocol=pickle.HIGHEST_PROTOCOL)


def in_child(fn, workdir: str):
    """``fn()``, computed in a forked child and handed back through a file.

    The load generator and the oracle are not the system under test: run
    in a child, their temporaries never count toward this process's peak
    memory.  Call it before any thread exists, so that forking is safe.
    """
    path = os.path.join(workdir, "child.pickle")
    child = multiprocessing.get_context("fork").Process(target=_dump, args=(fn, path))
    child.start()
    child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"{fn!r} failed in a child process (exit code {child.exitcode})")
    with open(path, "rb") as handle:
        value = pickle.load(handle)
    os.remove(path)
    return value


def _git_sha(root: str) -> str:
    """HEAD commit of a git checkout at ``root``, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(src: str) -> str:
    """Short SHA-1 over every ``.py`` file under ``src`` (path + bytes):
    identifies the measured code where there is no git metadata."""
    digest = hashlib.sha1()
    for directory, subdirs, files in os.walk(src):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:12]


def environment(root: str) -> "dict[str, object]":
    """The stamp every recorded run carries."""
    import numpy

    return {
        "git_sha": _git_sha(root),
        "src_digest": source_digest(os.path.join(root, "src")),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cache": "cold",
    }
