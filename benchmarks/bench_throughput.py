"""Throughput regression harness: the scalar oracle vs the batched kernel.

Runs the full packet pipeline on the main CAIDA-like lab trace under two
variants — the scalar reference loop (Algorithm 1, the fidelity oracle)
and the batched kernel feeding the batch-probed array-backed WSAF (the
default ``engine="auto"`` configuration) — and *appends* a
machine-readable report to ``BENCH_throughput.json`` at the repo root.

Rows are keyed by their string labels — ``git_sha``, ``engine``,
``wsaf_engine`` (the WSAF path the run fed: ``"batched"`` for batch
probing, ``"scalar"`` for one per-event ``accumulate`` at a time),
``backend`` —
plus ``shards`` (see :func:`_row_key`):
re-running on the same commit replaces that commit's rows, while rows
from other commits are preserved, so the file accumulates a throughput
history across the PR stack.  Rows of the retired kernel generations
carry one more label, the contested-stretch replay they measured, so
they stay distinct history.  On every write the whole history is
normalized: legacy rows missing ``wsaf_engine`` / ``shards`` /
``backend`` are backfilled with the values they actually ran ("scalar" /
1 / "flat"), the two pre-keying seed rows
without a ``git_sha`` are stamped with the commit that introduced the
harness (and then superseded by that commit's keyed rows under the
dedupe), and duplicate keys keep only the latest timestamp.

Timing is external wall-clock (``perf_counter`` around the pipeline run)
rather than the engine's own ``elapsed_seconds``, which starts *after*
per-run setup (array conversions, RNG draws, placement) and would flatter
the scalar path.  Rounds are interleaved across variants and the best
round wins, so a transient stall (this runs on shared machines) penalizes
one reading, not one engine.  The kernel caches nothing between runs, so
every timed round is a single pass over the trace; only the flow table's
packed 5-tuple list (cached on the :class:`~repro.traffic.packet.
FlowTable`) carries over between rounds.

Besides end-to-end packets-per-second the harness measures a per-stage
breakdown:

* **WSAF stage** — the delegated event stream is captured from a real run
  (by wrapping the table's ``accumulate_batch_arrays``), then replayed
  against fresh tables both ways: the per-event ``accumulate_batch`` path
  a plain :class:`~repro.core.wsaf.WSAFTable` takes (including its
  list-of-tuples staging) and the batch-probed ``accumulate_batch_arrays``
  path.
* **Hashing stage** — ``TabulationHash.hash_many`` vs the scalar
  ``hash`` loop over the trace's flow keys.
* **Regulator stage** — the kernel's end-to-end time minus the
  batch-probed WSAF stage (the regulator kernel dominates; see
  docs/PERFORMANCE.md).

Every stage timing takes a ``gc.collect()`` immediately before its timed
region: a collection landing inside the (allocation-heavy, pointer-rich)
scalar replay otherwise inflates it several-fold and manufactures
speedups that vanish under a fair protocol.

Regression bars (the test *fails* below them):

* Kernel >= ``MIN_SPEEDUP`` x scalar end-to-end.
* Batch-probed WSAF stage >= ``MIN_WSAF_STAGE_SPEEDUP`` x the scalar
  replay of the same event stream.

``python benchmarks/bench_throughput.py --quick`` runs a reduced smoke
version (small trace, one timed round) for CI: it skips writing the
history file and enforces only the ``MIN_SPEEDUP_SMOKE`` no-regression
floor on the kernel-vs-scalar ratio, printing a note when the
small-trace margin lands under the full bar.

The sharded scaling benchmark (:func:`run_sharded_benchmark`) measures
the streaming :class:`~repro.pipeline.ShardedPipeline` at
``SHARD_COUNTS`` shards on the kernel variant — fork-parallel headline
numbers plus the in-process run and the unsharded pipeline as
baselines — and records one row per shard count (``shards: N`` joins the
row key) with the per-stage breakdown (``route_s`` / ``ipc_s`` /
``ingest_s`` / ``merge_s``).  Every sharded run is checked bit-exact
against the single-process estimates before any timing is trusted.  The
4-shard >= ``MIN_SHARD_SPEEDUP`` x 1-shard bar only applies where the
machine has >= 4 CPUs; below that, parallel speedup is physically
impossible and the bar degrades to the ``MIN_SHARD_SPEEDUP_FALLBACK``
no-collapse floor with a printed note.  ``--quick --shards N`` is the CI
smoke: exactness is always enforced, timing only against the
no-collapse floor.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import subprocess
import time

from repro.core import InstaMeasure, InstaMeasureConfig
from repro.core.wsaf import WSAFTable
from repro.hashing.tabulation import TabulationHash
from repro.kernels.wsaf_batched import BatchedWSAFTable
from repro.pipeline import Pipeline, ShardedPipeline, TraceChunkSource
from repro.pipeline.sharded import _fork_available
from repro.traffic import CaidaLikeConfig, build_caida_like_trace

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_throughput.json"

#: Timed rounds per variant (interleaved); best round wins.
ROUNDS = 5
#: Timed rounds per stage microbench; best round wins.
STAGE_ROUNDS = 5
CHUNK_SIZE = 1 << 20
#: Regression bar: the kernel vs the scalar loop, end-to-end.  Recorded
#: on 2 vCPUs: 2.9-3.5x over three full runs (BENCH_throughput.json).
MIN_SPEEDUP = 2.5
#: Regression bar: batch-probed WSAF stage vs scalar replay of one stream.
MIN_WSAF_STAGE_SPEEDUP = 1.5
#: Smoke-mode floor: the kernel must not fall behind the scalar loop on
#: the small CI trace (VM jitter can eat the full bar's margin there).
MIN_SPEEDUP_SMOKE = 1.0

#: Shard counts the scaling benchmark measures (each becomes one row).
SHARD_COUNTS = (1, 2, 4, 8)
#: Timed rounds per shard count; best round wins.
SHARD_ROUNDS = 3
#: Regression bar: 4-shard fork-parallel vs 1-shard fork-parallel, on
#: machines with >= 4 CPUs (parallel speedup needs parallel hardware).
MIN_SHARD_SPEEDUP = 2.5
#: No-collapse floor where the 2.5x bar cannot physically hold (< 4
#: CPUs): 4 time-shared workers must not cost more than 2.5x one.
MIN_SHARD_SPEEDUP_FALLBACK = 0.4
#: Smoke-mode no-collapse floor: on the tiny CI trace the per-worker
#: fixed costs (fork + engine construction + pipe ping-pong) dominate
#: the sub-second run, so only outright collapse fails the smoke.
MIN_SHARD_SMOKE_FLOOR = 0.1
#: In-process 1-shard streaming (routing + handing out bits included)
#: must stay within 10% of the plain unsharded pipeline.
MAX_INPROC_OVERHEAD = 1.10

#: Commit that introduced this harness; the two pre-keying seed rows
#: (no ``git_sha``) were measured on its working tree and are stamped
#: with it during normalization (then superseded by its keyed rows).
PRE_KEYING_SHA = "24c248f"

#: (engine, WSAF path) pipeline variants: the scalar oracle accumulating
#: one event at a time, the kernel batch-probing.
SCALAR = ("scalar", "scalar")
KERNEL = ("batched", "batched")
VARIANTS = (SCALAR, KERNEL)


def _environment() -> "dict":
    """Hardware/software context stamped onto every recorded row.

    Throughput history spans machines and library versions; without the
    context a row's pps number cannot be compared honestly against
    another commit's.  Legacy rows predating this stamp are backfilled
    with ``null`` values during normalization so consumers can filter.
    """
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "numpy_version": numpy.__version__,
    }


def _git_sha() -> str:
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


def _config(engine: str) -> InstaMeasureConfig:
    return InstaMeasureConfig(seed=1, engine=engine, chunk_size=CHUNK_SIZE)


def _timed_run(config: InstaMeasureConfig, source) -> "tuple[float, int]":
    """Wall-clock seconds and packet count for one fresh-engine run.

    The run goes through the :class:`~repro.pipeline.Pipeline` driver — the
    same loop the CLI and the examples use — over a pre-built chunk source,
    so chunk slicing happens once, outside the timed region, and only
    ingestion + finalization are measured.
    """
    engine = InstaMeasure(config)
    gc.collect()
    start = time.perf_counter()
    result = Pipeline(engine).run(source).result
    return time.perf_counter() - start, result.packets


def _capture_event_batches(source) -> "list[tuple]":
    """The delegated WSAF event stream, one array batch per chunk.

    Wraps the live table's ``accumulate_batch_arrays`` so the kernel's real
    delegation batches (keys, estimates, stamps, packed tuples) are recorded
    while the run proceeds normally.
    """
    engine = InstaMeasure(_config("batched"))
    real = engine.wsaf.accumulate_batch_arrays
    batches: "list[tuple]" = []

    def recorder(keys, pkts, byts, stamps, tuples, on_accumulate=None, **kw):
        batches.append(
            (keys.copy(), pkts.copy(), byts.copy(), stamps.copy(), list(tuples))
        )
        return real(keys, pkts, byts, stamps, tuples, on_accumulate, **kw)

    engine.wsaf.accumulate_batch_arrays = recorder
    Pipeline(engine).run(source)
    return batches


def _wsaf_stage_times(batches, entries: int, rounds: int) -> "tuple[float, float]":
    """Best-of replay seconds: (scalar accumulate_batch, batch-probed)."""
    best_scalar = best_batched = float("inf")
    for _ in range(rounds):
        table = WSAFTable(num_entries=entries)
        gc.collect()
        start = time.perf_counter()
        for keys, pkts, byts, stamps, tuples in batches:
            # A plain table's exact staging: list-of-tuples into the
            # per-event probe loop.
            table.accumulate_batch(
                list(
                    zip(
                        keys.tolist(),
                        pkts.tolist(),
                        byts.tolist(),
                        stamps.tolist(),
                        tuples,
                    )
                )
            )
        best_scalar = min(best_scalar, time.perf_counter() - start)

        batched = BatchedWSAFTable(num_entries=entries)
        gc.collect()
        start = time.perf_counter()
        for keys, pkts, byts, stamps, tuples in batches:
            batched.accumulate_batch_arrays(
                keys, pkts, byts, stamps, tuples, collect_totals=False
            )
        best_batched = min(best_batched, time.perf_counter() - start)
    return best_scalar, best_batched


def _hash_stage_times(keys, rounds: int) -> "tuple[float, float]":
    """Best-of seconds hashing the flow keys: (scalar loop, hash_many)."""
    hasher = TabulationHash(seed=1)
    key_list = keys.tolist()
    best_scalar = best_vector = float("inf")
    for _ in range(rounds):
        hash_one = hasher.hash
        gc.collect()
        start = time.perf_counter()
        for key in key_list:
            hash_one(key)
        best_scalar = min(best_scalar, time.perf_counter() - start)

        gc.collect()
        start = time.perf_counter()
        hasher.hash_many(keys)
        best_vector = min(best_vector, time.perf_counter() - start)
    return best_scalar, best_vector


#: String-valued row fields that describe the machine, not the variant.
_CONTEXT_LABELS = ("platform", "numpy_version")


def _row_key(row: "dict") -> "tuple":
    """A row's identity: every string label it carries, plus ``shards``.

    Current rows are labelled by ``git_sha`` / ``engine`` /
    ``wsaf_engine`` (the WSAF path) / ``backend``.  Rows of retired
    kernel generations carry an extra label naming the generation they
    measured; keying on every label keeps them distinct without the
    harness knowing them.
    """
    labels = sorted(
        (name, value)
        for name, value in row.items()
        if isinstance(value, str) and name not in _CONTEXT_LABELS
    )
    return (tuple(labels), row.get("shards", 1))


def _normalize_history(history: "list[dict]") -> "list[dict]":
    """Backfill legacy rows and dedupe per key, keeping the latest.

    * Rows without ``git_sha`` are the two pre-keying seed rows; they ran
      on :data:`PRE_KEYING_SHA`'s tree and are stamped with it (after
      which that commit's keyed re-measurements supersede them).
    * Rows without ``wsaf_engine`` predate the batch-probed table and
      ran the list-column WSAF — backfill explicitly so every row
      carries it.
    * Rows without ``shards`` predate the sharded scaling benchmark and
      all ran a single unsharded pipeline — backfill ``shards: 1``.
    * Rows without ``backend`` predate the WSAF storage seam and all ran
      the flat table — backfill ``backend: "flat"``.
    * Rows without the environment stamp (``cpu_count`` / ``platform`` /
      ``numpy_version``) predate it and their machine context is
      unknowable — backfill ``null`` so every row carries the fields and
      consumers can filter on them.
    * One row per :func:`_row_key`, latest ``timestamp`` wins; output
      sorted by timestamp so the file reads as a history.
    """
    best: "dict[tuple, dict]" = {}
    for row in history:
        if not row.get("git_sha"):
            row["git_sha"] = PRE_KEYING_SHA
        row.setdefault("wsaf_engine", "scalar")
        row.setdefault("shards", 1)
        row.setdefault("backend", "flat")
        row.setdefault("cpu_count", None)
        row.setdefault("platform", None)
        row.setdefault("numpy_version", None)
        key = _row_key(row)
        kept = best.get(key)
        if kept is None or row.get("timestamp", 0) >= kept.get("timestamp", 0):
            best[key] = row
    return sorted(best.values(), key=lambda r: r.get("timestamp", 0))


def _load_history() -> "list[dict]":
    """The history rows of BENCH_throughput.json, defensively.

    A bench run must never die on its own report file.  A missing file is
    an empty history; an unreadable, unparseable, or wrong-shaped one
    (anything but a list of dicts) is moved aside to
    ``BENCH_throughput.json.corrupt`` — preserved for inspection — and
    the run starts a fresh history.
    """
    if not OUTPUT_PATH.exists():
        return []
    try:
        history = json.loads(OUTPUT_PATH.read_text())
        if not isinstance(history, list) or not all(
            isinstance(row, dict) for row in history
        ):
            raise ValueError("history must be a list of row dicts")
    except (json.JSONDecodeError, OSError, ValueError) as error:
        backup = OUTPUT_PATH.with_suffix(OUTPUT_PATH.suffix + ".corrupt")
        try:
            OUTPUT_PATH.replace(backup)
            print(
                f"warning: {OUTPUT_PATH.name} is corrupt ({error}); "
                f"moved to {backup.name}, starting a fresh history"
            )
        except OSError:
            print(
                f"warning: {OUTPUT_PATH.name} is corrupt ({error}) and "
                "could not be moved aside; starting a fresh history"
            )
        return []
    return history


def _append_report(rows: "list[dict]") -> None:
    """Append ``rows`` to BENCH_throughput.json and normalize the file."""
    history = _load_history()
    history.extend(rows)
    OUTPUT_PATH.write_text(
        json.dumps(_normalize_history(history), indent=2) + "\n"
    )


def run_benchmark(
    trace, rounds: int, stage_rounds: int, record: bool = True
) -> "dict":
    """Measure both variants plus the kernel's stage breakdown.

    Appends the normalized report to BENCH_throughput.json unless
    ``record`` is false (smoke runs must not clobber full-trace rows).
    Returns ``{"rows": [...], "report": str, "speedups": {...}}``.
    """
    configs = {variant: _config(variant[0]) for variant in VARIANTS}
    # One shared chunk source: slicing happens here, outside any timed
    # region, and the same Chunk objects are replayed every round.
    source = TraceChunkSource(trace, chunk_size=CHUNK_SIZE)
    # Warm-up pass each: CPU frequency ramp, LUT construction, imports.
    for config in configs.values():
        Pipeline(InstaMeasure(config)).run(source)

    best = {variant: float("inf") for variant in VARIANTS}
    packets = {variant: 0 for variant in VARIANTS}
    for _ in range(rounds):
        for variant, config in configs.items():
            elapsed, count = _timed_run(config, source)
            best[variant] = min(best[variant], elapsed)
            packets[variant] = count

    batches = _capture_event_batches(source)
    num_events = sum(batch[0].size for batch in batches)
    wsaf_scalar_s, wsaf_batched_s = _wsaf_stage_times(
        batches, configs[KERNEL].wsaf_entries, stage_rounds
    )
    hash_scalar_s, hash_vector_s = _hash_stage_times(
        trace.flows.key64, stage_rounds
    )
    stages = {
        "regulator_s": best[KERNEL] - wsaf_batched_s,
        "wsaf_scalar_s": wsaf_scalar_s,
        "wsaf_batched_s": wsaf_batched_s,
        "wsaf_stage_speedup": wsaf_scalar_s / wsaf_batched_s,
        "hash_scalar_s": hash_scalar_s,
        "hash_vector_s": hash_vector_s,
        "hash_speedup": hash_scalar_s / hash_vector_s,
        "delegated_events": num_events,
    }

    sha = _git_sha()
    now = time.time()
    environment = _environment()
    rows = []
    for variant in VARIANTS:
        engine, wsaf_engine = variant
        row = {
            "git_sha": sha,
            "engine": engine,
            "wsaf_engine": wsaf_engine,
            "backend": "flat",
            "pps": packets[variant] / best[variant],
            "seconds": best[variant],
            "packets": packets[variant],
            "chunk_size": CHUNK_SIZE,
            "timestamp": now,
            **environment,
        }
        if variant == KERNEL:
            row["stages"] = stages
        rows.append(row)
    if record:
        _append_report(rows)

    scalar_row, kernel_row = rows
    lines = [f"commit {sha}  ({num_events} delegated WSAF events)"]
    lines.append("variant              pps          speedup")
    for label, row in (("scalar", scalar_row), ("kernel", kernel_row)):
        lines.append(
            f"{label:<20} {row['pps']:>12,.0f} "
            f"{row['pps'] / scalar_row['pps']:>7.2f}x"
        )
    lines.append(
        f"kernel stages: regulator {stages['regulator_s'] * 1e3:.1f} ms, "
        f"wsaf {wsaf_batched_s * 1e3:.1f} ms "
        f"(scalar {wsaf_scalar_s * 1e3:.1f} ms, "
        f"{stages['wsaf_stage_speedup']:.2f}x), "
        f"hashing {hash_vector_s * 1e3:.2f} ms "
        f"(scalar {hash_scalar_s * 1e3:.2f} ms, "
        f"{stages['hash_speedup']:.2f}x)"
    )
    lines.append(f"report: {OUTPUT_PATH.name}")

    return {
        "rows": rows,
        "report": "\n".join(lines),
        "speedups": {
            "kernel_vs_scalar": kernel_row["pps"] / scalar_row["pps"],
            "wsaf_stage": stages["wsaf_stage_speedup"],
        },
    }


def run_sharded_benchmark(
    trace,
    rounds: int = SHARD_ROUNDS,
    shard_counts: "tuple[int, ...]" = SHARD_COUNTS,
    record: bool = True,
) -> "dict":
    """Measure streaming sharded ingestion at each shard count.

    Uses the kernel variant throughout.  Per shard
    count, times the fork-parallel pool (where the platform can fork)
    and the bit-identical in-process mode, best-of ``rounds`` each, and
    checks the merged estimates against a single unsharded run before
    trusting any number.  One row per shard count goes into
    BENCH_throughput.json (``record=True``), carrying the fork-parallel
    headline ``seconds``/``pps`` plus ``inproc_seconds``,
    ``unsharded_seconds``, ``cpu_count``, and the ``route_s`` / ``ipc_s``
    / ``ingest_s`` / ``merge_s`` stage breakdown of the best round.
    Returns ``{"rows", "report", "scaling", "inproc_overhead"}``.
    """
    config = _config("batched")
    source = TraceChunkSource(trace, chunk_size=CHUNK_SIZE)
    use_fork = _fork_available()

    # Unsharded baseline + the exactness reference, warm-up pass first.
    # Unlike _timed_run, engine construction is INSIDE the timed region:
    # a sharded run necessarily builds its engines per run, so the
    # within-10% comparison must charge the unsharded side the same way.
    reference = InstaMeasure(config)
    Pipeline(reference).run(source)
    reference_estimates = reference.estimates()
    unsharded_s = float("inf")
    for _ in range(rounds):
        gc.collect()
        start = time.perf_counter()
        Pipeline(InstaMeasure(config)).run(source)
        unsharded_s = min(unsharded_s, time.perf_counter() - start)

    sha = _git_sha()
    now = time.time()
    environment = _environment()
    rows = []
    for num_shards in shard_counts:
        # One pipeline per count, reused across rounds.  Routing caches
        # nothing between runs (each run's router hashes the flow table
        # once and pins nothing on the chunks), so every timed round
        # routes every chunk afresh, as a single pass does.
        pipeline = ShardedPipeline(config, num_shards=num_shards)

        inproc = pipeline.run(source, parallel=False)
        assert inproc.estimates() == reference_estimates, (
            f"{num_shards}-shard in-process estimates diverged from the "
            "single-process run"
        )
        inproc_s = inproc.elapsed_seconds
        best = inproc
        for _ in range(rounds - 1):
            gc.collect()
            outcome = pipeline.run(source, parallel=False)
            if outcome.elapsed_seconds < inproc_s:
                inproc_s = outcome.elapsed_seconds
                best = outcome

        fork_s = None
        if use_fork:
            for index in range(rounds):
                gc.collect()
                outcome = pipeline.run(source, parallel=True)
                if index == 0:
                    assert outcome.estimates() == reference_estimates, (
                        f"{num_shards}-shard fork-parallel estimates "
                        "diverged from the single-process run"
                    )
                if fork_s is None or outcome.elapsed_seconds < fork_s:
                    fork_s = outcome.elapsed_seconds
                    best = outcome
        headline_s = fork_s if fork_s is not None else inproc_s
        rows.append(
            {
                "git_sha": sha,
                "engine": "batched",
                "wsaf_engine": "batched",
                "backend": "flat",
                "shards": num_shards,
                "parallel": fork_s is not None,
                "pps": trace.num_packets / headline_s,
                "seconds": headline_s,
                "inproc_seconds": inproc_s,
                "unsharded_seconds": unsharded_s,
                "packets": trace.num_packets,
                "chunk_size": CHUNK_SIZE,
                "timestamp": now,
                **environment,
                "stages": dict(best.stage_seconds),
            }
        )
    if record:
        _append_report(rows)

    base_s = rows[0]["seconds"]
    scaling = {row["shards"]: base_s / row["seconds"] for row in rows}
    inproc_overhead = rows[0]["inproc_seconds"] / unsharded_s

    mode = "fork-parallel" if use_fork else "in-process (no fork)"
    lines = [
        f"commit {sha}  sharded scaling, {mode}, "
        f"{os.cpu_count()} cpu(s), {trace.num_packets} packets"
    ]
    lines.append(f"unsharded baseline: {unsharded_s * 1e3:8.1f} ms")
    lines.append(
        "shards      seconds      pps    vs 1-shard   "
        "route/ipc/ingest/merge (ms)"
    )
    for row in rows:
        st = row["stages"]
        lines.append(
            f"{row['shards']:>6} {row['seconds'] * 1e3:>9.1f} ms "
            f"{row['pps']:>11,.0f} {scaling[row['shards']]:>8.2f}x   "
            f"{st['route_s'] * 1e3:.1f}/{st['ipc_s'] * 1e3:.1f}/"
            f"{st['ingest_s'] * 1e3:.1f}/{st['merge_s'] * 1e3:.1f}"
        )
    lines.append(
        f"1-shard in-process vs unsharded: "
        f"{inproc_overhead:.3f}x (bar: <= {MAX_INPROC_OVERHEAD}x)"
    )
    lines.append(f"report: {OUTPUT_PATH.name}")

    return {
        "rows": rows,
        "report": "\n".join(lines),
        "scaling": scaling,
        "inproc_overhead": inproc_overhead,
    }


def _assert_sharded_bars(result: "dict") -> None:
    """The sharded scaling regression bars, core-count aware."""
    overhead = result["inproc_overhead"]
    assert overhead <= MAX_INPROC_OVERHEAD, (
        f"1-shard in-process streaming costs {overhead:.3f}x the "
        f"unsharded pipeline (bar: {MAX_INPROC_OVERHEAD}x)"
    )
    scaling4 = result["scaling"].get(4)
    if scaling4 is None or not _fork_available():
        return
    cpus = os.cpu_count() or 1
    if cpus >= 4:
        assert scaling4 >= MIN_SHARD_SPEEDUP, (
            f"4-shard fork-parallel is only {scaling4:.2f}x 1-shard "
            f"(regression bar: {MIN_SHARD_SPEEDUP}x on {cpus} CPUs)"
        )
    else:
        assert scaling4 >= MIN_SHARD_SPEEDUP_FALLBACK, (
            f"4-shard fork-parallel collapsed to {scaling4:.2f}x 1-shard "
            f"(no-collapse floor: {MIN_SHARD_SPEEDUP_FALLBACK}x)"
        )
        print(
            f"note: {scaling4:.2f}x 4-shard scaling is under the "
            f"{MIN_SHARD_SPEEDUP}x target — accepted: this machine has "
            f"{cpus} CPU(s), so parallel speedup is physically impossible "
            "and only the no-collapse floor applies"
        )


def test_sharded_scaling(caida_trace, write_report):
    """Sharded pps at 1/2/4/8 shards; appends BENCH_throughput.json."""
    result = run_sharded_benchmark(caida_trace)
    write_report("bench_sharded_scaling", result["report"])
    for row in result["rows"]:
        assert row["packets"] == caida_trace.num_packets
    _assert_sharded_bars(result)


def _assert_throughput_bars(result: "dict") -> None:
    speedups = result["speedups"]
    assert speedups["kernel_vs_scalar"] >= MIN_SPEEDUP, (
        f"kernel is only {speedups['kernel_vs_scalar']:.2f}x scalar "
        f"(regression bar: {MIN_SPEEDUP}x)"
    )
    assert speedups["wsaf_stage"] >= MIN_WSAF_STAGE_SPEEDUP, (
        f"batch-probed WSAF stage is only {speedups['wsaf_stage']:.2f}x the "
        f"scalar replay (regression bar: {MIN_WSAF_STAGE_SPEEDUP}x)"
    )


def test_throughput_regression(caida_trace, write_report):
    """Scalar vs kernel pps + stage breakdown; appends BENCH_throughput.json."""
    result = run_benchmark(caida_trace, ROUNDS, STAGE_ROUNDS)
    write_report("bench_throughput", result["report"])

    for row in result["rows"]:
        assert row["packets"] == caida_trace.num_packets
    _assert_throughput_bars(result)


def _shard_ladder(num_shards: int) -> "tuple[int, ...]":
    """The shard counts ``--shards N`` measures: the 1-shard baseline,
    ``N``, and every default count up to ``N``."""
    return tuple(
        sorted({1, num_shards} | {n for n in SHARD_COUNTS if n <= num_shards})
    )


def main(argv: "list[str] | None" = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: small trace, one timed round, kernel-vs-scalar "
        "no-regression floor only, history file untouched",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="run the sharded scaling benchmark at 1, N and every default "
        "count up to N shards; with --quick, a smoke pass at 1 and N "
        "shards (exactness enforced, timing only against the no-collapse "
        "floor)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        trace = build_caida_like_trace(
            CaidaLikeConfig(num_flows=4_000, duration=10.0, seed=1)
        )
        if args.shards is not None:
            result = run_sharded_benchmark(
                trace,
                rounds=1,
                shard_counts=(1, args.shards),
                record=False,
            )
            print(result["report"])
            smoke = result["scaling"][args.shards]
            assert smoke >= MIN_SHARD_SMOKE_FLOOR, (
                f"{args.shards}-shard run collapsed to {smoke:.2f}x "
                f"1-shard (no-collapse floor: {MIN_SHARD_SMOKE_FLOOR}x)"
            )
            if smoke < 1.0:
                print(
                    f"note: {args.shards}-shard smoke at {smoke:.2f}x "
                    "1-shard — accepted above the no-collapse floor "
                    "(tiny trace: per-worker fork/construction costs "
                    "dominate the sub-second run)"
                )
            if result["inproc_overhead"] > MAX_INPROC_OVERHEAD:
                print(
                    "note: the in-process overhead bar is only enforced "
                    "by the full best-of-rounds bench; the single round "
                    "here is one noisy reading of a sub-second run"
                )
            return
        result = run_benchmark(trace, rounds=1, stage_rounds=2, record=False)
    else:
        trace = build_caida_like_trace(
            CaidaLikeConfig(num_flows=30_000, duration=60.0, seed=1)
        )
        if args.shards is not None:
            result = run_sharded_benchmark(
                trace, shard_counts=_shard_ladder(args.shards)
            )
            print(result["report"])
            _assert_sharded_bars(result)
            return
        result = run_benchmark(trace, ROUNDS, STAGE_ROUNDS)
    print(result["report"])
    for row in result["rows"]:
        assert row["packets"] == trace.num_packets, "packet count mismatch"
    if not args.quick:
        _assert_throughput_bars(result)
        return
    ratio = result["speedups"]["kernel_vs_scalar"]
    assert ratio >= MIN_SPEEDUP_SMOKE, (
        f"kernel regressed: {ratio:.2f}x the scalar loop "
        f"(no-regression floor: {MIN_SPEEDUP_SMOKE}x)"
    )
    if ratio < MIN_SPEEDUP:
        print(
            f"note: kernel {ratio:.2f}x scalar is under the {MIN_SPEEDUP}x "
            "target — accepted as no-regression (small-trace smoke under "
            "VM jitter)"
        )


if __name__ == "__main__":
    main()
