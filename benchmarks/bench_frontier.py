"""The WSAF storage frontier: memory × accuracy × modelled-pps.

Sweeps the three storage backends — the flat baseline, the tiered
hot-cache store at several cache sizes, and the ICE-Buckets compressed
counters at several bucket geometries — over the Zipf-skewed CAIDA-like
lab trace, and records one frontier row per variant in
``BENCH_frontier.json`` at the repo root:

* **memory** — the backend's modelled footprint (``memory_bytes``) and
  its counter-plane share (``counter_memory_bytes``).
* **accuracy** — mean relative packet error over the 1K+ packet flows
  (the band the paper reports) plus heavy-hitter precision/recall at
  the 1 000-packet threshold.
* **modelled pps** — packets divided by the WSAF stage's modelled time
  from :class:`~repro.memmodel.AccessAccountant` with the tiered
  technology map (cache accesses priced at SRAM, table accesses at
  DRAM).  This is the number the tiering exists to move: wall-clock on
  a Python simulator cannot show a DRAM-latency win, the access model
  can.
* **wall-clock** — best-of-rounds ingest seconds and the measured pps
  (``wall_pps``), to keep the modelled claim honest about simulator
  overhead.  Every timed round takes a ``gc.collect()`` first, so a
  stray gen-2 collection cannot inflate one variant's wall time.  The
  bench replays one prebuilt trace, so these are warm numbers.

Rows are keyed by ``(git_sha, label)``: re-running on a commit replaces
that commit's rows and keeps other commits', same policy as
``BENCH_throughput.json``.  Each row carries the environment stamp
(``cpu_count`` / ``platform`` / ``numpy_version``).

Regression bars (the run *fails* below them):

* The flat row is the baseline; the tiered backend is lossless, so when
  neither run evicts, tiered estimates must equal flat *exactly*.
* At least one tiered variant reaches ``MIN_TIERED_MODELLED_SPEEDUP``
  (1.3×) the flat modelled pps while spending at most
  ``MAX_TIERED_MEMORY_OVERHEAD`` (10 %) extra memory.
* Every ICE variant shows ≥ ``MIN_ICE_COUNTER_REDUCTION`` (2×) counter
  memory reduction at ≤ ``MAX_ICE_ARE_RATIO`` (2×) the flat ARE.
* Every non-flat variant sustains ≥ ``MIN_WALL_PPS_RATIO`` (0.5×) the
  flat row's *measured* pps — a no-collapse floor keeping the modelled
  frontier honest: a backend may not buy its modelled win by wrecking
  the simulator's real ingest rate.  ``--quick`` relaxes it to
  ``MIN_WALL_PPS_RATIO_SMOKE``.

``--quick`` is the CI smoke: a small trace, one timed round, no history
write, and the tiered pps bar relaxed to the
``MIN_TIERED_SMOKE_FLOOR`` no-collapse floor (on a tiny trace the cache
barely warms before the run ends, so the 1.3× target is carried by the
recorded full-trace rows, not the smoke).  The memory and ICE-error
bars are structural and stay enforced in both modes.
"""

from __future__ import annotations

import argparse
import gc
import pathlib
import time

import numpy as np

import history
from repro.analysis.metrics import mean_relative_error
from repro.core import InstaMeasure, InstaMeasureConfig, default_technologies
from repro.detection import (
    classify_detections,
    ground_truth_heavy_hitters,
)
from repro.memmodel import DRAM, AccessAccountant

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_frontier.json"

#: Timed ingest rounds per variant; best wall-clock wins (modelled time
#: is deterministic and identical every round).
ROUNDS = 3
#: Heavy-hitter threshold (packets) and the ARE band floor.
HH_THRESHOLD = 1_000.0
#: Regression bar: some tiered variant must model >= this x flat pps...
MIN_TIERED_MODELLED_SPEEDUP = 1.3
#: ...while costing at most this x flat memory.
MAX_TIERED_MEMORY_OVERHEAD = 1.10
#: Smoke-mode no-collapse floor for the tiered modelled-pps ratio: a
#: cold cache costs one extra SRAM read per miss, which models ~7% over
#: flat; anything under this floor means the tier logic itself broke.
MIN_TIERED_SMOKE_FLOOR = 0.8
#: Regression bar: ICE counter planes at <= half the flat 16 B/entry.
MIN_ICE_COUNTER_REDUCTION = 2.0
#: Regression bar: ICE ARE at most this x the flat ARE (plus epsilon
#: for a zero-error baseline).
MAX_ICE_ARE_RATIO = 2.0
#: No-collapse floor on each non-flat variant's *measured* ingest rate
#: vs the flat row; 0.5x only trips on a real collapse, not timing
#: noise.
MIN_WALL_PPS_RATIO = 0.5
#: Smoke-mode wall floor: the quick trace runs one round with
#: ``tier_interval=64``, so maintenance ticks and per-delegated-event
#: Python overhead weigh far more than on the recorded full trace.
MIN_WALL_PPS_RATIO_SMOKE = 0.2

#: The swept variants: (label, config overrides).
VARIANTS = (
    ("flat", {}),
    ("tiered/c64", {"wsaf_backend": "tiered", "tier_cache_entries": 64}),
    ("tiered/c256", {"wsaf_backend": "tiered", "tier_cache_entries": 256}),
    ("tiered/c1024", {"wsaf_backend": "tiered", "tier_cache_entries": 1024}),
    (
        "ice/b64w16",
        {"wsaf_backend": "icebuckets", "ice_bucket_slots": 64,
         "ice_counter_bits": 16},
    ),
    (
        "ice/b32w8",
        {"wsaf_backend": "icebuckets", "ice_bucket_slots": 32,
         "ice_counter_bits": 8},
    ),
)
#: The WSAF-stage labels modelled time is summed over (the cache label
#: simply never appears for flat/ice rows).
WSAF_LABELS = ("wsaf", "wsaf.cache")


def _config(overrides: "dict", tier_interval: int) -> InstaMeasureConfig:
    merged = dict(seed=1, **overrides)
    if merged.get("wsaf_backend") == "tiered":
        merged.setdefault("tier_interval", tier_interval)
    return InstaMeasureConfig(**merged)


def _measure_variant(
    label: str, overrides: "dict", trace, rounds: int, tier_interval: int
) -> "dict":
    """One frontier row: ingest ``rounds`` times, keep the best wall."""
    config = _config(overrides, tier_interval)
    best_wall = float("inf")
    engine = accountant = None
    for _ in range(rounds):
        accountant = AccessAccountant(
            DRAM, technologies=default_technologies()
        )
        engine = InstaMeasure(config, accountant)
        gc.collect()
        start = time.perf_counter()
        result = engine.process_trace(trace)
        best_wall = min(best_wall, time.perf_counter() - start)

    est_packets, _est_bytes = engine.estimates_for(trace)
    truth = trace.ground_truth_packets().astype(float)
    band = truth >= HH_THRESHOLD
    are = (
        mean_relative_error(est_packets[band], truth[band])
        if band.any()
        else 0.0
    )
    truth_hh, _ = ground_truth_heavy_hitters(
        trace, threshold_packets=HH_THRESHOLD
    )
    detected = set(np.flatnonzero(est_packets >= HH_THRESHOLD).tolist())
    outcome = classify_detections(detected, truth_hh, trace.num_flows)

    modelled_s = accountant.modelled_seconds(labels=WSAF_LABELS)
    row = {
        "label": label,
        "backend": config.wsaf_backend,
        "config": {key: overrides[key] for key in sorted(overrides)},
        "packets": result.packets,
        "insertions": result.insertions,
        "memory_bytes": engine.wsaf.memory_bytes(),
        "counter_memory_bytes": engine.wsaf.counter_memory_bytes(),
        "wall_seconds": best_wall,
        "wall_pps": result.packets / best_wall,
        "modelled_wsaf_seconds": modelled_s,
        "modelled_pps": result.packets / modelled_s if modelled_s else None,
        "wsaf_accesses": {
            name: count
            for name, count in accountant.by_label().items()
            if name in WSAF_LABELS
        },
        "are_1k": are,
        "hh_precision": outcome.precision,
        "hh_recall": outcome.recall,
        "evictions": engine.wsaf.evictions,
    }
    if config.wsaf_backend == "tiered":
        row["config"]["tier_interval"] = config.tier_interval
        row["cache_hit_rate"] = engine.wsaf.cache_hit_rate
        row["promotions"] = engine.wsaf.promotions
        row["demotions"] = engine.wsaf.demotions
    if config.wsaf_backend == "icebuckets":
        row["upscales"] = engine.wsaf.upscales
    row["estimates"] = engine.estimates()  # dropped before recording
    return row


def _row_key(row: "dict") -> "tuple":
    return (row.get("git_sha"), row.get("label"))


def _latest(rows: "list[dict]") -> "list[dict]":
    """One row per ``(git_sha, label)``, the latest winning, in time
    order."""
    return history.latest_per_key(
        rows, _row_key, tiebreak=lambda row: (row.get("label", ""),)
    )


def _append_report(rows: "list[dict]") -> None:
    """Append ``rows`` to BENCH_frontier.json, one row per key."""
    history.append(OUTPUT_PATH, rows, _latest)


def run_frontier(
    trace, rounds: int = ROUNDS, tier_interval: int = 512, record: bool = True
) -> "dict":
    """Sweep every variant; return ``{"rows", "report", "by_label"}``.

    ``rows`` is what lands in BENCH_frontier.json (estimates stripped);
    ``by_label`` keeps the in-memory rows including estimates for the
    exactness assertions.
    """
    sha = history.git_sha()
    now = time.time()
    environment = history.environment()
    # One untimed pass before the sweep: the first ingest of a fresh
    # trace pays lazy array materialization and import costs that none
    # of the later variants see, which would make whichever variant
    # runs first (flat, the measured-pps baseline) look several times
    # slower than the rest.
    InstaMeasure(_config({}, tier_interval)).process_trace(trace)
    by_label: "dict[str, dict]" = {}
    rows = []
    for label, overrides in VARIANTS:
        measured = _measure_variant(
            label, overrides, trace, rounds, tier_interval
        )
        by_label[label] = measured
        row = {k: v for k, v in measured.items() if k != "estimates"}
        row.update(git_sha=sha, timestamp=now, **environment)
        rows.append(row)
    if record:
        _append_report(rows)

    flat = by_label["flat"]
    lines = [
        f"commit {sha}  frontier on {flat['packets']:,} packets "
        f"({flat['insertions']:,} WSAF insertions)"
    ]
    lines.append(
        "variant        memory KB  ctr KB  modelled pps   vs flat  "
        "   warm wall pps  vs flat  ARE(1K+)  hh P/R     extra"
    )
    for row in rows:
        extra = ""
        if "cache_hit_rate" in row:
            extra = f"hit {row['cache_hit_rate']:.1%}"
        elif "upscales" in row:
            extra = f"upscales {row['upscales']}"
        lines.append(
            f"{row['label']:<14} "
            f"{row['memory_bytes'] / 1024:>8.1f} "
            f"{row['counter_memory_bytes'] / 1024:>7.1f} "
            f"{row['modelled_pps']:>13,.0f} "
            f"{row['modelled_pps'] / flat['modelled_pps']:>8.2f}x "
            f"{row['wall_pps']:>16,.0f} "
            f"{row['wall_pps'] / flat['wall_pps']:>8.2f}x "
            f"{row['are_1k']:>8.4f}  "
            f"{row['hh_precision']:.2f}/{row['hh_recall']:.2f}  "
            f"{extra}"
        )
    lines.append(f"report: {OUTPUT_PATH.name}")
    return {"rows": rows, "report": "\n".join(lines), "by_label": by_label}


def assert_frontier_bars(result: "dict", smoke: bool = False) -> None:
    """The frontier regression bars; ``smoke`` relaxes the tiered pps bar."""
    by_label = result["by_label"]
    flat = by_label["flat"]

    # Losslessness: when neither side evicts, tiering must not move a
    # single estimate.
    for label, row in by_label.items():
        if row["backend"] != "tiered":
            continue
        if flat["evictions"] == 0 and row["evictions"] == 0:
            assert row["estimates"] == flat["estimates"], (
                f"{label} estimates diverged from flat despite zero "
                "evictions — tiering lost or corrupted records"
            )

    tiered_rows = [r for r in by_label.values() if r["backend"] == "tiered"]
    assert tiered_rows, "no tiered variants swept"
    in_budget = [
        r
        for r in tiered_rows
        if r["memory_bytes"]
        <= MAX_TIERED_MEMORY_OVERHEAD * flat["memory_bytes"]
    ]
    assert in_budget, (
        f"every tiered variant exceeds {MAX_TIERED_MEMORY_OVERHEAD}x the "
        f"flat memory ({flat['memory_bytes']} B)"
    )
    best = max(in_budget, key=lambda r: r["modelled_pps"])
    ratio = best["modelled_pps"] / flat["modelled_pps"]
    floor = MIN_TIERED_SMOKE_FLOOR if smoke else MIN_TIERED_MODELLED_SPEEDUP
    assert ratio >= floor, (
        f"best in-budget tiered variant ({best['label']}) models only "
        f"{ratio:.2f}x flat pps (bar: {floor}x)"
    )
    if smoke and ratio < MIN_TIERED_MODELLED_SPEEDUP:
        print(
            f"note: tiered {ratio:.2f}x flat modelled pps is under the "
            f"{MIN_TIERED_MODELLED_SPEEDUP}x target — accepted above the "
            "no-collapse floor (smoke trace: the cache barely warms; the "
            "target is carried by the recorded full-trace rows)"
        )

    wall_floor = MIN_WALL_PPS_RATIO_SMOKE if smoke else MIN_WALL_PPS_RATIO
    for label, row in by_label.items():
        if row["backend"] == "flat":
            continue
        wall_ratio = row["wall_pps"] / flat["wall_pps"]
        assert wall_ratio >= wall_floor, (
            f"{label} measured ingest collapsed to {wall_ratio:.2f}x the "
            f"flat row's pps (no-collapse floor: {wall_floor}x)"
        )

    for label, row in by_label.items():
        if row["backend"] != "icebuckets":
            continue
        reduction = flat["counter_memory_bytes"] / row["counter_memory_bytes"]
        assert reduction >= MIN_ICE_COUNTER_REDUCTION, (
            f"{label} counter memory reduction is only {reduction:.2f}x "
            f"(bar: {MIN_ICE_COUNTER_REDUCTION}x)"
        )
        are_bound = MAX_ICE_ARE_RATIO * flat["are_1k"] + 1e-9
        assert row["are_1k"] <= are_bound, (
            f"{label} ARE {row['are_1k']:.4f} exceeds "
            f"{MAX_ICE_ARE_RATIO}x the flat ARE ({flat['are_1k']:.4f})"
        )


def test_frontier(caida_trace, write_report):
    """Full frontier sweep; appends BENCH_frontier.json."""
    result = run_frontier(caida_trace)
    write_report("bench_frontier", result["report"])
    assert_frontier_bars(result)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: small trace, one round, relaxed tiered pps floor, "
        "history file untouched",
    )
    parser.add_argument(
        "--no-record",
        action="store_true",
        help="skip writing BENCH_frontier.json (quick implies this)",
    )
    args = parser.parse_args()

    from repro.traffic import CaidaLikeConfig, build_caida_like_trace

    if args.quick:
        trace = build_caida_like_trace(
            CaidaLikeConfig(num_flows=4_000, duration=10.0, seed=1)
        )
        result = run_frontier(
            trace, rounds=1, tier_interval=64, record=False
        )
    else:
        trace = build_caida_like_trace(
            CaidaLikeConfig(num_flows=30_000, duration=60.0, seed=1)
        )
        result = run_frontier(trace, record=not args.no_record)
    print(result["report"])
    assert_frontier_bars(result, smoke=args.quick)


if __name__ == "__main__":
    main()
