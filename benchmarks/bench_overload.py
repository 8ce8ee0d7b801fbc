"""Overload accuracy: closed-loop load policies vs oblivious tail drops.

Closes the loop the backpressure control plane opens
(:mod:`repro.pipeline.control`): replay the lab trace at offered rates
*above* the sustainable capacity and score what each overload response
does to detection accuracy.

Two responses per overload factor, both observing the same offered
stream and ingesting at (or below) the same effective rate:

* **oblivious** — the open-loop baseline: a
  :class:`~repro.simulate.linkmodel.MirrorPort` at the capacity rate
  drops whatever exceeds the line, and the measurer ingests the
  post-drop stream.  The drop rate is unknown at the observation point
  (that is what "oblivious" means), so estimates cannot be compensated
  — the paper's campus deployment lives with exactly this loss model.
  An ``oracle_hh_recall`` column records what compensation *would*
  recover if the drop rate were magically known, keeping the headline
  honest.
* **shed** — :class:`~repro.pipeline.control.ShedController` thins
  overloaded chunks with deterministic seed-stable packet sampling down
  to a target just under the mirror port's delivered rate.  The keep
  rate is *known* (``ControllerStats`` carries exact counts), so
  estimates are scaled back up by it.

The headline regression bar: at equal-or-lower effective ingest rate,
``shed`` must beat the oblivious drop baseline on heavy-hitter recall
for at least one offered rate.  ``--quick`` is the CI smoke — a small trace, one
overload factor, history untouched, and the bar relaxed to a
no-collapse floor (policy recall >= oblivious recall).

Rows land in ``BENCH_overload.json`` keyed by ``(git_sha, policy,
overload)``: re-running on a commit replaces that commit's rows and
keeps other commits' (``benchmarks/history.py``).  Rows of the retired
``degrade`` policy stay in the file as history; it kept exactly the
packets ``shed`` keeps at its boosted target.
"""

from __future__ import annotations

import argparse
import pathlib
import time

import numpy as np

import history
from repro.analysis.metrics import mean_relative_error
from repro.core import InstaMeasure, InstaMeasureConfig
from repro.detection import classify_detections, ground_truth_heavy_hitters
from repro.pipeline import ShedController, TraceChunkSource, run_pipeline
from repro.simulate import MirrorPort
from repro.state.codec import to_bytes
from repro.traffic import CaidaLikeConfig, build_caida_like_trace
from repro.traffic.replay import scale_rate

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_overload.json"

#: Offered-rate multiples of the sustainable capacity swept by the full
#: bench; the smoke sweeps only the middle one.
OVERLOADS = (1.5, 2.5, 4.0)
SMOKE_OVERLOADS = (2.5,)
#: Chunk granularity of the controlled runs — small enough that one run
#: makes many control decisions.
CHUNK_SIZE = 2048
#: The shed target sits this far under the mirror port's delivered
#: rate, so sampling noise cannot push kept packets above delivered.
TARGET_SAFETY = 0.95
#: Mirror-port buffer: small enough that overload engages the drop path
#: within the first epoch of the trace.
BUFFER_BYTES = 256 * 1024
#: Controller sampling seed (stamped into rows; shed determinism).
CONTROL_SEED = 11

#: Heavy-hitter threshold (packets, on the offered trace's ground
#: truth) and the ARE band, full and smoke trace scales.
HH_THRESHOLD = 1_000.0
SMOKE_HH_THRESHOLD = 300.0


def _engine() -> InstaMeasure:
    return InstaMeasure(
        InstaMeasureConfig(
            l1_memory_bytes=8192, wsaf_entries=1 << 16, seed=1
        )
    )


def _score(offered, est_packets, compensation, threshold) -> "dict":
    """HH precision/recall and banded ARE of compensated estimates."""
    est = est_packets * compensation
    truth = offered.ground_truth_packets().astype(float)
    truth_hh, _ = ground_truth_heavy_hitters(
        offered, threshold_packets=threshold
    )
    assert truth_hh, (
        f"no ground-truth heavy hitters at threshold {threshold} — "
        "the bench trace is too small for its threshold"
    )
    detected = set(np.flatnonzero(est >= threshold).tolist())
    outcome = classify_detections(detected, truth_hh, offered.num_flows)
    band = truth >= threshold
    return {
        "hh_threshold": threshold,
        "hh_truth": len(truth_hh),
        "hh_detected": len(detected),
        "hh_precision": outcome.precision,
        "hh_recall": outcome.recall,
        "are_band": mean_relative_error(est[band], truth[band]),
    }


def _run_oblivious(offered, capacity_pps: float, threshold: float) -> "dict":
    """MirrorPort drops at capacity; estimator ingests the survivors."""
    mean_bits = float(offered.sizes.mean()) * 8.0
    port = MirrorPort(
        capacity_bps=capacity_pps * mean_bits, buffer_bytes=BUFFER_BYTES
    )
    delivered, port_stats = port.apply(offered)
    engine = _engine()
    run_pipeline(engine, TraceChunkSource(delivered, chunk_size=CHUNK_SIZE))
    est_packets, _ = engine.estimates_for(offered)
    row = {
        "policy": "oblivious",
        "measured_packets": port_stats.delivered_packets,
        "keep_rate": 1.0 - port_stats.drop_rate,
        "compensation": 1.0,
        "target_pps": None,
    }
    # The open-loop baseline cannot know its drop rate; score it as
    # deployed (uncompensated), but record the oracle column too.
    row.update(_score(offered, est_packets, 1.0, threshold))
    oracle = _score(
        offered,
        est_packets,
        1.0 / max(1.0 - port_stats.drop_rate, 1e-12),
        threshold,
    )
    row["oracle_hh_recall"] = oracle["hh_recall"]
    row["_delivered_packets"] = port_stats.delivered_packets
    return row


def _run_shed(offered, target_pps: float, threshold: float):
    """One shed run; returns (row, snapshot_bytes)."""
    engine = _engine()
    result = run_pipeline(
        engine,
        TraceChunkSource(offered, chunk_size=CHUNK_SIZE),
        controller=ShedController(target_pps, seed=CONTROL_SEED),
    )
    stats = result.controller_stats
    est_packets, _ = engine.estimates_for(offered)
    compensation = 1.0 / max(stats["keep_rate"], 1e-12)
    row = {
        "policy": "shed",
        "measured_packets": stats["kept_packets"],
        "keep_rate": stats["keep_rate"],
        "compensation": compensation,
        "target_pps": target_pps,
        "thinned_chunks": stats["thinned_chunks"],
        "dropped_chunks": stats["dropped_chunks"],
    }
    row.update(_score(offered, est_packets, compensation, threshold))
    return row, to_bytes(engine.snapshot())


def _sweep_one(base, overload: float, capacity_pps: float, threshold: float):
    """Both responses at one offered rate; returns the row group."""
    offered = scale_rate(base, overload)
    duration = float(offered.timestamps[-1] - offered.timestamps[0])
    offered_pps = offered.num_packets / duration

    oblivious = _run_oblivious(offered, capacity_pps, threshold)
    delivered = oblivious.pop("_delivered_packets")
    delivered_pps = delivered / duration
    target = TARGET_SAFETY * delivered_pps

    shed, shed_snapshot = _run_shed(offered, target, threshold)
    shed_again, again_snapshot = _run_shed(offered, target, threshold)
    assert shed_snapshot == again_snapshot, (
        "shed is not deterministic: two runs over the same trace and "
        "schedule produced different snapshots"
    )
    assert shed == shed_again, "shed rows diverged across identical runs"

    rows = []
    for row in (oblivious, shed):
        row.update(
            overload=overload,
            capacity_pps=capacity_pps,
            offered_pps=offered_pps,
            offered_packets=offered.num_packets,
            effective_pps=row["measured_packets"] / duration,
        )
        rows.append(row)
    return rows


# -- history file --------------------------------------------------------------


def _row_key(row: "dict") -> "tuple":
    return (
        row.get("git_sha"),
        row.get("policy"),
        row.get("overload"),
    )


def _latest(rows: "list[dict]") -> "list[dict]":
    """One row per :func:`_row_key`, the latest winning, in time order."""
    return history.latest_per_key(
        rows, _row_key, tiebreak=lambda row: (str(row.get("policy")),)
    )


def _append_report(rows: "list[dict]") -> None:
    """Append ``rows`` to BENCH_overload.json, one row per key."""
    history.append(OUTPUT_PATH, rows, _latest)


# -- the sweep -----------------------------------------------------------------


def run_overload(
    base,
    overloads: "tuple[float, ...]" = OVERLOADS,
    threshold: float = HH_THRESHOLD,
    record: bool = True,
) -> "dict":
    """Sweep every overload factor; return ``{"rows", "report"}``."""
    sha = history.git_sha()
    now = time.time()
    environment = history.environment()
    duration = float(base.timestamps[-1] - base.timestamps[0])
    capacity_pps = base.num_packets / duration

    rows = []
    for overload in overloads:
        rows.extend(_sweep_one(base, overload, capacity_pps, threshold))
    for row in rows:
        row.update(
            git_sha=sha,
            timestamp=now,
            control_seed=CONTROL_SEED,
            chunk_size=CHUNK_SIZE,
            **environment,
        )
    if record:
        _append_report(rows)

    lines = [
        f"commit {sha}  overload sweep: capacity {capacity_pps:,.0f} pps, "
        f"{base.num_packets:,} packets, HH threshold {threshold:,.0f}"
    ]
    lines.append(
        "overload  policy     effective pps  keep     hh recall  "
        "hh precision  ARE(band)  extra"
    )
    for row in rows:
        extra = ""
        if row["policy"] == "oblivious":
            extra = f"oracle recall {row['oracle_hh_recall']:.2f}"
        lines.append(
            f"{row['overload']:>7.1f}x  "
            f"{row['policy']:<9} "
            f"{row['effective_pps']:>13,.0f}  "
            f"{row['keep_rate']:>6.1%}  "
            f"{row['hh_recall']:>9.2f}  "
            f"{row['hh_precision']:>12.2f}  "
            f"{row['are_band']:>9.4f}  "
            f"{extra}"
        )
    lines.append(f"report: {OUTPUT_PATH.name}")
    return {"rows": rows, "report": "\n".join(lines)}


def assert_overload_bars(result: "dict", smoke: bool = False) -> None:
    """The overload regression bars; ``smoke`` relaxes "beat" to "match".

    * Fairness everywhere: shed keeps at most as many packets as the
      mirror port delivers (equal-or-lower effective ingest rate).
    * Full mode: at least one offered rate where shed *strictly* beats
      oblivious on heavy-hitter recall.
    * Smoke mode: shed recall never collapses below oblivious recall
      at any swept rate.
    """
    by_overload: "dict[float, dict[str, dict]]" = {}
    for row in result["rows"]:
        by_overload.setdefault(row["overload"], {})[row["policy"]] = row

    beaten = []
    for overload, group in sorted(by_overload.items()):
        oblivious, shed = group["oblivious"], group["shed"]
        assert shed["measured_packets"] <= oblivious["measured_packets"], (
            f"shed at {overload}x ingested "
            f"{shed['measured_packets']:,} packets, more than the "
            f"{oblivious['measured_packets']:,} the mirror port "
            "delivered — the accuracy comparison would be unfair"
        )
        assert shed["hh_recall"] >= oblivious["hh_recall"], (
            f"shed at {overload}x recall "
            f"{shed['hh_recall']:.2f} collapsed below the oblivious "
            f"baseline's {oblivious['hh_recall']:.2f}"
        )
        if shed["hh_recall"] > oblivious["hh_recall"]:
            beaten.append(overload)
    if not smoke:
        assert beaten, (
            "no offered rate where shed strictly beats the oblivious "
            "baseline on heavy-hitter recall"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: small trace, one overload factor, no-collapse "
        "floor, history file untouched",
    )
    parser.add_argument(
        "--no-record",
        action="store_true",
        help="skip writing BENCH_overload.json (quick implies this)",
    )
    args = parser.parse_args()

    if args.quick:
        base = build_caida_like_trace(
            CaidaLikeConfig(num_flows=3_000, duration=8.0, seed=7)
        )
        result = run_overload(
            base,
            overloads=SMOKE_OVERLOADS,
            threshold=SMOKE_HH_THRESHOLD,
            record=False,
        )
    else:
        base = build_caida_like_trace(
            CaidaLikeConfig(num_flows=20_000, duration=30.0, seed=7)
        )
        result = run_overload(base, record=not args.no_record)
    print(result["report"])
    assert_overload_bars(result, smoke=args.quick)


if __name__ == "__main__":
    main()
