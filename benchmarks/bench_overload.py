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
keeps other commits', with legacy rows backfilled by
``_normalize_history`` — the same history policy as
``BENCH_throughput.json``.  Rows of the retired ``degrade`` policy stay
in the file as history; it kept exactly the packets ``shed`` keeps at
its boosted target.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import time

import numpy as np

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


def _environment() -> "dict":
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "numpy_version": np.__version__,
    }


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


def _normalize_history(history: "list[dict]") -> "list[dict]":
    """Backfill legacy rows and dedupe per key, keeping the latest.

    * Rows without ``git_sha`` predate keying; stamp ``"unknown"`` so
      they stay distinguishable from (and replaceable by) keyed rows.
    * Rows without ``policy`` predate the control plane and measured
      the open-loop drop path — backfill ``"oblivious"``.
    * Rows without ``overload`` ran at the sustainable rate — backfill
      ``1.0`` so every row carries the full key.
    * Rows without the environment stamp get explicit ``null`` fields
      so consumers can filter on them.
    * One row per ``(git_sha, policy, overload)``, latest ``timestamp``
      wins; output sorted by timestamp so the file reads as a history.
    """
    best: "dict[tuple, dict]" = {}
    for row in history:
        if not row.get("git_sha"):
            row["git_sha"] = "unknown"
        row.setdefault("policy", "oblivious")
        row.setdefault("overload", 1.0)
        row.setdefault("cpu_count", None)
        row.setdefault("platform", None)
        row.setdefault("numpy_version", None)
        key = _row_key(row)
        kept = best.get(key)
        if kept is None or row.get("timestamp", 0) >= kept.get("timestamp", 0):
            best[key] = row
    return sorted(
        best.values(),
        key=lambda r: (r.get("timestamp", 0), str(r.get("policy"))),
    )


def _load_history() -> "list[dict]":
    """BENCH_overload.json rows, defensively (corrupt file moved aside)."""
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
    history = _load_history()
    history.extend(rows)
    OUTPUT_PATH.write_text(
        json.dumps(_normalize_history(history), indent=2) + "\n"
    )


# -- the sweep -----------------------------------------------------------------


def run_overload(
    base,
    overloads: "tuple[float, ...]" = OVERLOADS,
    threshold: float = HH_THRESHOLD,
    record: bool = True,
) -> "dict":
    """Sweep every overload factor; return ``{"rows", "report"}``."""
    sha = _git_sha()
    now = time.time()
    environment = _environment()
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
