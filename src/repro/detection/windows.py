"""Windowed (periodic) measurement.

The paper updates its Top-K lists "every 10 minutes" from the running WSAF
without resetting the sketches — long-term measurement is the whole point
of the In-DRAM design ("we can store much more flows; thereby, we do not
need a remote collector").  This module runs an engine over consecutive
time windows and snapshots a quality metric at each boundary, producing
the recall-over-time series behind Fig 10/11's Top-K panels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.instameasure import InstaMeasure, InstaMeasureConfig
from repro.detection.topk import topk_recall
from repro.errors import ConfigurationError
from repro.pipeline import Pipeline, TraceChunkSource
from repro.traffic.packet import Trace


@dataclass
class WindowSnapshot:
    """State of the measurement at one window boundary."""

    end_time: float
    packets_so_far: int
    wsaf_flows: int
    recalls: "dict[int, float]"


def _window_estimates(measurer, trace: Trace, record) -> np.ndarray:
    """Per-flow packet estimates at a window boundary, any measurer.

    When the boundary fired the measurer's ``rotate`` hook, its snapshot
    (taken *before* any flush/ship) is what the system reports for the
    window; otherwise the live estimates are read — through the engines'
    vectorized ``estimates_for`` when available, through the protocol's
    ``estimates`` mapping for everything else.
    """
    table = record.snapshot
    if table is None:
        estimates_for = getattr(measurer, "estimates_for", None)
        if estimates_for is not None:
            try:
                est, _ = estimates_for(trace, include_residual=True)
            except TypeError:  # e.g. the multi-core manager: no residual
                est, _ = estimates_for(trace)
            return est
        table = measurer.estimates(flow_keys=trace.flows.key64)
    est = np.zeros(trace.num_flows)
    for flow_index, key in enumerate(trace.flows.key64.tolist()):
        value = table.get(key)
        if value is not None:
            est[flow_index] = value[0]
    return est


def windowed_topk_recall(
    trace: Trace,
    window_seconds: float,
    ks: "list[int]",
    config: "InstaMeasureConfig | None" = None,
    measurer=None,
    rotate: bool = False,
) -> "list[WindowSnapshot]":
    """Measure ``trace`` window by window, snapshotting Top-K recall.

    A pipeline epoch consumer: the chunk source splits on window
    boundaries and the driver fires once per window (empty windows
    included), where the current per-flow packet estimates are scored
    against the exact counts of everything seen *so far* (cumulative
    ground truth, as an operator refreshing a dashboard would experience).

    Args:
        trace: input packets.
        window_seconds: snapshot period (the paper uses 10 minutes).
        ks: Top-K sizes to score.
        config: engine configuration when no ``measurer`` is given.
        measurer: any :class:`~repro.pipeline.protocol.StreamingMeasurer`
            to evaluate instead of a fresh :class:`InstaMeasure` — the
            NetFlow cache, the delegation loop, and the sketch baselines
            all produce a comparable recall-over-time series.
        rotate: fire the measurer's ``rotate(end_time)`` hook at each
            boundary and score its returned snapshot (NetFlow flushes its
            active-timeout entries, delegation ships completed epochs) —
            the realistic windowed-operation mode for those systems.
    """
    if window_seconds <= 0:
        raise ConfigurationError("window_seconds must be positive")
    if not ks or any(k < 1 for k in ks):
        raise ConfigurationError("ks must be non-empty positive integers")
    if config is not None and measurer is not None:
        raise ConfigurationError("pass either config or measurer, not both")
    if trace.num_packets == 0:
        return []

    engine = measurer if measurer is not None else InstaMeasure(config)
    end = float(trace.timestamps[-1])
    snapshots: "list[WindowSnapshot]" = []

    def on_window(record, measurer) -> None:
        # Packets strictly before the boundary — windows are half-open,
        # matching ``Trace.time_slice``.
        upto = int(np.searchsorted(trace.timestamps, record.end_time, side="left"))
        cumulative_truth = np.bincount(
            trace.flow_ids[:upto], minlength=trace.num_flows
        ).astype(np.float64)
        est = _window_estimates(measurer, trace, record)
        seen = cumulative_truth > 0
        recalls = {}
        for k in ks:
            if seen.sum() == 0:
                recalls[k] = 1.0
            else:
                recalls[k] = topk_recall(est[seen], cumulative_truth[seen], k)
        wsaf = getattr(measurer, "wsaf", None)
        snapshots.append(
            WindowSnapshot(
                end_time=min(record.end_time, end),
                packets_so_far=upto,
                wsaf_flows=(
                    len(wsaf) if wsaf is not None else int(np.count_nonzero(est))
                ),
                recalls=recalls,
            )
        )

    Pipeline(engine, on_epoch=on_window, rotate=rotate).run(
        TraceChunkSource(trace, epoch_seconds=window_seconds)
    )
    return snapshots
