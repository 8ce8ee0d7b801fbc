"""Delegation-based measurement — the remote-collector strategy, concrete.

Section II's taxonomy calls the conventional design "delegation-based
decoding": the device encodes into a sketch, periodically ships the sketch
(plus the flow-ID set, which lives in DRAM) to a remote collector, and the
collector decodes.  Detection then waits for the end of the epoch plus the
network/decode delay, and every epoch costs transfer bandwidth.

This module implements that whole loop so it can be compared against
InstaMeasure's saturation-based decoding on equal terms: same trace, same
thresholds, measured detection times *and* measured bytes shipped.  The
measurer streams: epoch boundaries are detected as chunks arrive, each
completed epoch ships immediately, and :meth:`DelegatingMeasurer.finalize`
ships the tail epoch — a chunk boundary inside an epoch changes nothing
because the per-epoch CSM sketch encodes from a persistent choice stream.
The collector keys flows by ``key64``, so chunks may each carry their own
flow table (as the streaming sources' chunks do).  Epochs sit on the
driver's grid (:class:`~repro.pipeline.source.EpochGrid`) from the
stream's first packet, so a packet on a boundary opens the next epoch
and a rotation at a boundary ships the epoch that just ended.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.csm import CSMSketch
from repro.errors import ConfigurationError
from repro.pipeline.source import EpochGrid
from repro.traffic.packet import Trace

#: Wire bytes per flow ID shipped alongside each epoch's sketch.
FLOW_ID_BYTES = 8


@dataclass
class DelegationRunStats:
    """Costs and outcomes of a delegation-based run.

    ``detections`` maps a flow to the time the collector first saw its
    cumulative estimate cross the threshold: keyed by ``key64`` from
    :meth:`DelegatingMeasurer.finalize`, by the trace's flow index from
    :meth:`DelegatingMeasurer.process_trace`.
    """

    epochs: int
    packets: int
    bytes_shipped: int
    detections: "dict[int, float]"

    def shipping_overhead_bps(self, duration: float) -> float:
        """Average collector-link bandwidth consumed, bits per second."""
        if duration <= 0:
            return 0.0
        return self.bytes_shipped * 8 / duration


@dataclass
class _DelegationStream:
    """Bookkeeping for one in-progress delegation run."""

    #: Epochs from the stream's first packet.
    grid: EpochGrid
    #: Cumulative collector estimate per flow key.
    collector: "dict[int, float]" = field(default_factory=dict)
    #: Keys of the flows the current epoch saw, one array per segment.
    epoch_keys: "list[np.ndarray]" = field(default_factory=list)
    detections: "dict[int, float]" = field(default_factory=dict)
    bytes_shipped: int = 0
    epochs: int = 0
    packets: int = 0
    current_epoch: int = 0
    sketch: "CSMSketch | None" = None


class DelegatingMeasurer:
    """Epoch-sketch-ship-decode measurement (the conventional pipeline).

    Args:
        sketch_memory_bytes: per-epoch sketch size (a fresh CSM each epoch,
            the offline-decodable sketch family the paper benchmarks).
        epoch_seconds: shipping period.
        network_delay_seconds: transfer + collector decode delay.
        counters_per_flow: CSM storage-vector length.
        seed: hash/randomness seed.
        threshold_packets: detection threshold; the collector records when
            a flow's cumulative estimate first crosses it (None disables
            detection tracking).
    """

    def __init__(
        self,
        sketch_memory_bytes: int,
        epoch_seconds: float,
        network_delay_seconds: float,
        counters_per_flow: int = 16,
        seed: int = 0,
        threshold_packets: "float | None" = None,
    ) -> None:
        if epoch_seconds <= 0:
            raise ConfigurationError("epoch_seconds must be positive")
        if network_delay_seconds < 0:
            raise ConfigurationError("network_delay_seconds must be >= 0")
        self.sketch_memory_bytes = sketch_memory_bytes
        self.epoch_seconds = epoch_seconds
        self.network_delay_seconds = network_delay_seconds
        self.counters_per_flow = counters_per_flow
        self.seed = seed
        self.threshold_packets = threshold_packets
        self._stream: "_DelegationStream | None" = None
        #: final ``{key64: estimate}`` collector table of the last
        #: finished run.
        self.collector: "dict[int, float] | None" = None

    # -- streaming protocol --------------------------------------------------

    def ingest(self, chunk) -> int:
        """Encode one chunk, shipping every epoch it completes."""
        from repro.pipeline.protocol import chunk_trace

        trace = chunk_trace(chunk)
        if trace.num_packets == 0:
            return 0
        timestamps = trace.timestamps
        if self._stream is None:
            self._stream = _DelegationStream(
                grid=EpochGrid(float(timestamps[0]), self.epoch_seconds)
            )
        stream = self._stream
        stream.packets += trace.num_packets

        begin = 0
        num_packets = trace.num_packets
        while begin < num_packets:
            # One epoch's packets at a time, cut as the sources cut.
            epoch = stream.grid.epoch_of(float(timestamps[begin]))
            end = int(
                np.searchsorted(timestamps, stream.grid.end_time(epoch), side="left")
            )
            if epoch != stream.current_epoch:
                self._ship_epoch(stream)
                stream.current_epoch = epoch
            if stream.sketch is None:
                stream.sketch = CSMSketch(
                    self.sketch_memory_bytes,
                    counters_per_flow=self.counters_per_flow,
                    seed=self.seed + stream.current_epoch,
                )
            segment = Trace(
                timestamps=trace.timestamps[begin:end],
                flow_ids=trace.flow_ids[begin:end],
                sizes=trace.sizes[begin:end],
                flows=trace.flows,
            )
            stream.sketch.encode_trace(segment)
            stream.epoch_keys.append(
                trace.flows.key64[np.unique(segment.flow_ids)]
            )
            begin = end
        return trace.num_packets

    def _ship_epoch(self, stream: _DelegationStream) -> None:
        """Ship the current epoch's sketch to the collector and decode."""
        if stream.sketch is None:
            return  # the epoch saw no packets: nothing to ship
        keys = np.unique(np.concatenate(stream.epoch_keys))
        estimates = stream.sketch.decode_flows(keys).tolist()
        seen = keys.tolist()
        collector = stream.collector
        for key, estimate in zip(seen, estimates):
            collector[key] = collector.get(key, 0.0) + estimate
        stream.bytes_shipped += (
            self.sketch_memory_bytes + FLOW_ID_BYTES * len(seen)
        )
        stream.epochs += 1
        if self.threshold_packets is not None:
            available_at = (
                stream.grid.end_time(stream.current_epoch)
                + self.network_delay_seconds
            )
            for key in seen:
                if (
                    collector[key] >= self.threshold_packets
                    and key not in stream.detections
                ):
                    stream.detections[key] = available_at
        stream.sketch = None
        stream.epoch_keys = []

    def rotate(self, now: float) -> "dict[int, tuple[float, float]]":
        """Window boundary: ship every epoch completed by ``now``.

        Aligns the shipping schedule with an external windowing clock —
        a real collector has received (and decoded) every epoch that
        ended before the window closed, even when no packet has arrived
        since.  Returns the collector's estimates as of ``now``, so
        windowed evaluations compare delegation against the in-DRAM
        engines at the same instants.
        """
        stream = self._stream
        if stream is None:
            return self.estimates()
        reached = stream.grid.epoch_of(now)
        if reached > stream.current_epoch:
            # The in-progress epoch's window has fully elapsed; ship it.
            # (Empty epochs in between never opened a sketch.)
            self._ship_epoch(stream)
            stream.current_epoch = reached
        return _collector_estimates(stream.collector, None)

    def finalize(self) -> DelegationRunStats:
        """Ship the tail epoch and return the run's cost/outcome stats.

        The collector's final per-flow estimates stay readable through
        :attr:`collector` and :meth:`estimates`.
        """
        stream = self._stream
        self._stream = None
        if stream is None:
            return DelegationRunStats(0, 0, 0, {})
        self._ship_epoch(stream)
        self.collector = stream.collector
        return DelegationRunStats(
            epochs=stream.epochs,
            packets=stream.packets,
            bytes_shipped=stream.bytes_shipped,
            detections=stream.detections,
        )

    def estimates(self, flow_keys=None) -> "dict[int, tuple[float, float]]":
        """Normalized ``{key64: (packets, 0.0)}`` collector estimates."""
        return _collector_estimates(self.collector or {}, flow_keys)

    # -- whole-trace convenience ---------------------------------------------

    def process_trace(
        self,
        trace: Trace,
        threshold_packets: "float | None" = None,
    ) -> "tuple[np.ndarray, DelegationRunStats]":
        """Run the full delegate-and-decode loop over ``trace``.

        One-chunk streaming: equivalent to ``ingest`` + ``finalize``.
        ``threshold_packets`` overrides the constructor's threshold for
        this run.

        Returns:
            (final per-flow packet estimates at the collector, aligned
            with ``trace.flows``; stats).  ``stats.detections`` maps flow
            index → time the collector first saw the flow's cumulative
            estimate cross ``threshold_packets`` (absent flows never
            crossed; empty dict if no threshold given).
        """
        if trace.num_packets == 0:
            return np.zeros(trace.num_flows), DelegationRunStats(0, 0, 0, {})
        previous = self.threshold_packets
        if threshold_packets is not None:
            self.threshold_packets = threshold_packets
        try:
            self.ingest(trace)
            stats = self.finalize()
        finally:
            self.threshold_packets = previous
        keys = trace.flows.key64.tolist()
        flow_of = {key: flow for flow, key in enumerate(keys)}
        stats.detections = {
            flow_of[key]: when for key, when in stats.detections.items()
        }
        estimates = np.array([self.collector.get(key, 0.0) for key in keys])
        return estimates, stats


def _collector_estimates(
    collector: "dict[int, float]", flow_keys
) -> "dict[int, tuple[float, float]]":
    """Normalized estimates of the flows the collector has a nonzero
    reading for."""
    from repro.baselines.streaming import table_estimates

    return table_estimates(
        {key: value for key, value in collector.items() if value}, flow_keys
    )
