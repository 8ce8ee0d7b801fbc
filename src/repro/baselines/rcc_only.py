"""Single-layer RCC as a WSAF front-end (the Fig 1 / Fig 7 baseline).

The paper first tries plain RCC as the FlowRegulator and finds its
"saturation occurs in the speed of 12-19 % of packet arrival rate … which is
too frequent to compensate for SRAM's speed margin over DRAM's (5-10 %)".
This module runs exactly that experiment: every RCC saturation is one WSAF
insertion, and the per-bucket insertion rate over the trace timeline is the
series Fig 1 and Fig 7 plot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.rcc import RCCSketch
from repro.traffic.packet import Trace


@dataclass
class RCCRunResult:
    """Outcome of regulating a trace with a single-layer RCC."""

    packets: int
    saturations: int
    bucket_times: np.ndarray
    bucket_pps: np.ndarray
    bucket_ips: np.ndarray
    estimates: "dict[int, float]"

    @property
    def regulation_rate(self) -> float:
        """WSAF insertions per packet (= RCC saturations per packet)."""
        return self.saturations / self.packets if self.packets else 0.0


class RCCRegulatorMeasurer:
    """A single-layer RCC regulator feeding a per-flow accumulator.

    Streams: sketch words, per-flow estimates, and the per-bucket pps/ips
    series all carry across chunks, and the bit-choice stream is a
    persistent int64 draw (split-safe), so chunked ingestion reproduces
    the whole-trace run exactly.

    Args:
        memory_bytes: RCC sketch memory.
        vector_bits / word_bits: RCC geometry.
        seed: placement and bit-choice seed.
        bucket_seconds: width of the Fig 1/7 time-series buckets.
    """

    def __init__(
        self,
        memory_bytes: int,
        vector_bits: int = 8,
        word_bits: int = 32,
        seed: int = 0,
        bucket_seconds: float = 1.0,
    ) -> None:
        self.sketch = RCCSketch(
            memory_bytes, vector_bits=vector_bits, word_bits=word_bits, seed=seed
        )
        self.vector_bits = vector_bits
        self.bucket_seconds = bucket_seconds
        self._rng = np.random.default_rng(seed ^ 0xACC)
        self._start: "float | None" = None
        self._estimates: "dict[int, float]" = {}
        self._bucket_pps: "list[float]" = []
        self._bucket_ips: "list[float]" = []
        self.packets = 0
        self.saturations = 0

    def ingest(self, chunk) -> int:
        """Regulate one chunk; every saturation is one WSAF insertion."""
        from repro.pipeline.protocol import chunk_trace

        trace = chunk_trace(chunk)
        num_packets = trace.num_packets
        if num_packets == 0:
            return 0
        sketch = self.sketch
        if self._start is None:
            self._start = float(trace.timestamps[0])
        # Each chunk is placed through its own flow table: streaming
        # sources hand every chunk a different one.
        idx_by_flow, off_by_flow = (
            placed.tolist() for placed in sketch.place_array(trace.flows.key64)
        )
        keys = trace.flows.key64.tolist()

        bits = self._rng.integers(
            0, self.vector_bits, size=num_packets, dtype=np.int64
        ).tolist()
        flow_ids = trace.flow_ids.tolist()
        bucket_of_packet = (
            ((trace.timestamps - self._start) / self.bucket_seconds)
            .astype(np.int64)
            .tolist()
        )
        while len(self._bucket_pps) <= bucket_of_packet[-1]:
            self._bucket_pps.append(0.0)
            self._bucket_ips.append(0.0)
        bucket_pps = self._bucket_pps
        bucket_ips = self._bucket_ips

        words = sketch.words
        bit_masks = sketch._bit_masks
        window_masks = sketch._window_masks
        noise_max = sketch.noise_max
        decode = sketch._decode_table
        vector_bits = self.vector_bits
        estimates = self._estimates

        saturations = 0
        for p in range(num_packets):
            flow = flow_ids[p]
            idx = idx_by_flow[flow]
            offset = off_by_flow[flow]
            window = window_masks[offset]
            bucket = bucket_of_packet[p]
            bucket_pps[bucket] += 1
            word = words[idx] | bit_masks[offset][bits[p]]
            zeros = vector_bits - (word & window).bit_count()
            if zeros > noise_max:
                words[idx] = word
                continue
            words[idx] = word & ~window
            saturations += 1
            bucket_ips[bucket] += 1
            key = keys[flow]
            estimates[key] = estimates.get(key, 0.0) + decode[zeros]

        sketch.packets_encoded += num_packets
        sketch.saturations += saturations
        self.packets += num_packets
        self.saturations += saturations
        return num_packets

    def finalize(self) -> RCCRunResult:
        """The run's saturation stats, time series, and flow estimates."""
        if self._start is None:
            empty = np.array([])
            return RCCRunResult(0, 0, empty, empty, empty, {})
        num_buckets = len(self._bucket_pps)
        times = self._start + self.bucket_seconds * np.arange(num_buckets)
        return RCCRunResult(
            packets=self.packets,
            saturations=self.saturations,
            bucket_times=times,
            bucket_pps=np.array(self._bucket_pps) / self.bucket_seconds,
            bucket_ips=np.array(self._bucket_ips) / self.bucket_seconds,
            estimates=dict(self._estimates),
        )

    def estimates(self, flow_keys=None) -> "dict[int, tuple[float, float]]":
        """Normalized ``{key64: (packets, 0.0)}`` accumulated estimates."""
        from repro.baselines.streaming import table_estimates

        return table_estimates(self._estimates, flow_keys)


def run_rcc_regulator(
    trace: Trace,
    memory_bytes: int,
    vector_bits: int = 8,
    word_bits: int = 32,
    seed: int = 0,
    bucket_seconds: float = 1.0,
) -> RCCRunResult:
    """Regulate ``trace`` with one RCC sketch; every saturation hits the WSAF.

    One-chunk streaming over :class:`RCCRegulatorMeasurer`.  Returns
    per-bucket pps/ips series (Fig 1/7) plus accumulated per-flow
    estimates keyed by the flows' key64 (so accuracy can also be compared).
    """
    measurer = RCCRegulatorMeasurer(
        memory_bytes,
        vector_bits=vector_bits,
        word_bits=word_bits,
        seed=seed,
        bucket_seconds=bucket_seconds,
    )
    measurer.ingest(trace)
    return measurer.finalize()
