"""Chunk sources — bounded-memory slicers in front of the pipeline.

A :class:`ChunkSource` yields :class:`Chunk` objects: contiguous,
timestamp-ordered packet spans whose columns are NumPy *views* into the
backing trace (no packet data is copied; the bound is on the working set
each pipeline stage touches, which is what the batched kernels size their
arrays by).  :class:`TraceChunkSource` slices an in-memory trace on two
boundaries at once — a packet-count budget and, when ``epoch_seconds`` is
given, epoch time boundaries, so no chunk ever straddles an epoch and the
driver can fire rotation callbacks exactly between chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.traffic.packet import Trace

#: Default packets per chunk (mirrors the batched kernel's chunk budget).
DEFAULT_CHUNK_SIZE = 1 << 20


@dataclass(frozen=True)
class Chunk:
    """One contiguous span of a packet stream.

    Attributes:
        trace: the span's packets (columns are views; ``flows`` is the
            stream's shared flow table).
        index: position of this chunk in the stream, from 0.
        begin / end: packet-index span ``[begin, end)`` in the stream.
        epoch: epoch index of every packet in the chunk (0 when the
            source has no epoch boundaries; chunks never straddle one).
        total_packets: stream length if the source knows it up front
            (lets measurers pre-draw randomness), else ``None``.
        parent: the backing trace, when the stream is one (the multi-core
            manager dispatches over it to learn per-worker queue totals).
    """

    trace: Trace
    index: int
    begin: int
    end: int
    epoch: int = 0
    total_packets: "int | None" = None
    parent: "Trace | None" = None

    @property
    def num_packets(self) -> int:
        return self.end - self.begin


class ChunkSource:
    """Iterable of :class:`Chunk` objects, in stream order.

    Attributes:
        total_packets: stream length, or ``None`` if unknown up front.
        epoch_seconds: epoch width the source splits on, or ``None``.
        start_time: first packet timestamp (epoch 0 starts here), or
            ``None`` until known.
    """

    total_packets: "int | None" = None
    epoch_seconds: "float | None" = None
    start_time: "float | None" = None

    def __iter__(self):
        raise NotImplementedError


class TraceChunkSource(ChunkSource):
    """Slice an in-memory :class:`Trace` into bounded chunks.

    Cut points are the union of packet-count boundaries (every
    ``chunk_size`` packets) and, with ``epoch_seconds``, epoch time
    boundaries at ``start + k * epoch_seconds`` (packets at exactly a
    boundary open the next epoch, matching ``Trace.time_slice``'s
    half-open windows).  Chunks are built once, eagerly, and reused
    across iterations.
    """

    def __init__(
        self,
        trace: Trace,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        epoch_seconds: "float | None" = None,
    ) -> None:
        if chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        if epoch_seconds is not None and epoch_seconds <= 0:
            raise ConfigurationError("epoch_seconds must be positive")
        self.trace = trace
        self.chunk_size = int(chunk_size)
        self.epoch_seconds = epoch_seconds
        self.total_packets = trace.num_packets
        num_packets = trace.num_packets
        self.start_time = (
            float(trace.timestamps[0]) if num_packets else None
        )

        cuts = set(range(0, num_packets, self.chunk_size))
        cuts.add(num_packets)
        epoch_of_cut: "dict[int, int]" = {}
        if epoch_seconds is not None and num_packets:
            start = self.start_time
            last = float(trace.timestamps[-1])
            num_epochs = int((last - start) // epoch_seconds) + 1
            boundaries = start + epoch_seconds * np.arange(1, num_epochs + 1)
            epoch_cuts = np.searchsorted(
                trace.timestamps, boundaries, side="left"
            )
            for epoch, cut in enumerate(epoch_cuts.tolist(), start=1):
                cuts.add(int(cut))
                # A later (deeper) epoch boundary at the same cut wins:
                # the packet at that position belongs to the last epoch
                # whose start it has reached.
                epoch_of_cut[int(cut)] = epoch

        edges = sorted(cuts)
        self._chunks: "list[Chunk]" = []
        epoch = 0
        for index, (begin, end) in enumerate(zip(edges[:-1], edges[1:])):
            if begin in epoch_of_cut:
                epoch = epoch_of_cut[begin]
            if begin == end:
                continue
            sub = Trace(
                timestamps=trace.timestamps[begin:end],
                flow_ids=trace.flow_ids[begin:end],
                sizes=trace.sizes[begin:end],
                flows=trace.flows,
            )
            self._chunks.append(
                Chunk(
                    trace=sub,
                    index=len(self._chunks),
                    begin=begin,
                    end=end,
                    epoch=epoch,
                    total_packets=num_packets,
                    parent=trace,
                )
            )

    def __iter__(self):
        return iter(self._chunks)

    def __len__(self) -> int:
        return len(self._chunks)


class FileChunkSource(TraceChunkSource):
    """Chunk a saved trace NPZ (:mod:`repro.traffic.trace_io`).

    The NPZ format holds whole columns, so the file is loaded once and
    then sliced like any in-memory trace; the bounded-memory guarantee
    applies to everything downstream of the source.
    """

    def __init__(
        self,
        path: str,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        epoch_seconds: "float | None" = None,
    ) -> None:
        from repro.traffic.trace_io import load_trace

        super().__init__(
            load_trace(path), chunk_size=chunk_size, epoch_seconds=epoch_seconds
        )


def as_chunk_source(
    source,
    chunk_size: "int | None" = None,
    epoch_seconds: "float | None" = None,
) -> ChunkSource:
    """Coerce ``source`` into a :class:`ChunkSource`.

    A :class:`Trace` is wrapped in a :class:`TraceChunkSource`; an
    existing source passes through unchanged (``chunk_size`` and
    ``epoch_seconds`` must then be unset — the source already decided
    its slicing).
    """
    if isinstance(source, Trace):
        return TraceChunkSource(
            source,
            chunk_size=chunk_size if chunk_size is not None else DEFAULT_CHUNK_SIZE,
            epoch_seconds=epoch_seconds,
        )
    if not isinstance(source, ChunkSource):
        raise ConfigurationError(
            f"expected a Trace or ChunkSource, got {type(source).__name__}"
        )
    if chunk_size is not None or epoch_seconds is not None:
        raise ConfigurationError(
            "chunk_size/epoch_seconds apply only when passing a Trace; "
            "a ChunkSource already fixed its slicing"
        )
    return source
