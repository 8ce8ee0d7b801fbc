"""Chunk sources — bounded-memory slicers in front of the pipeline.

A :class:`ChunkSource` yields :class:`Chunk` objects: contiguous,
timestamp-ordered packet spans whose columns are NumPy *views* into the
backing trace (no packet data is copied; the bound is on the working set
each pipeline stage touches, which is what the batched kernels size their
arrays by).  Sources alone slice a stream, all with one cutter
(:meth:`ChunkSource._next_cut`) on one :class:`EpochGrid`: a packet-count
budget and epoch boundaries, so no chunk ever straddles an epoch and the
driver can fire rotation callbacks exactly between chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.traffic.packet import Trace

#: Default packets per chunk (mirrors the batched kernel's chunk budget).
DEFAULT_CHUNK_SIZE = 1 << 20


@dataclass(frozen=True)
class EpochGrid:
    """Epochs ``width`` seconds wide from ``origin``: epoch ``k`` starts at
    ``origin + width * k`` (in float64), and a timestamp on a boundary
    opens the next epoch, as in ``Trace.time_slice``'s half-open windows.
    """

    origin: float
    width: float

    def end_time(self, epoch: int) -> float:
        """Where ``epoch`` ends and the next one starts."""
        return self.origin + self.width * (epoch + 1)

    def epoch_of(self, timestamp: float) -> int:
        """The epoch ``timestamp`` falls in: floor division's guess, moved
        across the boundaries rounding can put it beside.  A width too
        fine for the timestamps' float resolution raises
        :class:`~repro.errors.ConfigurationError`."""
        try:
            epoch = int((timestamp - self.origin) // self.width)
            # Rounding puts the guess one step off at most, unless the
            # width is within a few ulps of the timestamps' resolution.
            for _ in range(4):
                if self.end_time(epoch) <= timestamp:
                    epoch += 1
                elif self.end_time(epoch - 1) > timestamp:
                    epoch -= 1
                else:
                    return epoch
        except (OverflowError, ValueError):
            pass
        raise ConfigurationError(
            f"{self.width}-s epochs from {self.origin} do not resolve {timestamp}"
        )


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
        chunk_size: packets per chunk at most.
        epoch_seconds: epoch width the source splits on, or ``None``.
        start_time: first packet timestamp (epoch 0 starts here), or
            ``None`` until known.
    """

    total_packets: "int | None" = None
    epoch_seconds: "float | None" = None
    start_time: "float | None" = None

    def __init__(
        self,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        epoch_seconds: "float | None" = None,
    ) -> None:
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        if epoch_seconds is not None and not 0 < epoch_seconds < math.inf:
            raise ConfigurationError("epoch_seconds must be positive and finite")
        self.chunk_size = int(chunk_size)
        self.epoch_seconds = epoch_seconds

    def __iter__(self):
        raise NotImplementedError

    def _next_cut(
        self, timestamps: np.ndarray, position: int, flush: bool
    ) -> "tuple[int, int] | None":
        """``(packets, epoch)`` of the next, never empty, chunk of the
        unread ``timestamps`` (from stream position ``position``), or
        ``None`` until the stream shows where it ends: at the earlier of
        the next ``k * chunk_size`` position and the next epoch boundary
        a packet has reached, or, with ``flush``, at the end."""
        n = len(timestamps)
        if n == 0:
            return None
        budget = self.chunk_size - position % self.chunk_size
        cut = budget if n >= budget else (n if flush else None)
        epoch = 0
        if self.epoch_seconds is not None:
            grid = EpochGrid(self.start_time, self.epoch_seconds)
            epoch = grid.epoch_of(float(timestamps[0]))
            cross = int(
                np.searchsorted(timestamps, grid.end_time(epoch), side="left")
            )
            if cross < n:
                cut = cross if cut is None else min(cut, cross)
        return None if cut is None else (cut, epoch)


class TraceChunkSource(ChunkSource):
    """Slice an in-memory :class:`Trace` into bounded chunks, once and
    eagerly; every iteration reuses them."""

    def __init__(
        self,
        trace: Trace,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        epoch_seconds: "float | None" = None,
    ) -> None:
        super().__init__(chunk_size, epoch_seconds)
        self.trace = trace
        num_packets = self.total_packets = trace.num_packets
        timestamps = trace.timestamps
        self.start_time = float(timestamps[0]) if num_packets else None
        self._chunks: "list[Chunk]" = []
        begin = 0
        while begin < num_packets:
            size, epoch = self._next_cut(timestamps[begin:], begin, flush=True)
            end = begin + size
            self._chunks.append(
                Chunk(
                    trace=trace.view(begin, end),
                    index=len(self._chunks),
                    begin=begin,
                    end=end,
                    epoch=epoch,
                    total_packets=num_packets,
                    parent=trace,
                )
            )
            begin = end

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


def as_chunk_source(source, chunk_size: "int | None" = None) -> ChunkSource:
    """Coerce ``source`` into a :class:`ChunkSource`: a source passes
    through (it fixed its own slicing), a bare :class:`Trace` becomes a
    :class:`TraceChunkSource` of ``chunk_size`` packets (default
    :data:`DEFAULT_CHUNK_SIZE`), without epochs."""
    if isinstance(source, Trace):
        if chunk_size is None:
            chunk_size = DEFAULT_CHUNK_SIZE
        return TraceChunkSource(source, chunk_size=chunk_size)
    if not isinstance(source, ChunkSource):
        raise ConfigurationError(
            f"expected a Trace or ChunkSource, got {type(source).__name__}"
        )
    return source
