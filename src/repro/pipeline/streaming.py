"""Unbounded chunk sources — the always-on service's inputs.

:class:`TraceChunkSource` slices a trace that is already whole; a live
measurement point has no such thing.  The sources here produce the same
:class:`~repro.pipeline.source.Chunk` stream from inputs whose end is
unknown (``total_packets is None``): a pcap-lite file that a capture
process is still appending to (:class:`PacketRecordChunkSource`, with a
tail/follow mode) and a TCP feed of pcap-lite records
(:class:`SocketChunkSource`).

Chunks are cut on the same two boundaries as the batch source — a packet
budget and, with ``epoch_seconds``, epoch time boundaries — so the
driver's rotation callbacks fire exactly between chunks here too.  An
epoch cut is only taken once the boundary-crossing packet has actually
arrived (the epoch's end is proven); end-of-stream or :meth:`stop`
flushes the rest.  Each chunk carries its own deduplicated
:class:`~repro.traffic.packet.FlowTable`, built vectorized from the raw
records by :func:`~repro.traffic.pcaplite.trace_from_records`, so
per-chunk cost stays bounded no matter how many distinct flows the
stream has seen in total.  Every block of records passes pcap-lite's one
check as it arrives (:func:`~repro.traffic.pcaplite.check_block`): a
non-finite timestamp, one below the timestamp read before it, or a
nonzero pad byte is a :class:`~repro.errors.TraceFormatError` naming its
stream position.
Blocks are staged as the read-only views the reader returns, and a
leftover joins the next block as raw bytes, never field by field.

Both sources support an epoch-origin override (``start_time``) and a
resume position, which is how a recovering daemon replays the tail of a
stream with the exact chunk/epoch geometry the crashed run used.
"""

from __future__ import annotations

import socket
import threading

import numpy as np

from repro.errors import ConfigurationError, TraceFormatError
from repro.pipeline.source import Chunk, ChunkSource
from repro.traffic.pcaplite import (
    HEADER_BYTES,
    RECORD_BYTES,
    RECORD_DTYPE,
    PacketRecordReader,
    check_block,
    check_header,
    trace_from_records,
)

#: Default packets per streaming chunk — far smaller than the batch
#: default (1 << 20): a live source should surface packets with bounded
#: latency, not wait for a million of them.
DEFAULT_STREAM_CHUNK = 8192

_EMPTY = np.empty(0, dtype=RECORD_DTYPE)


class StreamingChunkSource(ChunkSource):
    """Shared batching/cutting logic of the unbounded sources.

    Subclasses implement ``_open()``, ``_close()``, and
    ``_read_more() -> np.ndarray | None`` — an empty array means
    "nothing *yet*" (the base waits ``poll_interval`` and retries),
    ``None`` means the stream definitively ended.

    ``start_time`` fixes the epoch origin up front (recovery override);
    otherwise the first record's timestamp becomes epoch 0's start.
    A seekable subclass's :meth:`seek_packets` sets the stream position
    the next iteration starts from, and chunk ``begin``/``end`` indices
    number packets from there.
    """

    total_packets = None

    def __init__(
        self,
        chunk_size: int = DEFAULT_STREAM_CHUNK,
        epoch_seconds: "float | None" = None,
        poll_interval: float = 0.05,
        hash_seed: int = 0,
        start_time: "float | None" = None,
    ) -> None:
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        if epoch_seconds is not None and epoch_seconds <= 0:
            raise ConfigurationError("epoch_seconds must be positive")
        if poll_interval <= 0:
            raise ConfigurationError("poll_interval must be positive")
        self.chunk_size = int(chunk_size)
        self.epoch_seconds = epoch_seconds
        self.poll_interval = poll_interval
        self.hash_seed = hash_seed
        self.start_time = start_time
        self._start_offset = 0
        self._stop = threading.Event()

    def stop(self) -> None:
        """Ask the iteration to end at the next poll (graceful drain:
        records already buffered still come out as final chunks)."""
        self._stop.set()

    def seek_packets(self, offset: int) -> None:
        """Start the next iteration at stream position ``offset`` — the
        recovery path.  Sources that cannot seek (live feeds) raise."""
        raise ConfigurationError(
            f"{type(self).__name__} cannot seek; recovery needs a "
            "replayable source (a pcap-lite file)"
        )

    # -- subclass surface ------------------------------------------------------

    def _open(self) -> None:
        raise NotImplementedError

    def _read_more(self) -> "np.ndarray | None":
        raise NotImplementedError

    def _close(self) -> None:
        raise NotImplementedError

    # -- batching --------------------------------------------------------------

    def _cut_ready(
        self, pending: np.ndarray, flush: bool, position: int
    ) -> "int | None":
        """Where to cut the next chunk, or None while more data is needed.

        The earlier of the packet budget and the first *proven* epoch
        boundary (the crossing packet has arrived).  The budget aligns to
        the global ``k * chunk_size`` grid of stream position, not to the
        previous cut, so the chunk sequence is exactly the one
        :class:`~repro.pipeline.source.TraceChunkSource` would produce
        from the equivalent loaded trace.  ``flush`` takes whatever is
        left instead of waiting for a full budget.
        """
        n = len(pending)
        if n == 0:
            return None
        budget = self.chunk_size - (position % self.chunk_size)
        cut = budget if n >= budget else (n if flush else None)
        if self.epoch_seconds is not None and self.start_time is not None:
            ts = pending["timestamp"]
            first_epoch = int(
                (float(ts[0]) - self.start_time) // self.epoch_seconds
            )
            boundary = self.start_time + (first_epoch + 1) * self.epoch_seconds
            cross = int(np.searchsorted(ts, boundary, side="left"))
            if cross < n:
                cut = cross if cut is None else min(cut, cross)
        return cut

    def _make_chunk(self, records: np.ndarray, index: int, begin: int) -> Chunk:
        epoch = 0
        if self.epoch_seconds is not None and self.start_time is not None:
            epoch = int(
                (float(records["timestamp"][0]) - self.start_time)
                // self.epoch_seconds
            )
        return Chunk(
            trace=trace_from_records(records, hash_seed=self.hash_seed),
            index=index,
            begin=begin,
            end=begin + len(records),
            epoch=epoch,
            total_packets=None,
        )

    def __iter__(self):
        self._open()
        pending = _EMPTY
        consumed = self._start_offset
        last = -np.inf
        index = 0
        try:
            ended = False
            while not ended and not self._stop.is_set():
                block = self._read_more()
                if block is None:
                    ended = True
                elif len(block):
                    check_block(block, consumed + len(pending), last)
                    ts = block["timestamp"]
                    last = float(ts[-1])
                    if self.start_time is None:
                        self.start_time = float(ts[0])
                    # Blocks stay the read-only views the source returned;
                    # a leftover joins the next block as raw bytes (a
                    # structured copy moves field by field).
                    pending = (
                        np.concatenate(
                            [pending.view(np.uint8), block.view(np.uint8)]
                        ).view(RECORD_DTYPE)
                        if len(pending)
                        else block
                    )
                else:
                    self._stop.wait(self.poll_interval)
                    continue
                while True:
                    cut = self._cut_ready(pending, flush=False, position=consumed)
                    if cut is None:
                        break
                    yield self._make_chunk(pending[:cut], index, consumed)
                    consumed += cut
                    index += 1
                    pending = pending[cut:]
            # End of stream (or stop): flush the remainder, still cutting
            # on epoch boundaries so rotations fire in order.
            while len(pending):
                cut = self._cut_ready(pending, flush=True, position=consumed)
                yield self._make_chunk(pending[:cut], index, consumed)
                consumed += cut
                index += 1
                pending = pending[cut:]
        finally:
            self._close()


class PacketRecordChunkSource(StreamingChunkSource):
    """Chunk a pcap-lite file, optionally tailing it as it grows.

    Without ``follow``, iteration ends at the current end of file — the
    batch shape, but streamed in bounded blocks rather than materialized
    whole.  With ``follow``, end of file just means "no records yet":
    the source polls (every ``poll_interval`` seconds) for appended
    records until :meth:`stop` is called, tolerating a partially
    flushed trailing record mid-append.

    :meth:`seek_packets` skips that many records first (and numbers
    emitted packets from there), which with the ``start_time``
    epoch-origin override replays the tail of a checkpointed stream
    exactly.
    """

    def __init__(
        self,
        path: str,
        chunk_size: int = DEFAULT_STREAM_CHUNK,
        epoch_seconds: "float | None" = None,
        follow: bool = False,
        poll_interval: float = 0.05,
        start_time: "float | None" = None,
        hash_seed: int = 0,
        block_records: int = DEFAULT_STREAM_CHUNK,
    ) -> None:
        super().__init__(
            chunk_size=chunk_size,
            epoch_seconds=epoch_seconds,
            poll_interval=poll_interval,
            hash_seed=hash_seed,
            start_time=start_time,
        )
        if block_records < 1:
            raise ConfigurationError("block_records must be >= 1")
        self.path = path
        self.follow = follow
        self.block_records = int(block_records)
        self._reader: "PacketRecordReader | None" = None

    def seek_packets(self, offset: int) -> None:
        """Start the next iteration at record ``offset`` of the file."""
        if offset < 0:
            raise ConfigurationError("seek offset must be >= 0")
        self._start_offset = int(offset)

    def _open(self) -> None:
        self._reader = PacketRecordReader(self.path)
        if self._start_offset:
            self._reader.seek_record(self._start_offset)

    def _read_more(self) -> "np.ndarray | None":
        block = self._reader.read_block(self.block_records)
        if len(block) == 0 and not self.follow:
            return None
        return block

    def _close(self) -> None:
        reader, self._reader = self._reader, None
        if reader is not None:
            reader.close()


class SocketChunkSource(StreamingChunkSource):
    """pcap-lite records over a TCP byte stream (a live record feed).

    The wire format is the file format minus the filesystem: the sender
    writes the 16-byte pcap-lite header once, then raw 24-byte records.
    Iteration ends when the sender closes the connection or on
    :meth:`stop`.  A live feed cannot seek: :meth:`seek_packets` raises
    :class:`~repro.errors.ConfigurationError`, so a daemon cannot recover
    a checkpoint over it.
    """

    def __init__(
        self,
        host: str,
        port: int,
        chunk_size: int = DEFAULT_STREAM_CHUNK,
        epoch_seconds: "float | None" = None,
        poll_interval: float = 0.05,
        hash_seed: int = 0,
        start_time: "float | None" = None,
        connect_timeout: float = 10.0,
    ) -> None:
        super().__init__(
            chunk_size=chunk_size,
            epoch_seconds=epoch_seconds,
            poll_interval=poll_interval,
            hash_seed=hash_seed,
            start_time=start_time,
        )
        self.host = host
        self.port = int(port)
        self.connect_timeout = connect_timeout
        self._sock: "socket.socket | None" = None
        self._buffer = b""
        self._header_done = False

    def _open(self) -> None:
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        self._sock.settimeout(self.poll_interval)
        self._buffer = b""
        self._header_done = False

    def _read_more(self) -> "np.ndarray | None":
        try:
            piece = self._sock.recv(1 << 16)
        except (socket.timeout, TimeoutError):
            return _EMPTY
        if not piece:
            if self._buffer and self._header_done:
                # A dangling partial record at EOF is a sender bug, not
                # a mid-append state — there is no more data coming.
                raise TraceFormatError(
                    f"record feed ended mid-record ({len(self._buffer)} "
                    f"trailing bytes)"
                )
            return None
        self._buffer += piece
        if not self._header_done:
            if len(self._buffer) < HEADER_BYTES:
                return _EMPTY
            check_header(self._buffer[:HEADER_BYTES], "record feed")
            self._buffer = self._buffer[HEADER_BYTES:]
            self._header_done = True
        complete = len(self._buffer) // RECORD_BYTES
        if complete == 0:
            return _EMPTY
        cut = complete * RECORD_BYTES
        data, self._buffer = self._buffer[:cut], self._buffer[cut:]
        return np.frombuffer(data, dtype=RECORD_DTYPE)

    def _close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            sock.close()
