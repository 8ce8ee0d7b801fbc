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
records and sorted by packed 5-tuple, so per-chunk cost stays bounded no
matter how many distinct flows the stream has seen in total.  Every
block of records is checked as it arrives: a non-finite timestamp, one
below the timestamp read before it, or a nonzero pad byte is a
:class:`~repro.errors.TraceFormatError` naming its stream position.
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
from repro.traffic.packet import FlowTable, Trace
from repro.traffic.pcaplite import (
    FORMAT_VERSION,
    HEADER_BYTES,
    MAGIC,
    RECORD_BYTES,
    RECORD_DTYPE,
    PacketRecordReader,
    _HEADER,
)

#: Default packets per streaming chunk — far smaller than the batch
#: default (1 << 20): a live source should surface packets with bounded
#: latency, not wait for a million of them.
DEFAULT_STREAM_CHUNK = 8192

_EMPTY = np.empty(0, dtype=RECORD_DTYPE)


def trace_from_records(records: np.ndarray, hash_seed: int = 0) -> Trace:
    """Columnar trace from a block of pcap-lite records.

    Flows are deduplicated vectorized (no Python loop over packets): the
    5-tuple is packed into two u64 columns (``hi``: source IP and the
    destination IP's top byte; ``lo``: the rest), one two-key sort puts
    equal tuples next to each other, each run start opens a new flow, and
    a running count of run starts scattered back through the sort order
    gives the per-packet flow ids.  Flow order is the packed tuples'
    unsigned ``(hi, lo)`` sort order — flow *indices* carry no meaning
    anywhere downstream (identity is ``key64``), only the per-packet
    mapping matters.
    """
    src = records["src_ip"].astype(np.uint64)
    dst = records["dst_ip"].astype(np.uint64)
    hi = (src << np.uint64(8)) | (dst >> np.uint64(24))
    lo = (
        ((dst & np.uint64(0xFFFFFF)) << np.uint64(40))
        | (records["src_port"].astype(np.uint64) << np.uint64(24))
        | (records["dst_port"].astype(np.uint64) << np.uint64(8))
        | records["protocol"].astype(np.uint64)
    )
    order = np.lexsort((lo, hi))
    shi = hi[order]
    slo = lo[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (shi[1:] != shi[:-1]) | (slo[1:] != slo[:-1])
    flow_ids = np.empty(len(order), dtype=np.int64)
    flow_ids[order] = np.cumsum(starts) - 1
    uhi = shi[starts]
    ulo = slo[starts]
    flows = FlowTable(
        src_ip=(uhi >> np.uint64(8)).astype(np.uint32),
        dst_ip=(
            ((uhi & np.uint64(0xFF)) << np.uint64(24))
            | (ulo >> np.uint64(40))
        ).astype(np.uint32),
        src_port=((ulo >> np.uint64(24)) & np.uint64(0xFFFF)).astype(np.uint16),
        dst_port=((ulo >> np.uint64(8)) & np.uint64(0xFFFF)).astype(np.uint16),
        protocol=(ulo & np.uint64(0xFF)).astype(np.uint8),
        hash_seed=hash_seed,
    )
    return Trace(
        timestamps=records["timestamp"].astype(np.float64),
        flow_ids=flow_ids,
        sizes=records["size"].astype(np.int64),
        flows=flows,
    )


def _check_timestamps(ts: np.ndarray, position: int, last: float) -> None:
    """Reject a block whose timestamps are non-finite or go backwards.

    ``position`` is the stream position of ``ts[0]``; ``last`` is the
    last timestamp already read (``-inf`` before the first block).
    """
    finite = np.isfinite(ts)
    if not finite.all():
        at = int(np.argmin(finite))
        raise TraceFormatError(
            f"non-finite timestamp {ts[at]} at stream position {position + at}"
        )
    backwards = np.diff(ts, prepend=last) < 0
    if backwards.any():
        at = int(np.argmax(backwards))
        previous = ts[at - 1] if at else last
        raise TraceFormatError(
            f"timestamp {ts[at]} at stream position {position + at} is "
            f"below the one before it ({previous})"
        )


def _check_pad(pad: np.ndarray, position: int) -> None:
    """Reject a block with a nonzero pad byte (the format fixes it at 0).

    ``position`` is the stream position of ``pad[0]``.
    """
    if pad.any():
        at = int(np.argmax(pad != 0))
        raise TraceFormatError(
            f"nonzero pad byte {pad[at]} at stream position {position + at}"
        )


class StreamingChunkSource(ChunkSource):
    """Shared batching/cutting logic of the unbounded sources.

    Subclasses implement ``_open()``, ``_close()``, and
    ``_read_more() -> np.ndarray | None`` — an empty array means
    "nothing *yet*" (the base waits ``poll_interval`` and retries),
    ``None`` means the stream definitively ended.

    ``start_time`` fixes the epoch origin up front (recovery override);
    otherwise the first record's timestamp becomes epoch 0's start.
    ``start_offset`` numbers the first emitted packet — chunk
    ``begin``/``end`` indices continue a checkpointed stream's count.
    """

    total_packets = None

    def __init__(
        self,
        chunk_size: int = DEFAULT_STREAM_CHUNK,
        epoch_seconds: "float | None" = None,
        poll_interval: float = 0.05,
        hash_seed: int = 0,
        start_offset: int = 0,
        start_time: "float | None" = None,
    ) -> None:
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        if epoch_seconds is not None and epoch_seconds <= 0:
            raise ConfigurationError("epoch_seconds must be positive")
        if poll_interval <= 0:
            raise ConfigurationError("poll_interval must be positive")
        if start_offset < 0:
            raise ConfigurationError("start_offset must be >= 0")
        self.chunk_size = int(chunk_size)
        self.epoch_seconds = epoch_seconds
        self.poll_interval = poll_interval
        self.hash_seed = hash_seed
        self.start_time = start_time
        self._start_offset = int(start_offset)
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
                    position = consumed + len(pending)
                    ts = block["timestamp"]
                    _check_timestamps(ts, position, last)
                    _check_pad(block["pad"], position)
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

    ``start_record`` skips that many records first (and numbers emitted
    packets from there), which with the ``start_time`` epoch-origin
    override replays the tail of a checkpointed stream exactly.
    """

    def __init__(
        self,
        path: str,
        chunk_size: int = DEFAULT_STREAM_CHUNK,
        epoch_seconds: "float | None" = None,
        follow: bool = False,
        poll_interval: float = 0.05,
        start_record: int = 0,
        start_time: "float | None" = None,
        hash_seed: int = 0,
        block_records: int = DEFAULT_STREAM_CHUNK,
    ) -> None:
        super().__init__(
            chunk_size=chunk_size,
            epoch_seconds=epoch_seconds,
            poll_interval=poll_interval,
            hash_seed=hash_seed,
            start_offset=start_record,
            start_time=start_time,
        )
        if block_records < 1:
            raise ConfigurationError("block_records must be >= 1")
        self.path = path
        self.follow = follow
        self.block_records = int(block_records)
        self._reader: "PacketRecordReader | None" = None

    def seek_packets(self, offset: int) -> None:
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
    :meth:`stop`; a live feed cannot seek, so a daemon recovering from a
    checkpoint accepts the gap (and says so) rather than replaying.
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
            magic, version, _reserved = _HEADER.unpack(
                self._buffer[:HEADER_BYTES]
            )
            if magic != MAGIC:
                raise TraceFormatError("record feed is not pcap-lite")
            if version != FORMAT_VERSION:
                raise TraceFormatError(
                    f"record feed is pcap-lite version {version}, "
                    f"expected {FORMAT_VERSION}"
                )
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
