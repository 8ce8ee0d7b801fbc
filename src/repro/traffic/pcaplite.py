"""pcap-lite: a streaming fixed-record packet format.

The NPZ trace format (:mod:`repro.traffic.trace_io`) is columnar and must
be materialized whole.  Long captures — the paper records "5-tuple, the
packet size and the timestamp of every single packet" for 113 hours onto a
4 TB disk — want an appendable, streamable format instead.  pcap-lite is
that: a 16-byte header followed by fixed 24-byte records::

    timestamp  f64   (seconds)
    src_ip     u32
    dst_ip     u32
    src_port   u16
    dst_port   u16
    protocol   u8
    (pad)      u8    (zero)
    size       u16   (wire bytes)

Little-endian throughout.  There is one decoder: records move in blocks
of :data:`RECORD_DTYPE` (:meth:`PacketRecordReader.read_block`), every
block is checked by :func:`check_block` — a non-finite timestamp, one
below the timestamp before it, or a nonzero pad byte is a
:class:`~repro.errors.TraceFormatError` naming its stream position — and
:func:`trace_from_records` turns records into a columnar :class:`Trace`.
The streaming chunk sources (:mod:`repro.pipeline.streaming`) and
:func:`read_pcaplite` both decode that way.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from repro.errors import TraceFormatError
from repro.traffic.packet import FiveTuple, FlowTable, Trace

MAGIC = b"IMPL"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHH8x")  # magic, version, reserved, pad to 16
HEADER_BYTES = _HEADER.size

#: The record layout as a packed structured dtype — one ``frombuffer``
#: call reads a whole block of records.
RECORD_DTYPE = np.dtype(
    [
        ("timestamp", "<f8"),
        ("src_ip", "<u4"),
        ("dst_ip", "<u4"),
        ("src_port", "<u2"),
        ("dst_port", "<u2"),
        ("protocol", "u1"),
        ("pad", "u1"),
        ("size", "<u2"),
    ]
)
RECORD_BYTES = RECORD_DTYPE.itemsize
assert RECORD_BYTES == 24

#: Records per block when :func:`read_pcaplite` loads a whole file.
_READ_BLOCK = 1 << 16


def check_header(header: bytes, name: str) -> None:
    """Reject a pcap-lite header that is short, not pcap-lite, or of
    another format version; ``name`` names the stream in the error."""
    if len(header) != HEADER_BYTES:
        raise TraceFormatError(f"{name}: truncated pcap-lite header")
    magic, version, _reserved = _HEADER.unpack(header)
    if magic != MAGIC:
        raise TraceFormatError(f"{name}: not a pcap-lite stream")
    if version != FORMAT_VERSION:
        raise TraceFormatError(
            f"{name}: pcap-lite version {version}, expected {FORMAT_VERSION}"
        )


def check_block(records: np.ndarray, position: int, last: float) -> None:
    """Reject a block of records that the format does not allow.

    A non-finite timestamp, a timestamp below the one before it, or a
    nonzero pad byte (the format fixes it at 0) raises
    :class:`~repro.errors.TraceFormatError` naming its stream position.
    ``position`` is the stream position of ``records[0]``; ``last`` is
    the last timestamp already read (``-inf`` before the first block).
    """
    ts = records["timestamp"]
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
    pad = records["pad"]
    if pad.any():
        at = int(np.argmax(pad != 0))
        raise TraceFormatError(
            f"nonzero pad byte {pad[at]} at stream position {position + at}"
        )


def _changes(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Where the ``(hi, lo)`` pair differs from the one before it (the
    first is always a change)."""
    changes = np.ones(len(hi), dtype=bool)
    changes[1:] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
    return changes


def trace_from_records(records: np.ndarray, hash_seed: int = 0) -> Trace:
    """Columnar trace from a block of pcap-lite records.

    Flows are deduplicated vectorized (no Python loop over packets): the
    5-tuple is packed into two u64 columns (``hi``: source IP and the
    destination IP's top byte; ``lo``: the rest), and one single-key sort
    of the folded tuple ``lo ^ hi`` puts equal tuples next to each other.
    Each run of equal neighbours is a candidate flow.  Distinct tuples can
    share a fold and interleave within its run, so one tuple may open
    several candidates: the few candidates are sorted by ``(hi, lo)``,
    equal neighbours among them merge into one flow, and every packet
    takes its candidate's flow id.  Flow order is the packed tuples'
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
    order = np.argsort(lo ^ hi)
    shi = hi[order]
    slo = lo[order]
    starts = _changes(shi, slo)
    candidate_of = np.cumsum(starts) - 1
    chi = shi[starts]
    clo = slo[starts]
    by_tuple = np.lexsort((clo, chi))
    chi = chi[by_tuple]
    clo = clo[by_tuple]
    firsts = _changes(chi, clo)
    flow_of = np.empty(len(by_tuple), dtype=np.int64)
    flow_of[by_tuple] = np.cumsum(firsts) - 1
    flow_ids = np.empty(len(order), dtype=np.int64)
    flow_ids[order] = flow_of[candidate_of]
    uhi = chi[firsts]
    ulo = clo[firsts]
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


class PacketRecordWriter:
    """Streaming pcap-lite writer (context manager)."""

    def __init__(self, path: "str | os.PathLike[str]") -> None:
        self._file = open(path, "wb")
        self._file.write(_HEADER.pack(MAGIC, FORMAT_VERSION, 0))
        self.records_written = 0

    def write(self, timestamp: float, five_tuple: FiveTuple, size: int) -> None:
        """Append one packet record."""
        self.write_records(
            np.array([(timestamp, *five_tuple, 0, size)], dtype=RECORD_DTYPE)
        )

    def write_records(self, records: np.ndarray) -> None:
        """Append a block of :data:`RECORD_DTYPE` records."""
        self._file.write(np.ascontiguousarray(records, dtype=RECORD_DTYPE).tobytes())
        self.records_written += len(records)

    def flush(self) -> None:
        """Flush buffered records to the OS — the point at which a
        tailing :meth:`PacketRecordReader.read_block` can see them."""
        self._file.flush()

    def close(self) -> None:
        """Close the underlying file."""
        self._file.close()

    def __enter__(self) -> "PacketRecordWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class PacketRecordReader:
    """Streaming pcap-lite reader: whole record blocks as structured arrays.

    :meth:`read_block` / :meth:`seek_record` move records without loading
    the file (the vectorized path the streaming chunk sources use to tail
    a growing capture); the caller checks each block with
    :func:`check_block`.
    """

    def __init__(self, path: "str | os.PathLike[str]") -> None:
        self.path = os.fspath(path)
        #: Records consumed through the block interface so far (the
        #: resume position a checkpoint records).
        self.records_read = 0
        self._pending = b""
        try:
            self._file = open(path, "rb")
        except OSError as exc:
            raise TraceFormatError(f"cannot open {path!r}: {exc}") from exc
        try:
            check_header(self._file.read(HEADER_BYTES), repr(self.path))
        except TraceFormatError:
            self._file.close()
            raise

    def read_block(self, max_records: int) -> np.ndarray:
        """Up to ``max_records`` complete records as a structured array.

        Never blocks on file growth: returns whatever complete records
        are on disk right now (possibly an empty array).  A trailing
        partial record — the normal mid-append state of a live capture —
        is buffered and completed by a later call, which is what lets a
        follow-mode source tail a file its writer is still flushing.
        The returned array is read-only (it views the read buffer).
        """
        want = max_records * RECORD_BYTES - len(self._pending)
        data = self._file.read(want) if want > 0 else b""
        if self._pending:
            data = self._pending + data
        complete = len(data) // RECORD_BYTES
        cut = complete * RECORD_BYTES
        self._pending = data[cut:]
        self.records_read += complete
        return np.frombuffer(data[:cut], dtype=RECORD_DTYPE)

    def seek_record(self, index: int) -> None:
        """Position the block interface at record ``index`` (0-based) —
        the recovery path: resume tailing from a checkpointed position."""
        if index < 0:
            raise TraceFormatError(f"record index must be >= 0, got {index}")
        self._file.seek(HEADER_BYTES + index * RECORD_BYTES)
        self._pending = b""
        self.records_read = index

    def close(self) -> None:
        """Close the underlying file."""
        self._file.close()

    def __enter__(self) -> "PacketRecordReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def write_pcaplite(trace: Trace, path: "str | os.PathLike[str]") -> int:
    """Dump a columnar trace as pcap-lite records; returns records written."""
    flows, ids = trace.flows, trace.flow_ids
    records = np.zeros(trace.num_packets, dtype=RECORD_DTYPE)
    records["timestamp"] = trace.timestamps
    for column in ("src_ip", "dst_ip", "src_port", "dst_port", "protocol"):
        records[column] = getattr(flows, column)[ids]
    records["size"] = trace.sizes
    with PacketRecordWriter(path) as writer:
        writer.write_records(records)
        return writer.records_written


def read_pcaplite(
    path: "str | os.PathLike[str]", hash_seed: int = 0
) -> Trace:
    """Load a pcap-lite file into a columnar trace.

    Every block passes :func:`check_block`, and a trailing partial record
    is a :class:`~repro.errors.TraceFormatError` (a finished file has
    none).  Flows are rebuilt by :func:`trace_from_records`, so the round
    trip preserves ground truth exactly (flow indices may differ).
    """
    blocks = []
    position = 0
    last = -np.inf
    with PacketRecordReader(path) as reader:
        while True:
            block = reader.read_block(_READ_BLOCK)
            if not len(block):
                break
            check_block(block, position, last)
            position += len(block)
            last = float(block["timestamp"][-1])
            blocks.append(block)
        if reader._pending:
            raise TraceFormatError(f"{reader.path!r}: truncated record")
    records = np.concatenate(blocks) if blocks else np.empty(0, RECORD_DTYPE)
    return trace_from_records(records, hash_seed=hash_seed)
