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

Little-endian throughout, and readers reject a nonzero pad byte.  The
reader streams records without loading the file; converters bridge
to/from the columnar :class:`Trace`.
"""

from __future__ import annotations

import os
import struct
from typing import Iterator

import numpy as np

from repro.errors import TraceFormatError
from repro.traffic.packet import FiveTuple, FlowTable, Trace

MAGIC = b"IMPL"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHH8x")  # magic, version, reserved, pad to 16
_RECORD = struct.Struct("<dIIHHBBH")
RECORD_BYTES = _RECORD.size
HEADER_BYTES = _HEADER.size

#: The record layout as a packed structured dtype — one ``frombuffer``
#: call reads a whole block of records (the streaming sources' path).
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
assert RECORD_DTYPE.itemsize == RECORD_BYTES


class PacketRecordWriter:
    """Streaming pcap-lite writer (context manager)."""

    def __init__(self, path: "str | os.PathLike[str]") -> None:
        self._file = open(path, "wb")
        self._file.write(_HEADER.pack(MAGIC, FORMAT_VERSION, 0))
        self.records_written = 0

    def write(self, timestamp: float, five_tuple: FiveTuple, size: int) -> None:
        """Append one packet record."""
        self._file.write(
            _RECORD.pack(
                timestamp,
                five_tuple.src_ip,
                five_tuple.dst_ip,
                five_tuple.src_port,
                five_tuple.dst_port,
                five_tuple.protocol,
                0,
                size,
            )
        )
        self.records_written += 1

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
    """Streaming pcap-lite reader: iterates (timestamp, FiveTuple, size).

    Two access styles, not meant to be mixed on one instance: the
    iterator yields decoded per-packet tuples; :meth:`read_block` /
    :meth:`seek_record` move whole record blocks as structured arrays
    (the vectorized path the streaming chunk sources use to tail a
    growing capture).
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
        header = self._file.read(_HEADER.size)
        if len(header) != _HEADER.size:
            self._file.close()
            raise TraceFormatError(f"{path!r}: truncated pcap-lite header")
        magic, version, _reserved = _HEADER.unpack(header)
        if magic != MAGIC:
            self._file.close()
            raise TraceFormatError(f"{path!r}: not a pcap-lite file")
        if version != FORMAT_VERSION:
            self._file.close()
            raise TraceFormatError(
                f"{path!r}: pcap-lite version {version}, expected {FORMAT_VERSION}"
            )

    def __iter__(self) -> Iterator["tuple[float, FiveTuple, int]"]:
        position = 0
        while True:
            chunk = self._file.read(RECORD_BYTES)
            if not chunk:
                return
            if len(chunk) != RECORD_BYTES:
                raise TraceFormatError(f"{self.path!r}: truncated record")
            (ts, src_ip, dst_ip, src_port, dst_port, proto, pad, size) = (
                _RECORD.unpack(chunk)
            )
            if pad:
                raise TraceFormatError(
                    f"{self.path!r}: nonzero pad byte {pad} at stream "
                    f"position {position}"
                )
            yield ts, FiveTuple(src_ip, dst_ip, src_port, dst_port, proto), size
            position += 1

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
    with PacketRecordWriter(path) as writer:
        tuples = [trace.flows.five_tuple(i) for i in range(trace.num_flows)]
        timestamps = trace.timestamps.tolist()
        flow_ids = trace.flow_ids.tolist()
        sizes = trace.sizes.tolist()
        for p in range(trace.num_packets):
            writer.write(timestamps[p], tuples[flow_ids[p]], sizes[p])
        return writer.records_written


def read_pcaplite(
    path: "str | os.PathLike[str]", hash_seed: int = 0
) -> Trace:
    """Load a pcap-lite file into a columnar trace.

    Flows are rebuilt by deduplicating 5-tuples in arrival order, so the
    round trip preserves ground truth exactly (flow indices may differ).
    """
    timestamps: "list[float]" = []
    flow_ids: "list[int]" = []
    sizes: "list[int]" = []
    index_of: "dict[FiveTuple, int]" = {}
    tuples: "list[FiveTuple]" = []
    with PacketRecordReader(path) as reader:
        for ts, five_tuple, size in reader:
            flow = index_of.get(five_tuple)
            if flow is None:
                flow = len(tuples)
                index_of[five_tuple] = flow
                tuples.append(five_tuple)
            timestamps.append(ts)
            flow_ids.append(flow)
            sizes.append(size)
    return Trace(
        timestamps=np.asarray(timestamps),
        flow_ids=np.asarray(flow_ids, dtype=np.int64),
        sizes=np.asarray(sizes, dtype=np.int64),
        flows=FlowTable.from_five_tuples(tuples, hash_seed=hash_seed),
    )
