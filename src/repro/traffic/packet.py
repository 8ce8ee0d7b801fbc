"""Flow and packet representations.

A measurement point sees a stream of packets; each packet belongs to an L4
flow identified by its 5-tuple (source/destination IP and port, protocol) —
the same granularity the paper measures.  For speed, traces are columnar:
per-packet numpy arrays indexed into a :class:`FlowTable` of distinct flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing import hash_u64, hash_u64_array

PROTO_TCP = 6
PROTO_UDP = 17
PROTO_ICMP = 1


class FiveTuple(NamedTuple):
    """An L4 flow identifier (the paper's 104-bit 5-tuple)."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: int

    def packed(self) -> int:
        """Pack into the paper's 104-bit layout (32+32+16+16+8 bits)."""
        return (
            (self.src_ip & 0xFFFFFFFF) << 72
            | (self.dst_ip & 0xFFFFFFFF) << 40
            | (self.src_port & 0xFFFF) << 24
            | (self.dst_port & 0xFFFF) << 8
            | (self.protocol & 0xFF)
        )

    def key64(self, seed: int = 0) -> int:
        """Stable 64-bit hash of the packed 5-tuple."""
        packed = self.packed()
        return hash_u64(packed ^ (packed >> 64), seed)

    @classmethod
    def unpack(cls, packed: int) -> "FiveTuple":
        """Inverse of :meth:`packed`."""
        return cls(
            src_ip=(packed >> 72) & 0xFFFFFFFF,
            dst_ip=(packed >> 40) & 0xFFFFFFFF,
            src_port=(packed >> 24) & 0xFFFF,
            dst_port=(packed >> 8) & 0xFFFF,
            protocol=packed & 0xFF,
        )


class FlowTable:
    """The distinct flows of a trace, stored columnar.

    ``key64`` is precomputed per flow so per-packet processing never hashes a
    5-tuple twice (the real system computes one hash per packet; we hoist it
    per flow because a trace already carries flow indices).
    """

    def __init__(
        self,
        src_ip: np.ndarray,
        dst_ip: np.ndarray,
        src_port: np.ndarray,
        dst_port: np.ndarray,
        protocol: np.ndarray,
        hash_seed: int = 0,
    ) -> None:
        arrays = (src_ip, dst_ip, src_port, dst_port, protocol)
        lengths = {len(a) for a in arrays}
        if len(lengths) != 1:
            raise ConfigurationError(f"flow columns disagree on length: {lengths}")
        self.src_ip = np.ascontiguousarray(src_ip, dtype=np.uint32)
        self.dst_ip = np.ascontiguousarray(dst_ip, dtype=np.uint32)
        self.src_port = np.ascontiguousarray(src_port, dtype=np.uint16)
        self.dst_port = np.ascontiguousarray(dst_port, dtype=np.uint16)
        self.protocol = np.ascontiguousarray(protocol, dtype=np.uint8)
        self.hash_seed = hash_seed
        self.key64 = self._compute_keys()
        self._packed_tuples: "list[int] | None" = None

    def _packed_halves(
        self, index: "np.ndarray | None" = None
    ) -> "tuple[np.ndarray, np.ndarray]":
        """The packed 5-tuples' high 40 and low 64 bits, as uint64 columns:
        every flow's, or with ``index`` only those of the flows it names."""
        src, dst, src_port, dst_port, protocol = (
            (column if index is None else column[index]).astype(np.uint64)
            for column in (
                self.src_ip,
                self.dst_ip,
                self.src_port,
                self.dst_port,
                self.protocol,
            )
        )
        high40 = (src << np.uint64(8)) | (dst >> np.uint64(24))
        low64 = (
            ((dst & np.uint64(0xFFFFFF)) << np.uint64(40))
            | (src_port << np.uint64(24))
            | (dst_port << np.uint64(8))
            | protocol
        )
        return high40, low64

    def _compute_keys(self) -> np.ndarray:
        # Vectorized equivalent of FiveTuple.key64: fold the 104-bit packed
        # tuple to 64 bits (low64 ^ high40), then the seeded mixer.
        high40, low64 = self._packed_halves()
        return hash_u64_array(low64 ^ high40, self.hash_seed)

    def __len__(self) -> int:
        return len(self.src_ip)

    def five_tuple(self, index: int) -> FiveTuple:
        """Materialize the ``index``-th flow's 5-tuple."""
        return FiveTuple(
            src_ip=int(self.src_ip[index]),
            dst_ip=int(self.dst_ip[index]),
            src_port=int(self.src_port[index]),
            dst_port=int(self.dst_port[index]),
            protocol=int(self.protocol[index]),
        )

    def packed_tuples(self) -> "list[int]":
        """Per-flow 104-bit packed 5-tuples (:meth:`FiveTuple.packed`).

        Computed lazily and cached on the table: engines store these in
        WSAF records on every insertion, and a trace is typically processed
        many times (sweeps, repeated engines), so the list comprehension
        should run once per flow table, not once per run.  The high and low
        halves are packed vectorized; Python joins them once per flow.
        """
        if self._packed_tuples is None:
            high40, low64 = self._packed_halves()
            self._packed_tuples = [
                high << 64 | low
                for high, low in zip(high40.tolist(), low64.tolist())
            ]
        return self._packed_tuples

    def __iter__(self) -> Iterator[FiveTuple]:
        for index in range(len(self)):
            yield self.five_tuple(index)

    @classmethod
    def from_five_tuples(
        cls, tuples: "list[FiveTuple]", hash_seed: int = 0
    ) -> "FlowTable":
        """Build a table from a list of 5-tuples."""
        if tuples:
            columns = list(zip(*tuples))
        else:
            columns = [[], [], [], [], []]
        return cls(
            src_ip=np.asarray(columns[0], dtype=np.uint32),
            dst_ip=np.asarray(columns[1], dtype=np.uint32),
            src_port=np.asarray(columns[2], dtype=np.uint16),
            dst_port=np.asarray(columns[3], dtype=np.uint16),
            protocol=np.asarray(columns[4], dtype=np.uint8),
            hash_seed=hash_seed,
        )


@dataclass
class Trace:
    """A packet trace: parallel per-packet columns plus the flow table.

    Attributes:
        timestamps: packet arrival times in seconds, nondecreasing.
        flow_ids: per-packet index into ``flows``.
        sizes: per-packet wire sizes in bytes.
        flows: the distinct flows of the trace.
    """

    timestamps: np.ndarray
    flow_ids: np.ndarray
    sizes: np.ndarray
    flows: FlowTable

    def __post_init__(self) -> None:
        self.timestamps = np.ascontiguousarray(self.timestamps, dtype=np.float64)
        self.flow_ids = np.ascontiguousarray(self.flow_ids, dtype=np.int64)
        self.sizes = np.ascontiguousarray(self.sizes, dtype=np.int64)
        if not (len(self.timestamps) == len(self.flow_ids) == len(self.sizes)):
            raise ConfigurationError("packet columns disagree on length")
        if len(self.flow_ids) and (
            self.flow_ids.min() < 0 or self.flow_ids.max() >= len(self.flows)
        ):
            raise ConfigurationError("flow_ids reference flows outside the table")
        if len(self.timestamps) > 1 and np.any(np.diff(self.timestamps) < 0):
            raise ConfigurationError("timestamps must be nondecreasing")

    @property
    def num_packets(self) -> int:
        return len(self.timestamps)

    @property
    def num_flows(self) -> int:
        return len(self.flows)

    @property
    def duration(self) -> float:
        """Trace span in seconds (0.0 for an empty trace)."""
        if self.num_packets == 0:
            return 0.0
        return float(self.timestamps[-1] - self.timestamps[0])

    @property
    def total_bytes(self) -> int:
        return int(self.sizes.sum())

    def mean_pps(self) -> float:
        """Average packets per second over the trace span."""
        duration = self.duration
        if duration <= 0.0:
            return 0.0
        return self.num_packets / duration

    def ground_truth_packets(self) -> np.ndarray:
        """Exact per-flow packet counts (index-aligned with ``flows``)."""
        return np.bincount(self.flow_ids, minlength=self.num_flows)

    def ground_truth_bytes(self) -> np.ndarray:
        """Exact per-flow byte counts (index-aligned with ``flows``)."""
        return np.bincount(
            self.flow_ids, weights=self.sizes, minlength=self.num_flows
        ).astype(np.int64)

    def view(self, begin: int, end: int) -> "Trace":
        """Packets ``[begin, end)`` as views of this trace's columns,
        sharing its flow table.  A slice of a checked trace is checked,
        so the columns are not checked again."""
        span = object.__new__(Trace)
        span.timestamps = self.timestamps[begin:end]
        span.flow_ids = self.flow_ids[begin:end]
        span.sizes = self.sizes[begin:end]
        span.flows = self.flows
        return span

    def time_slice(self, start: float, end: float) -> "Trace":
        """Packets with ``start <= timestamp < end`` (flow table shared)."""
        lo = int(np.searchsorted(self.timestamps, start, side="left"))
        hi = int(np.searchsorted(self.timestamps, end, side="left"))
        return Trace(
            timestamps=self.timestamps[lo:hi].copy(),
            flow_ids=self.flow_ids[lo:hi].copy(),
            sizes=self.sizes[lo:hi].copy(),
            flows=self.flows,
        )

    def packets_per_bucket(self, bucket_seconds: float) -> "tuple[np.ndarray, np.ndarray]":
        """(bucket start times, packet counts) over fixed-width time buckets."""
        if self.num_packets == 0:
            return np.array([]), np.array([], dtype=np.int64)
        start = self.timestamps[0]
        offsets = ((self.timestamps - start) / bucket_seconds).astype(np.int64)
        counts = np.bincount(offsets)
        starts = start + bucket_seconds * np.arange(len(counts))
        return starts, counts

    def bytes_per_bucket(self, bucket_seconds: float) -> "tuple[np.ndarray, np.ndarray]":
        """(bucket start times, byte volumes) over fixed-width time buckets."""
        if self.num_packets == 0:
            return np.array([]), np.array([], dtype=np.int64)
        start = self.timestamps[0]
        offsets = ((self.timestamps - start) / bucket_seconds).astype(np.int64)
        volumes = np.bincount(offsets, weights=self.sizes).astype(np.int64)
        starts = start + bucket_seconds * np.arange(len(volumes))
        return starts, volumes
