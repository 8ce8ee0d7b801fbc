"""Unbounded chunk sources: pcap-lite tailing and socket feeds.

The contract under test: a streaming source cutting chunks out of a
byte stream must reproduce *exactly* the chunks a batch
:class:`TraceChunkSource` would cut from the equivalent loaded trace —
same packet order, same epoch indices, same per-packet flow keys — no
matter how the bytes dribble in, and an engine fed from one must land
on the same estimates regardless of chunk geometry (the unknown-length
block-draw guarantee).
"""

from __future__ import annotations

import os
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import InstaMeasure, InstaMeasureConfig
from repro.errors import ConfigurationError, TraceFormatError
from repro.pipeline import (
    PacketRecordChunkSource,
    Pipeline,
    SocketChunkSource,
    TraceChunkSource,
    trace_from_records,
)
from repro.traffic import CaidaLikeConfig, FiveTuple, FlowTable, Trace
from repro.traffic import build_caida_like_trace
from repro.traffic.pcaplite import (
    HEADER_BYTES,
    RECORD_BYTES,
    RECORD_DTYPE,
    PacketRecordReader,
    PacketRecordWriter,
    read_pcaplite,
    write_pcaplite,
)


@pytest.fixture(scope="module")
def trace():
    return build_caida_like_trace(
        CaidaLikeConfig(num_flows=600, duration=5.0, seed=23)
    )


@pytest.fixture(scope="module")
def capture(trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("capture") / "trace.impl"
    write_pcaplite(trace, path)
    return str(path)


def _config() -> InstaMeasureConfig:
    return InstaMeasureConfig(
        l1_memory_bytes=2_048, wsaf_entries=1 << 11, seed=9
    )


def _chunk_signature(chunk):
    trace = chunk.trace
    keys = trace.flows.key64[trace.flow_ids]
    return (
        chunk.index,
        chunk.begin,
        chunk.end,
        chunk.epoch,
        trace.timestamps.tolist(),
        trace.sizes.tolist(),
        keys.tolist(),
    )


_PAIR_DTYPE = np.dtype([("hi", "<u8"), ("lo", "<u8")])


def _reference_decode(records: np.ndarray, hash_seed: int = 0) -> Trace:
    """The structured-dtype ``np.unique`` decode ``trace_from_records``
    replaced: the packed ``(hi, lo)`` pairs, deduplicated as one void-typed
    array.  Kept here to pin flow order and flow ids to it."""
    src = records["src_ip"].astype(np.uint64)
    dst = records["dst_ip"].astype(np.uint64)
    pairs = np.empty(len(records), dtype=_PAIR_DTYPE)
    pairs["hi"] = (src << np.uint64(8)) | (dst >> np.uint64(24))
    pairs["lo"] = (
        ((dst & np.uint64(0xFFFFFF)) << np.uint64(40))
        | (records["src_port"].astype(np.uint64) << np.uint64(24))
        | (records["dst_port"].astype(np.uint64) << np.uint64(8))
        | records["protocol"].astype(np.uint64)
    )
    unique, flow_ids = np.unique(pairs, return_inverse=True)
    uhi = unique["hi"]
    ulo = unique["lo"]
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
        flow_ids=flow_ids.reshape(-1).astype(np.int64),
        sizes=records["size"].astype(np.int64),
        flows=flows,
    )


def _records(tuples) -> np.ndarray:
    """A block of pcap-lite records, one per 5-tuple, 1 ms apart."""
    columns = np.array(tuples, dtype=np.uint64).reshape(-1, 5)
    records = np.zeros(len(columns), dtype=RECORD_DTYPE)
    records["timestamp"] = np.arange(len(columns)) * 1e-3
    for i, name in enumerate(
        ("src_ip", "dst_ip", "src_port", "dst_port", "protocol")
    ):
        records[name] = columns[:, i]
    records["size"] = np.arange(len(columns)) % 1_500 + 40
    return records


def _assert_same_decode(records: np.ndarray) -> None:
    got = trace_from_records(records, hash_seed=7)
    want = _reference_decode(records, hash_seed=7)
    for name in ("src_ip", "dst_ip", "src_port", "dst_port", "protocol", "key64"):
        a, b = getattr(got.flows, name), getattr(want.flows, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    for name in ("flow_ids", "timestamps", "sizes"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def _tuple_of(hi: int, lo: int) -> tuple:
    """The 5-tuple whose packed halves are ``hi`` (40 bits) and ``lo``."""
    return (
        hi >> 8,
        ((hi & 0xFF) << 24) | (lo >> 40),
        (lo >> 24) & 0xFFFF,
        (lo >> 8) & 0xFFFF,
        lo & 0xFF,
    )


def _fold(five_tuple: FiveTuple) -> int:
    """The packed tuple folded to 64 bits, as ``FlowTable`` keys it."""
    packed = five_tuple.packed()
    return (packed >> 64) ^ (packed & ((1 << 64) - 1))


def _fold_family(hi: int, lo: int, masks) -> list:
    """Distinct tuples whose halves differ from ``(hi, lo)`` by the same
    40-bit XOR, one per mask: every one folds to ``lo ^ hi``."""
    return [_tuple_of(hi ^ mask, lo ^ mask) for mask in masks]


#: Two families of tuples sharing a fold, the second around the all-zero
#: tuple, so members differ in the top bits of either half.
_FOLD_FAMILIES = [
    _fold_family(
        0x0A_0000_0001,
        0x0102_0304_0506_0708,
        [0, 1, 0xFF_FFFF_FFFF, 1 << 39, 0x55_5555_5555],
    ),
    _fold_family(0, 0, [0, 1 << 39, 0x100, 0xFFFF_0000]),
]


def _interleaved(count: int) -> list:
    """``count`` rounds of every family's members in turn, so no member's
    packets are neighbours in the fold order."""
    return [
        family[i % len(family)] for i in range(count) for family in _FOLD_FAMILIES
    ]


def _assert_same_keys(trace: Trace, records: np.ndarray) -> None:
    """``trace`` holds ``records``' packets: a fresh decode of them gives
    every packet the same key, packed 5-tuple, timestamp and size."""
    fresh = trace_from_records(records)
    np.testing.assert_array_equal(
        trace.flows.key64[trace.flow_ids], fresh.flows.key64[fresh.flow_ids]
    )
    packed, fresh_packed = trace.flows.packed_tuples(), fresh.flows.packed_tuples()
    assert [packed[i] for i in trace.flow_ids.tolist()] == [
        fresh_packed[i] for i in fresh.flow_ids.tolist()
    ]
    np.testing.assert_array_equal(trace.timestamps, fresh.timestamps)
    np.testing.assert_array_equal(trace.sizes, fresh.sizes)


_TOP = 0xFFFF_FFFF

#: Small per-field pools, so drawn tuples often share ``hi`` or ``lo``.
_POOL_TUPLES = st.tuples(
    st.sampled_from([0, 1, 0x7FFF_FFFF, 0x8000_0000, _TOP]),
    st.sampled_from([0, 0x00FF_FFFF, 0x0100_0000, 0xFF00_0000, _TOP]),
    st.sampled_from([0, 1, 65_535]),
    st.sampled_from([0, 80, 65_535]),
    st.sampled_from([0, 6, 255]),
)


class TestTraceFromRecords:
    def test_round_trips_packets_and_flows(self, trace, capture):
        with PacketRecordReader(capture) as reader:
            records = reader.read_block(trace.num_packets)
        rebuilt = trace_from_records(np.array(records))
        assert rebuilt.num_packets == trace.num_packets
        np.testing.assert_allclose(rebuilt.timestamps, trace.timestamps)
        np.testing.assert_array_equal(rebuilt.sizes, trace.sizes)
        # Flow indices may be renumbered but the per-packet key stream
        # (what the engine hashes) must be identical.
        np.testing.assert_array_equal(
            rebuilt.flows.key64[rebuilt.flow_ids],
            trace.flows.key64[trace.flow_ids],
        )

    def test_empty_block(self):
        rebuilt = trace_from_records(np.empty(0, dtype=RECORD_DTYPE))
        assert rebuilt.num_packets == 0

    def test_capture_matches_reference_decode(self, capture):
        with PacketRecordReader(capture) as reader:
            while True:
                block = reader.read_block(2_048)
                if not len(block):
                    break
                _assert_same_decode(block)

    @pytest.mark.parametrize(
        "tuples",
        [
            pytest.param(
                [(_TOP, _TOP, 1, 2, 6), (0x8000_0000, 0xFF00_0001, 3, 4, 17),
                 (0x7FFF_FFFF, 0x80FF_FFFF, 5, 6, 6), (_TOP, 0, 1, 2, 6)],
                id="top-bit-ips",
            ),
            pytest.param(
                [(0x0A00_0001, 0x0B00_0000 | low, sport, dport, proto)
                 for low, sport, dport, proto in [
                     (0xFF_FFFF, 1, 2, 6), (0, 1, 2, 6), (0, 65_535, 2, 6),
                     (0, 1, 0, 6), (0, 1, 2, 255), (0x80_0000, 1, 2, 0)]],
                id="equal-hi-differ-in-lo",
            ),
            pytest.param(
                [(src, (top << 24) | 0x01_0203, 443, 9_000, 6)
                 for src, top in [
                     (_TOP, 0xFF), (0, 0xFF), (_TOP, 0), (0x8000_0000, 0x80),
                     (1, 0x7F), (0, 0)]],
                id="equal-lo-differ-in-hi",
            ),
            pytest.param(
                [(1, 2, sport, dport, proto)
                 for sport in (0, 65_535)
                 for dport in (0, 65_535)
                 for proto in (0, 255)],
                id="port-and-protocol-extremes",
            ),
            pytest.param([(9, 8, 7, 6, 5)] * 8_192, id="one-flow-8192-times"),
            pytest.param([(_TOP, _TOP, 65_535, 65_535, 255)], id="single-record"),
            pytest.param([], id="empty-block"),
        ],
    )
    def test_matches_reference_decode(self, tuples):
        _assert_same_decode(_records(tuples))
        # Reversed, then repeated: the sort, not arrival, sets flow order.
        _assert_same_decode(_records(tuples[::-1] + tuples))

    @given(
        pool=st.lists(_POOL_TUPLES, min_size=1, max_size=8),
        picks=st.lists(st.integers(0, 7), max_size=300),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_decode_on_drawn_blocks(self, pool, picks):
        _assert_same_decode(_records([pool[i % len(pool)] for i in picks]))

    def test_tuples_sharing_a_fold_decode_exactly(self):
        """Members of one fold family interleave within its run of the
        fold sort, so each opens several candidates that must merge."""
        for family in _FOLD_FAMILIES:
            assert len(set(family)) == len(family)
            assert len({_fold(FiveTuple(*member)) for member in family}) == 1
        tuples = _interleaved(600)
        _assert_same_decode(_records(tuples))
        shuffled = np.random.default_rng(3).permutation(len(tuples))
        _assert_same_decode(_records([tuples[i] for i in shuffled]))

    def test_tuples_sharing_a_fold_across_two_reads(self, tmp_path):
        """A tailed capture read in blocks that split the families: the
        leftover of one read decodes with the next, as the source joins
        them, and every chunk keys its packets as a fresh decode does."""
        records = _records(_interleaved(1_200))
        records["timestamp"] = np.arange(len(records)) * 1e-2
        path = tmp_path / "folds.impl"
        with PacketRecordWriter(path) as writer:
            writer.write_records(records)
        with PacketRecordReader(path) as reader:
            first = reader.read_block(1_001)
            second = reader.read_block(1_001)
        assert len(second) == 1_001
        leftover = first[700:]
        _assert_same_decode(
            np.concatenate([leftover.view(np.uint8), second.view(np.uint8)]).view(
                RECORD_DTYPE
            )
        )
        source = PacketRecordChunkSource(
            path, chunk_size=700, epoch_seconds=2.3, block_records=1_001
        )
        chunks = list(source)
        assert sum(chunk.num_packets for chunk in chunks) == len(records)
        for chunk in chunks:
            _assert_same_keys(chunk.trace, records[chunk.begin : chunk.end])

    @given(
        base=st.tuples(st.integers(0, (1 << 40) - 1), st.integers(0, (1 << 64) - 1)),
        masks=st.lists(
            st.integers(0, (1 << 40) - 1), min_size=1, max_size=6, unique=True
        ),
        others=st.lists(_POOL_TUPLES, max_size=4),
        picks=st.lists(st.integers(0, 63), max_size=300),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_decode_on_fold_families(
        self, base, masks, others, picks
    ):
        tuples = _fold_family(*base, masks) + others
        _assert_same_decode(_records([tuples[i % len(tuples)] for i in picks]))


class TestPacketRecordChunkSource:
    def test_matches_batch_source_exactly(self, trace, capture):
        batch = TraceChunkSource(trace, chunk_size=700, epoch_seconds=1.0)
        stream = PacketRecordChunkSource(
            capture, chunk_size=700, epoch_seconds=1.0
        )
        batch_chunks = [_chunk_signature(c) for c in batch]
        stream_chunks = [_chunk_signature(c) for c in stream]
        assert stream_chunks == batch_chunks

    @given(
        chunk_size=st.integers(8, 2_000),
        block_records=st.integers(1, 2_500),
        epoch_seconds=st.one_of(st.none(), st.floats(0.05, 3.0)),
    )
    @example(chunk_size=700, block_records=64, epoch_seconds=1.0)
    @example(chunk_size=100, block_records=33, epoch_seconds=None)
    @settings(max_examples=40, deadline=None)
    def test_matches_batch_source_for_any_block_size(
        self, trace, capture, chunk_size, block_records, epoch_seconds
    ):
        # Blocks below the chunk size, and blocks that do not divide it,
        # join leftovers to the next block byte by byte.
        batch = TraceChunkSource(
            trace, chunk_size=chunk_size, epoch_seconds=epoch_seconds
        )
        stream = PacketRecordChunkSource(
            capture,
            chunk_size=chunk_size,
            epoch_seconds=epoch_seconds,
            block_records=block_records,
        )
        assert [_chunk_signature(c) for c in stream] == [
            _chunk_signature(c) for c in batch
        ]

    @given(
        start=st.floats(0.0, 2e9),
        width=st.floats(0.05, 0.7),
        steps=st.lists(st.integers(0, 3), min_size=1, max_size=12),
        chunk_size=st.integers(1, 8),
        block_records=st.integers(1, 13),
    )
    @example(start=1.0, width=0.1, steps=[1, 1, 1, 1], chunk_size=3, block_records=5)
    @example(start=100.0, width=0.3, steps=[1, 1, 1, 1], chunk_size=3, block_records=2)
    @settings(max_examples=40, deadline=None)
    def test_boundary_packets_match_batch_source(
        self, tmp_path_factory, start, width, steps, chunk_size, block_records
    ):
        """Packets exactly on ``start + k * width``: rounding leaves some a
        hair either side of where floor division puts the boundary, and
        every source still opens the next epoch with them."""
        ks = np.cumsum([0, *steps])
        path = _write_timestamps(
            tmp_path_factory.mktemp("edge") / "edge.impl",
            [start + int(k) * width for k in ks],
        )
        batch = TraceChunkSource(
            read_pcaplite(path), chunk_size=chunk_size, epoch_seconds=width
        )
        stream = PacketRecordChunkSource(
            path,
            chunk_size=chunk_size,
            epoch_seconds=width,
            block_records=block_records,
        )
        assert [_chunk_signature(c) for c in stream] == [
            _chunk_signature(c) for c in batch
        ]

    def test_unbounded_metadata(self, capture):
        source = PacketRecordChunkSource(capture, chunk_size=512)
        assert source.total_packets is None
        assert source.start_time is None
        chunks = list(source)
        assert source.start_time is not None
        assert chunks[0].total_packets is None

    def test_engine_chunk_geometry_invariant(self, trace, capture):
        estimates = []
        for chunk_size in (311, 4_096):
            engine = InstaMeasure(_config())
            Pipeline(engine).run(
                PacketRecordChunkSource(capture, chunk_size=chunk_size)
            )
            estimates.append(engine.estimates())
        assert estimates[0] == estimates[1]

    def test_start_record_resumes_numbering(self, trace, capture):
        whole = list(PacketRecordChunkSource(capture, chunk_size=900))
        source = PacketRecordChunkSource(capture, chunk_size=900)
        source.seek_packets(1_800)
        tail = list(source)
        assert tail[0].begin == 1_800
        assert sum(c.num_packets for c in tail) == trace.num_packets - 1_800
        np.testing.assert_allclose(
            tail[0].trace.timestamps, whole[2].trace.timestamps
        )

    def test_follow_mode_tails_a_growing_file(self, trace, tmp_path):
        path = tmp_path / "grow.impl"
        full = trace
        cut = full.num_packets // 2
        writer = PacketRecordWriter(path)
        tuples = [full.flows.five_tuple(i) for i in range(full.num_flows)]
        for p in range(cut):
            writer.write(
                full.timestamps[p], tuples[full.flow_ids[p]], int(full.sizes[p])
            )
        writer.flush()

        source = PacketRecordChunkSource(
            path, chunk_size=1_000, follow=True, poll_interval=0.01
        )
        seen = []
        done = threading.Event()

        def consume():
            for chunk in source:
                seen.append(chunk.num_packets)
            done.set()

        thread = threading.Thread(target=consume, daemon=True)
        thread.start()
        # A follow-mode source holds back a partial chunk (more data may
        # come), so it can only have emitted down to the last full budget.
        visible = cut - (cut % 1_000)
        deadline = time.monotonic() + 10.0
        while sum(seen) < visible and time.monotonic() < deadline:
            time.sleep(0.01)
        assert sum(seen) == visible
        for p in range(cut, full.num_packets):
            writer.write(
                full.timestamps[p], tuples[full.flow_ids[p]], int(full.sizes[p])
            )
        writer.flush()
        writer.close()
        visible = full.num_packets - (full.num_packets % 1_000)
        deadline = time.monotonic() + 10.0
        while sum(seen) < visible and time.monotonic() < deadline:
            time.sleep(0.01)
        assert sum(seen) == visible
        # stop() drains only records the source has read, so wait until
        # its reader has reached the end of the finished file.
        while (
            source._reader.records_read < full.num_packets
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        # stop() flushes the buffered partial tail as final chunks.
        source.stop()
        assert done.wait(10.0)
        thread.join(timeout=10.0)
        assert sum(seen) == full.num_packets

    def test_non_follow_stops_at_eof(self, trace, capture):
        chunks = list(PacketRecordChunkSource(capture, chunk_size=10_000))
        assert sum(c.num_packets for c in chunks) == trace.num_packets

    def test_rejects_bad_parameters(self, capture):
        with pytest.raises(ConfigurationError):
            PacketRecordChunkSource(capture, chunk_size=0)
        with pytest.raises(ConfigurationError):
            PacketRecordChunkSource(capture, epoch_seconds=0.0)
        with pytest.raises(ConfigurationError):
            PacketRecordChunkSource(capture).seek_packets(-1)


@pytest.fixture(scope="module")
def campus_capture(tmp_path_factory):
    """A campus capture shaped like the served benchmark's: a read of
    records spans most of an epoch, so epoch boundaries cut some reads
    into several chunks (:data:`_CAMPUS_CUTS`)."""
    from repro.traffic.campus import CampusConfig, build_campus_trace

    trace = build_campus_trace(CampusConfig(hours=24, num_flows=2_000, seed=5))
    path = tmp_path_factory.mktemp("campus") / "campus.impl"
    write_pcaplite(trace, path)
    return trace, str(path)


#: Chunk size, read size and epoch width over ``campus_capture``: ~175
#: packets a second, so a read of 1,024 spans ~0.8 of an epoch.
_CAMPUS_CUTS = dict(chunk_size=1_024, block_records=1_024, epoch_seconds=7.0)


class _ReadLog(PacketRecordChunkSource):
    """A capture source noting the stream position each read starts at."""

    def _open(self) -> None:
        super()._open()
        self.reads: "list[int]" = []

    def _read_more(self):
        start = self._reader.records_read
        block = super()._read_more()
        if block is not None and len(block):
            self.reads.append(start)
        return block


class TestOneDecodePerRead:
    """The records waiting to be cut are decoded once: every chunk cut
    from one read shares its columns and flow table."""

    def test_chunks_of_one_read_share_its_table(self, campus_capture):
        trace, path = campus_capture
        source = _ReadLog(path, **_CAMPUS_CUTS)
        by_read: "dict[int, list]" = {}
        for chunk in source:
            by_read.setdefault(len(source.reads) - 1, []).append(chunk)
        tables = [{id(c.trace.flows) for c in chunks} for chunks in by_read.values()]
        assert all(len(ids) == 1 for ids in tables)
        assert len(set().union(*tables)) == len(by_read)
        # Epoch boundaries cut some reads into several chunks.
        assert max(len(chunks) for chunks in by_read.values()) >= 2
        assert sum(len(chunks) for chunks in by_read.values()) > len(by_read)

    @pytest.mark.parametrize("block_records", [1_024, 1_000, 333])
    def test_every_chunk_decodes_as_its_own_records(
        self, campus_capture, block_records
    ):
        trace, path = campus_capture
        with PacketRecordReader(path) as reader:
            records = reader.read_block(trace.num_packets)
        source = _ReadLog(path, **dict(_CAMPUS_CUTS, block_records=block_records))
        carried = 0
        for chunk in source:
            _assert_same_keys(chunk.trace, records[chunk.begin : chunk.end])
            # A chunk that starts before its read holds the leftover the
            # cuts before it carried into that read.
            carried += chunk.begin < source.reads[-1]
        # Reads of the chunk size leave nothing over; other reads do.
        assert bool(carried) == (block_records != _CAMPUS_CUTS["chunk_size"])

    def test_cuts_are_the_batch_sources(self, campus_capture):
        """Cut positions, epochs and chunk indices are the one cutter's:
        those the batch source cuts from the loaded trace."""
        trace, path = campus_capture
        cuts = dict(_CAMPUS_CUTS)
        del cuts["block_records"]

        def geometry(source):
            return [(c.index, c.begin, c.end, c.epoch) for c in source]

        want = geometry(TraceChunkSource(read_pcaplite(path), **cuts))
        assert geometry(PacketRecordChunkSource(path, **_CAMPUS_CUTS)) == want
        assert len({epoch for *_span, epoch in want}) > 10


def _write_timestamps(path, timestamps) -> str:
    """A pcap-lite capture of three alternating flows at ``timestamps``."""
    with PacketRecordWriter(path) as writer:
        for i, ts in enumerate(timestamps):
            flow = FiveTuple(0x0A00_0001 + i % 3, 0x0A00_0002, 1_000, 80, 6)
            writer.write(ts, flow, 64)
    return str(path)


_STEADY = [0.5 * i for i in range(12)]


class TestTimestampValidation:
    """A pcap-lite stream whose timestamps are non-finite or go backwards
    is malformed: the source stops with a typed error naming where."""

    @pytest.mark.parametrize("epoch_seconds", [None, 1.0])
    @pytest.mark.parametrize("at", [0, 5])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, tmp_path, bad, at, epoch_seconds):
        timestamps = list(_STEADY)
        timestamps[at] = bad
        path = _write_timestamps(tmp_path / "bad.impl", timestamps)
        source = PacketRecordChunkSource(
            path, chunk_size=4, epoch_seconds=epoch_seconds
        )
        with pytest.raises(TraceFormatError, match=rf"position {at}\b"):
            list(source)
        with pytest.raises(TraceFormatError, match=rf"position {at}\b"):
            read_pcaplite(path)

    @pytest.mark.parametrize("epoch_seconds", [None, 1.0])
    def test_rejects_decrease_within_block(self, tmp_path, epoch_seconds):
        timestamps = list(_STEADY)
        timestamps[6] = 1.0
        path = _write_timestamps(tmp_path / "bad.impl", timestamps)
        source = PacketRecordChunkSource(
            path, chunk_size=4, epoch_seconds=epoch_seconds
        )
        with pytest.raises(TraceFormatError, match=r"position 6\b"):
            list(source)
        with pytest.raises(TraceFormatError, match=r"position 6\b"):
            read_pcaplite(path)

    @pytest.mark.parametrize("epoch_seconds", [None, 1.0])
    def test_rejects_decrease_across_blocks(self, tmp_path, epoch_seconds):
        timestamps = list(_STEADY)
        timestamps[8:] = [t - 3.5 for t in timestamps[8:]]
        source = PacketRecordChunkSource(
            _write_timestamps(tmp_path / "bad.impl", timestamps),
            chunk_size=4, epoch_seconds=epoch_seconds, block_records=4,
        )
        chunks = []
        with pytest.raises(TraceFormatError, match=r"position 8\b"):
            for chunk in source:
                chunks.append(chunk)
        # Nothing from the bad block was cut, and epochs never went back.
        assert sum(c.num_packets for c in chunks) <= 8
        epochs = [c.epoch for c in chunks]
        assert epochs == sorted(epochs)

    def test_resumed_stream_reports_stream_position(self, tmp_path):
        timestamps = list(_STEADY)
        timestamps[9] = float("nan")
        source = PacketRecordChunkSource(
            _write_timestamps(tmp_path / "bad.impl", timestamps), chunk_size=4
        )
        source.seek_packets(6)
        with pytest.raises(TraceFormatError, match=r"position 9\b"):
            list(source)

    def test_steady_stream_is_accepted(self, tmp_path):
        timestamps = list(_STEADY)
        # Ties are not a decrease, inside a block or across a boundary.
        timestamps[3:5] = [timestamps[2]] * 2
        source = PacketRecordChunkSource(
            _write_timestamps(tmp_path / "ok.impl", timestamps),
            chunk_size=4, epoch_seconds=1.0, block_records=3,
        )
        assert sum(c.num_packets for c in source) == len(timestamps)


def _set_pad(path: str, record: int, value: int = 1) -> str:
    """Overwrite the pad byte of record ``record`` in a pcap-lite file."""
    with open(path, "r+b") as handle:
        handle.seek(
            HEADER_BYTES + record * RECORD_BYTES + RECORD_DTYPE.fields["pad"][1]
        )
        handle.write(bytes([value]))
    return path


class TestPadByteValidation:
    """The format fixes the pad byte at zero; a stream with any other
    value is malformed and stops with a typed error naming where."""

    @pytest.mark.parametrize("block_records", [4, 8_192])
    @pytest.mark.parametrize("at", [0, 9])
    def test_rejects_nonzero_pad(self, tmp_path, at, block_records):
        path = _write_timestamps(tmp_path / "pad.impl", _STEADY)
        source = PacketRecordChunkSource(
            _set_pad(path, at, 0x80), chunk_size=4, block_records=block_records
        )
        chunks = []
        with pytest.raises(
            TraceFormatError, match=rf"pad byte 128 at stream position {at}\b"
        ):
            for chunk in source:
                chunks.append(chunk)
        # Nothing from the bad block was cut.
        assert sum(c.num_packets for c in chunks) <= at - at % block_records

    def test_resumed_stream_reports_stream_position(self, tmp_path):
        path = _write_timestamps(tmp_path / "pad.impl", _STEADY)
        source = PacketRecordChunkSource(_set_pad(path, 9), chunk_size=4)
        source.seek_packets(6)
        with pytest.raises(TraceFormatError, match=r"position 9\b"):
            list(source)


class TestSocketChunkSource:
    def _serve_bytes(self, payload: bytes, dribble: int):
        """Serve ``payload`` over a one-shot TCP socket in ragged pieces."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def run():
            try:
                conn, _ = listener.accept()
                with conn:
                    for at in range(0, len(payload), dribble):
                        conn.sendall(payload[at : at + dribble])
            except (BrokenPipeError, ConnectionResetError):
                pass  # the reader rejected the stream and hung up early
            finally:
                listener.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return listener.getsockname()[1], thread

    def test_matches_file_source(self, trace, capture):
        with open(capture, "rb") as handle:
            payload = handle.read()
        port, thread = self._serve_bytes(payload, dribble=1_009)
        stream = SocketChunkSource(
            "127.0.0.1", port, chunk_size=700, epoch_seconds=1.0,
            poll_interval=0.01,
        )
        got = [_chunk_signature(c) for c in stream]
        thread.join(timeout=10.0)
        want = [
            _chunk_signature(c)
            for c in PacketRecordChunkSource(
                capture, chunk_size=700, epoch_seconds=1.0
            )
        ]
        assert got == want

    def test_rejects_bad_header(self):
        port, thread = self._serve_bytes(b"NOPE" + b"\x00" * 12, dribble=16)
        stream = SocketChunkSource("127.0.0.1", port, poll_interval=0.01)
        with pytest.raises(TraceFormatError):
            list(stream)
        thread.join(timeout=10.0)

    def test_rejects_mid_record_eof(self, capture):
        with open(capture, "rb") as handle:
            payload = handle.read()
        torn = payload[: HEADER_BYTES + RECORD_BYTES * 3 + 7]
        port, thread = self._serve_bytes(torn, dribble=4_096)
        stream = SocketChunkSource("127.0.0.1", port, poll_interval=0.01)
        with pytest.raises(TraceFormatError):
            list(stream)
        thread.join(timeout=10.0)

    def test_rejects_backwards_timestamps(self, tmp_path):
        timestamps = list(_STEADY)
        timestamps[7] = 0.0
        path = _write_timestamps(tmp_path / "bad.impl", timestamps)
        with open(path, "rb") as handle:
            payload = handle.read()
        port, thread = self._serve_bytes(payload, dribble=RECORD_BYTES * 2)
        stream = SocketChunkSource(
            "127.0.0.1", port, chunk_size=4, epoch_seconds=1.0,
            poll_interval=0.01,
        )
        with pytest.raises(TraceFormatError, match=r"position 7\b"):
            list(stream)
        thread.join(timeout=10.0)

    def test_rejects_nonzero_pad(self, tmp_path):
        path = _write_timestamps(tmp_path / "pad.impl", _STEADY)
        with open(_set_pad(path, 7), "rb") as handle:
            payload = handle.read()
        port, thread = self._serve_bytes(payload, dribble=RECORD_BYTES * 2)
        stream = SocketChunkSource(
            "127.0.0.1", port, chunk_size=4, poll_interval=0.01
        )
        with pytest.raises(TraceFormatError, match=r"pad byte 1 at stream position 7\b"):
            list(stream)
        thread.join(timeout=10.0)

    def test_cannot_seek(self):
        source = SocketChunkSource("127.0.0.1", 1)
        with pytest.raises(ConfigurationError):
            source.seek_packets(10)
