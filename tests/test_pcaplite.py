"""Tests for the pcap-lite streaming trace format."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TraceFormatError
from repro.traffic import (
    CaidaLikeConfig,
    FiveTuple,
    PacketRecordReader,
    PacketRecordWriter,
    build_caida_like_trace,
    read_pcaplite,
    write_pcaplite,
)
from repro.traffic.pcaplite import HEADER_BYTES, RECORD_BYTES, RECORD_DTYPE


@pytest.fixture(scope="module")
def trace():
    return build_caida_like_trace(
        CaidaLikeConfig(num_flows=800, duration=5.0, seed=131)
    )


class TestRoundTrip:
    def test_ground_truth_preserved(self, trace, tmp_path):
        path = tmp_path / "trace.impl"
        written = write_pcaplite(trace, path)
        assert written == trace.num_packets
        loaded = read_pcaplite(path, hash_seed=trace.flows.hash_seed)
        assert loaded.num_packets == trace.num_packets
        assert loaded.num_flows == trace.num_flows
        assert np.allclose(loaded.timestamps, trace.timestamps)
        # Ground truth is identical up to flow reindexing.
        assert sorted(loaded.ground_truth_packets()) == sorted(
            trace.ground_truth_packets()
        )
        assert loaded.total_bytes == trace.total_bytes

    def test_file_size_is_exact(self, trace, tmp_path):
        path = tmp_path / "sized.impl"
        write_pcaplite(trace, path)
        assert path.stat().st_size == 16 + RECORD_BYTES * trace.num_packets

    def test_streaming_reader_yields_records(self, tmp_path):
        path = tmp_path / "stream.impl"
        five_tuple = FiveTuple(1, 2, 3, 4, 6)
        with PacketRecordWriter(path) as writer:
            for p in range(10):
                writer.write(float(p), five_tuple, 100 + p)
        with PacketRecordReader(path) as reader:
            first = reader.read_block(4)
            rest = reader.read_block(100)
            assert len(reader.read_block(100)) == 0
        assert (len(first), len(rest)) == (4, 6)
        record = first[3]
        assert record["timestamp"] == 3.0 and record["size"] == 103
        assert FiveTuple(
            *(int(record[name]) for name in FiveTuple._fields)
        ) == five_tuple

    def test_empty_file_roundtrip(self, tmp_path):
        path = tmp_path / "empty.impl"
        with PacketRecordWriter(path):
            pass
        loaded = read_pcaplite(path)
        assert loaded.num_packets == 0


class TestFormatErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFormatError):
            PacketRecordReader(tmp_path / "absent.impl")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.impl"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(TraceFormatError):
            PacketRecordReader(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.impl"
        path.write_bytes(b"IM")
        with pytest.raises(TraceFormatError):
            PacketRecordReader(path)

    def test_truncated_record(self, tmp_path):
        path = tmp_path / "cut.impl"
        with PacketRecordWriter(path) as writer:
            writer.write(0.0, FiveTuple(1, 2, 3, 4, 6), 100)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(TraceFormatError, match="truncated record"):
            read_pcaplite(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "versioned.impl"
        with PacketRecordWriter(path):
            pass
        data = bytearray(path.read_bytes())
        data[4] = 99  # version field
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError):
            PacketRecordReader(path)

    @pytest.mark.parametrize("pad", [1, 0xFF])
    @pytest.mark.parametrize("at", [0, 6])
    def test_nonzero_pad_byte(self, tmp_path, at, pad):
        path = tmp_path / "padded.impl"
        with PacketRecordWriter(path) as writer:
            for p in range(8):
                writer.write(float(p), FiveTuple(1, 2, 3, 4, 6), 100)
        data = bytearray(path.read_bytes())
        data[HEADER_BYTES + at * RECORD_BYTES + RECORD_DTYPE.fields["pad"][1]] = pad
        path.write_bytes(bytes(data))
        message = rf"nonzero pad byte {pad} at stream position {at}\b"
        with pytest.raises(TraceFormatError, match=message):
            read_pcaplite(path)
