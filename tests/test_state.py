"""The serializable measurement-state layer: capture, codec, merge.

The contracts under test are the state layer's tentpole guarantees:

* ``capture_engine`` → ``to_bytes``/``save`` → ``from_bytes``/``load`` →
  ``restore_engine`` is an exact round trip for both WSAF backing stores,
  including a mid-stream RNG cursor (save → load → resume-ingest is
  bit-identical to an uninterrupted run).
* The wire format is versioned and self-describing: wrong magic, wrong
  version, truncation, trailing garbage, and any malformed header or
  manifest — in a snapshot or an IPC frame — are all rejected loudly,
  always as ``SnapshotError``; so is a stream cursor that no stream
  could resume from.
* ``merge`` folds disjoint key sets by concatenation and refuses inputs
  that share a flow key, a seed mismatch, or an in-progress stream.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import InstaMeasure, InstaMeasureConfig
from repro.errors import SnapshotError
from repro.pipeline import TraceChunkSource, run_pipeline
from repro.state import (
    MeasurementSnapshot,
    SNAPSHOT_VERSION,
    capture_engine,
    capture_regulator,
    from_bytes,
    load,
    merge,
    regulator_sketches,
    restore_engine,
    restore_regulator,
    save,
    to_bytes,
)
from repro.state.codec import FRAME_MAGIC, MAGIC, pack_frame, unpack_frame
from repro.traffic import CaidaLikeConfig, build_caida_like_trace


@pytest.fixture(scope="module")
def trace():
    return build_caida_like_trace(
        CaidaLikeConfig(num_flows=900, duration=6.0, seed=13)
    )


def _config(engine: str, **overrides) -> InstaMeasureConfig:
    base = dict(
        l1_memory_bytes=2 * 1024,
        wsaf_entries=1 << 11,
        seed=3,
        engine=engine,
    )
    base.update(overrides)
    return InstaMeasureConfig(**base)


def _measured(trace, engine: str, **overrides) -> InstaMeasure:
    measured = InstaMeasure(_config(engine, **overrides))
    measured.process_trace(trace)
    return measured


def _split_payload(payload: bytes) -> "tuple[dict, bytes]":
    """An IMSNAP ``payload``'s decoded JSON header and its column bytes."""
    header_len = int.from_bytes(payload[len(MAGIC) : len(MAGIC) + 8], "little")
    body_start = len(MAGIC) + 8 + header_len
    return json.loads(payload[len(MAGIC) + 8 : body_start]), payload[body_start:]


def _encode(header: dict, body: bytes) -> bytes:
    """An IMSNAP payload from a JSON ``header`` and column bytes."""
    encoded = json.dumps(header, separators=(",", ":")).encode()
    return MAGIC + len(encoded).to_bytes(8, "little") + encoded + body


def _tamper_header(payload: bytes, **fields) -> bytes:
    """Re-encode ``payload`` with header fields overwritten."""
    header, body = _split_payload(payload)
    header.update(fields)
    return _encode(header, body)


class TestRoundTrip:
    @pytest.mark.parametrize("engine_kind", ["scalar", "batched"])
    def test_bytes_round_trip_is_exact(self, trace, engine_kind):
        engine = _measured(trace, engine_kind)
        snapshot = capture_engine(engine)
        recovered = from_bytes(to_bytes(snapshot))

        assert to_bytes(recovered) == to_bytes(snapshot)
        assert recovered.estimates() == engine.estimates()
        restored = restore_engine(recovered)
        assert restored.estimates() == engine.estimates()
        assert len(restored.wsaf) == len(engine.wsaf)
        assert restored.wsaf.insertions == engine.wsaf.insertions
        assert restored.regulator.stats.packets == engine.regulator.stats.packets
        for live, back in zip(
            regulator_sketches(engine.regulator),
            regulator_sketches(restored.regulator),
        ):
            assert np.array_equal(live.words_array(), back.words_array())

    @pytest.mark.parametrize("engine_kind", ["scalar", "batched"])
    def test_file_round_trip(self, trace, engine_kind, tmp_path):
        engine = _measured(trace, engine_kind)
        snapshot = capture_engine(engine)
        path = tmp_path / "state.snap"
        save(snapshot, path)
        assert load(path).estimates() == snapshot.estimates()

    def test_restored_engine_keeps_measuring_identically(self, trace):
        """A restored engine is a drop-in: same future behavior."""
        first = trace.time_slice(0.0, 3.0)
        second = trace.time_slice(3.0, trace.duration + 1.0)
        straight = InstaMeasure(_config("scalar"))
        straight.process_trace(first)
        straight.process_trace(second)

        engine = InstaMeasure(_config("scalar"))
        engine.process_trace(first)
        resumed = restore_engine(from_bytes(to_bytes(capture_engine(engine))))
        resumed.process_trace(second)
        assert resumed.estimates() == straight.estimates()

    def test_cross_store_restore(self, trace):
        """A scalar-loop capture restores under the batched kernel exactly."""
        snapshot = capture_engine(_measured(trace, "scalar"))
        snapshot.config["engine"] = "batched"
        restored = restore_engine(snapshot)
        assert restored.estimates() == _measured(trace, "scalar").estimates()

    def test_probe_placement_restore(self, trace):
        """Records whose slot is unknown re-probe to the same estimates."""
        snapshot = capture_engine(_measured(trace, "scalar"))
        snapshot.wsaf.slots = np.full(
            snapshot.wsaf.num_records, -1, dtype=np.int64
        )
        restored = restore_engine(snapshot)
        assert restored.estimates() == snapshot.estimates()

    def test_regulator_capture_restore_standalone(self, trace):
        engine = _measured(trace, "scalar")
        fresh = InstaMeasure(_config("scalar"))
        restore_regulator(fresh.regulator, capture_regulator(engine.regulator))
        for live, back in zip(
            regulator_sketches(engine.regulator),
            regulator_sketches(fresh.regulator),
        ):
            assert np.array_equal(live.words_array(), back.words_array())
        assert fresh.regulator.stats.insertions == engine.regulator.stats.insertions


class TestMidStreamResume:
    @pytest.mark.parametrize("engine_kind", ["scalar", "batched"])
    def test_save_load_resume_bit_identical(self, trace, engine_kind, tmp_path):
        chunks = list(TraceChunkSource(trace, chunk_size=1_500))
        assert len(chunks) >= 4

        reference = InstaMeasure(_config(engine_kind))
        for chunk in chunks:
            reference.ingest(chunk)
        reference.finalize()

        engine = InstaMeasure(_config(engine_kind))
        for chunk in chunks[:2]:
            engine.ingest(chunk)
        path = tmp_path / "midstream.snap"
        save(engine.snapshot(), path)

        resumed = InstaMeasure.from_snapshot(load(path))
        for chunk in chunks[2:]:
            resumed.ingest(chunk)
        result = resumed.finalize()

        assert result.packets == trace.num_packets
        assert resumed.estimates() == reference.estimates()
        assert to_bytes(capture_engine(resumed)) == to_bytes(
            capture_engine(reference)
        )

    @pytest.mark.parametrize("engine_kind", ["scalar", "batched"])
    def test_unknown_length_save_load_resume_bit_identical(
        self, trace, engine_kind, tmp_path
    ):
        """Unbounded streams checkpoint mid-flight via the block cursor."""
        chunks = list(TraceChunkSource(trace, chunk_size=1_500))
        assert len(chunks) >= 4

        reference = InstaMeasure(_config(engine_kind))
        reference.begin_stream()
        for chunk in chunks:
            reference.ingest(chunk)
        reference.finalize()

        engine = InstaMeasure(_config(engine_kind))
        engine.begin_stream()
        for chunk in chunks[:2]:
            engine.ingest(chunk)
        path = tmp_path / "midstream-unknown.snap"
        save(engine.snapshot(), path)

        resumed = InstaMeasure.from_snapshot(load(path))
        for chunk in chunks[2:]:
            resumed.ingest(chunk)
        result = resumed.finalize()

        assert result.packets == trace.num_packets
        assert resumed.estimates() == reference.estimates()
        assert to_bytes(capture_engine(resumed)) == to_bytes(
            capture_engine(reference)
        )

    def test_unknown_length_chunking_invariant(self, trace):
        """Block draws make unbounded streams independent of chunking."""

        def run(chunk_size):
            engine = InstaMeasure(_config("scalar"))
            engine.begin_stream()
            for chunk in TraceChunkSource(trace, chunk_size=chunk_size):
                engine.ingest(chunk)
            engine.finalize()
            return engine

        small, large = run(700), run(2_900)
        assert small.estimates() == large.estimates()
        assert to_bytes(capture_engine(small)) == to_bytes(
            capture_engine(large)
        )


class TestCodecRejection:
    @pytest.fixture(scope="class")
    def payload(self, trace):
        return to_bytes(capture_engine(_measured(trace, "scalar")))

    def test_version_mismatch_rejected(self, payload):
        tampered = _tamper_header(payload, version=SNAPSHOT_VERSION + 1)
        with pytest.raises(SnapshotError, match="version"):
            from_bytes(tampered)

    def test_bad_magic_rejected(self, payload):
        with pytest.raises(SnapshotError):
            from_bytes(b"NOTSNAP\x00" + payload[len(MAGIC) :])

    def test_truncated_payload_rejected(self, payload):
        with pytest.raises(SnapshotError):
            from_bytes(payload[: len(payload) - 16])

    def test_trailing_garbage_rejected(self, payload):
        with pytest.raises(SnapshotError):
            from_bytes(payload + b"\x00" * 8)

    def test_empty_input_rejected(self):
        with pytest.raises(SnapshotError):
            from_bytes(b"")

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda header: [header],
            lambda header: {k: v for k, v in header.items() if k != "manifest"},
            lambda header: {k: v for k, v in header.items() if k != "regulator"},
            lambda header: {**header, "wsaf": [header["wsaf"]]},
            lambda header: {
                **header,
                "manifest": [{**header["manifest"][0], "dtype": "zz"}],
            },
        ],
        ids=["list", "no-manifest", "no-regulator", "list-wsaf", "bad-dtype"],
    )
    def test_malformed_header_is_a_snapshot_error(self, payload, mutate):
        header_end = len(MAGIC) + 8 + int.from_bytes(
            payload[len(MAGIC) : len(MAGIC) + 8], "little"
        )
        header = json.loads(payload[len(MAGIC) + 8 : header_end])
        encoded = json.dumps(mutate(header)).encode()
        tampered = (
            MAGIC
            + len(encoded).to_bytes(8, "little")
            + encoded
            + payload[header_end:]
        )
        with pytest.raises(SnapshotError):
            from_bytes(tampered)

    def test_header_bit_flips_decode_or_raise_snapshot_error(self, payload):
        """Seeded 1-4 bit flips inside the JSON header: every outcome is a
        decoded snapshot or a ``SnapshotError``, never another exception."""
        header_begin = len(MAGIC) + 8
        header_end = header_begin + int.from_bytes(
            payload[len(MAGIC) : header_begin], "little"
        )
        rng = np.random.default_rng(2024)
        rejected = 0
        for _ in range(400):
            damaged = bytearray(payload)
            for _ in range(int(rng.integers(1, 5))):
                position = int(rng.integers(header_begin, header_end))
                damaged[position] ^= 1 << int(rng.integers(0, 8))
            try:
                from_bytes(bytes(damaged))
            except SnapshotError:
                rejected += 1
        assert rejected > 0


class TestCursorRejection:
    """A stream cursor no stream could resume from fails at restore, as a
    ``SnapshotError`` — not at the next ingest, and not as another
    exception — on the engine and on the daemon's recovery path."""

    @pytest.fixture(scope="class")
    def payloads(self, trace):
        """Mid-stream captures of a known- and an unknown-length stream."""
        chunks = list(TraceChunkSource(trace, chunk_size=1_500))[:2]
        payloads = {}
        for kind in ("known", "unknown"):
            engine = InstaMeasure(_config("batched"))
            if kind == "unknown":
                engine.begin_stream()
            for chunk in chunks:
                engine.ingest(chunk)
            payloads[kind] = to_bytes(engine.snapshot())
        return payloads

    @pytest.mark.parametrize(
        "kind,damage",
        [
            ("known", lambda stream: {"offset": stream["total"] + 1}),
            ("known", lambda stream: {"offset": -1}),
            ("known", lambda stream: {"total": -1}),
            ("unknown", lambda stream: {"block_used": stream["block_size"] + 1}),
            ("unknown", lambda stream: {"rng_state": "junk"}),
            ("unknown", lambda stream: {"offset": -1}),
        ],
        ids=[
            "offset-past-total",
            "negative-offset",
            "negative-total",
            "block-overrun",
            "junk-rng-state",
            "unknown-negative-offset",
        ],
    )
    def test_malformed_cursor_is_a_snapshot_error(self, payloads, kind, damage):
        from repro.pipeline.sharded import ShardedStreamingMeasurer

        payload = payloads[kind]
        stream = _split_payload(payload)[0]["stream"]
        snapshot = from_bytes(
            _tamper_header(payload, stream={**stream, **damage(stream)})
        )
        with pytest.raises(SnapshotError, match="stream cursor"):
            restore_engine(snapshot)
        with pytest.raises(SnapshotError, match="stream cursor"):
            ShardedStreamingMeasurer.from_snapshots([snapshot])

    def test_positioned_cursor_is_rejected(self, payloads):
        """Positioned stream cursors are retired: a header that declares
        one, with its ``stream.positions`` column, does not decode."""
        header, body = _split_payload(payloads["known"])
        header["stream"]["has_positions"] = True
        header["manifest"].append(
            {"name": "stream.positions", "dtype": "<i8", "count": 4}
        )
        positioned = _encode(header, body + np.arange(4, dtype="<i8").tobytes())
        with pytest.raises(SnapshotError, match="positioned"):
            from_bytes(positioned)


def _shorten_column(payload: bytes, column: str) -> bytes:
    """``payload`` with the last entry of ``column`` cut out, manifest
    count and column bytes both: a decodable snapshot whose column is one
    entry short."""
    header, body = _split_payload(payload)
    offset = 0
    for entry in header["manifest"]:
        size = np.dtype(entry["dtype"]).itemsize * entry["count"]
        if entry["name"] == column:
            assert entry["count"] > 0
            entry["count"] -= 1
            itemsize = np.dtype(entry["dtype"]).itemsize
            body = body[: offset + size - itemsize] + body[offset + size :]
            return _encode(header, body)
        offset += size
    raise AssertionError(f"no column {column}")


class TestRestoreRejection:
    """A decodable snapshot that no engine can be rebuilt from fails as a
    ``SnapshotError`` — never an ``IndexError``, a ``TypeError`` or a
    ``ConfigurationError``, and never a silently partial table."""

    @pytest.fixture(scope="class")
    def payloads(self, trace):
        return {
            backend: to_bytes(
                capture_engine(
                    _measured(
                        trace,
                        "batched",
                        wsaf_backend=backend,
                        tier_cache_entries=8,
                        tier_interval=64,
                    )
                )
            )
            for backend in ("flat", "tiered", "icebuckets")
        }

    @staticmethod
    def _assert_rejected(payload: bytes) -> None:
        from repro.pipeline.sharded import ShardedStreamingMeasurer

        with pytest.raises(SnapshotError):
            InstaMeasure.from_snapshot(from_bytes(payload))
        with pytest.raises(SnapshotError):
            ShardedStreamingMeasurer.from_snapshots([from_bytes(payload)])

    @pytest.mark.parametrize(
        "backend,column",
        [
            ("flat", "wsaf.slots"),
            ("flat", "wsaf.keys"),
            ("flat", "wsaf.packets"),
            ("flat", "wsaf.bytes"),
            ("flat", "wsaf.timestamps"),
            ("flat", "wsaf.chance"),
            ("flat", "wsaf.tuple_lo"),
            ("flat", "wsaf.tuple_hi"),
            ("flat", "wsaf.tuple_present"),
            ("tiered", "wsaf.tier.packets"),
            ("tiered", "wsaf.tier.chance"),
            ("tiered", "wsaf.tier.tuple_present"),
            ("tiered", "wsaf.tier.heat_counts"),
            ("icebuckets", "wsaf.ice.scale_bytes"),
        ],
    )
    def test_short_column_is_a_snapshot_error(self, payloads, backend, column):
        self._assert_rejected(_shorten_column(payloads[backend], column))

    @pytest.mark.parametrize(
        "value",
        [
            {"wsaf_entries": 3000},
            {"engine": "foo"},
            {"seed": "x"},
            {"chunk_size": 0},
            {"ice_counter_bits": 1},
        ],
        ids=lambda value: "-".join(f"{k}={v}" for k, v in value.items()),
    )
    def test_config_the_engine_rejects_is_a_snapshot_error(self, payloads, value):
        header, body = _split_payload(payloads["flat"])
        header["config"].update(value)
        self._assert_rejected(_encode(header, body))

    @pytest.mark.parametrize(
        "column,dtype",
        [
            ("wsaf.keys", "<f8"),
            ("wsaf.keys", "<i8"),
            ("wsaf.slots", "<f8"),
            ("wsaf.packets", "<i8"),
            ("wsaf.chance", "|u1"),
            ("regulator.0.words", "<f8"),
        ],
    )
    def test_column_of_the_wrong_kind_is_a_snapshot_error(
        self, payloads, column, dtype
    ):
        """Same bytes, another dtype kind: no restore path casts them."""
        header, body = _split_payload(payloads["flat"])
        for entry in header["manifest"]:
            if entry["name"] == column:
                assert np.dtype(entry["dtype"]).itemsize == np.dtype(dtype).itemsize
                entry["dtype"] = dtype
        self._assert_rejected(_encode(header, body))

    def test_short_regulator_words_are_a_snapshot_error(self, payloads):
        self._assert_rejected(
            _shorten_column(payloads["flat"], "regulator.0.words")
        )


def _frame(header) -> bytes:
    encoded = json.dumps(header).encode()
    return FRAME_MAGIC + len(encoded).to_bytes(8, "little") + encoded


class TestFrameRejection:
    @pytest.mark.parametrize(
        "header",
        [
            {"meta": {}, "manifest": [{"name": "x", "dtype": "|O", "count": 0}]},
            {"meta": {}},
            [{"meta": {}, "manifest": []}],
            {"meta": {}, "manifest": [{"name": "x", "dtype": "zz", "count": 1}]},
            {"meta": {}, "manifest": [{"name": 7, "dtype": "<u8", "count": 0}]},
            {"meta": {}, "manifest": [{"name": "x", "dtype": "<u8", "count": -1}]},
        ],
        ids=[
            "object-dtype",
            "no-manifest",
            "list",
            "bad-dtype",
            "int-name",
            "negative-count",
        ],
    )
    def test_malformed_frame_is_a_snapshot_error(self, header):
        with pytest.raises(SnapshotError):
            unpack_frame(_frame(header))


class TestFramePacking:
    @staticmethod
    def _tobytes_join(meta, columns) -> bytes:
        """The frame as a per-column ``tobytes()`` join would write it."""
        manifest, payloads = [], []
        for name, array in columns.items():
            dtype = array.dtype
            wire = dtype.newbyteorder("<") if dtype.byteorder == ">" else dtype
            data = np.ascontiguousarray(array, dtype=wire)
            manifest.append(
                {"name": name, "dtype": wire.str, "count": int(data.size)}
            )
            payloads.append(data.tobytes())
        header = json.dumps(
            {"meta": meta, "manifest": manifest}, separators=(",", ":")
        ).encode()
        return b"".join(
            [FRAME_MAGIC, len(header).to_bytes(8, "little"), header, *payloads]
        )

    def test_frame_bytes_are_the_tobytes_join(self):
        grid = np.arange(40, dtype=np.float64).reshape(8, 5)
        columns = {
            "flags": np.array([True, False, True]),
            "octets": np.arange(7, dtype=np.uint8),
            "counts": np.array([-3, 0, 1 << 40], dtype=np.int64),
            "stamps": np.linspace(0.0, 1.0, 5),
            "big_endian": np.arange(4, dtype=">i8"),
            "strided": grid[:, 2],
            "empty": np.empty(0, dtype=np.uint64),
        }
        assert not columns["strided"].flags.c_contiguous
        meta = {"type": "chunk", "new_table": True}
        frame = pack_frame(meta, columns)
        assert frame == self._tobytes_join(meta, columns)
        got_meta, got = unpack_frame(frame)
        assert got_meta == meta
        assert list(got) == list(columns)
        for name, array in columns.items():
            assert got[name].dtype == array.dtype.newbyteorder("<"), name
            np.testing.assert_array_equal(got[name], array)


class TestMerge:
    def test_disjoint_mode_rejects_overlap(self, trace):
        a = capture_engine(_measured(trace, "scalar"))
        b = capture_engine(_measured(trace, "scalar"))
        with pytest.raises(SnapshotError, match="share flow keys"):
            merge([a, b])

    def test_geometry_mismatch_rejected(self, trace):
        a = capture_engine(_measured(trace, "scalar"))
        b = capture_engine(_measured(trace, "scalar", wsaf_entries=1 << 12))
        with pytest.raises(SnapshotError, match="wsaf_entries"):
            merge([a, b])

    def test_seed_mismatch_rejected_for_disjoint(self, trace):
        a = capture_engine(_measured(trace, "scalar"))
        b = capture_engine(_measured(trace, "scalar", seed=99))
        with pytest.raises(SnapshotError, match="seed"):
            merge([a, b])

    def test_in_progress_stream_rejected(self, trace):
        engine = InstaMeasure(_config("scalar"))
        chunks = list(TraceChunkSource(trace, chunk_size=2_000))
        engine.ingest(chunks[0])
        mid = capture_engine(engine)
        with pytest.raises(SnapshotError, match="in-progress"):
            merge([mid, mid])

    def test_retired_depth_key_merges_with_current_snapshots(self, trace):
        # Older shard snapshots record num_layers=2; current ones omit it.
        current = capture_engine(_measured(trace, "scalar"))
        assert "num_layers" not in current.config
        older = capture_engine(InstaMeasure(_config("scalar")))
        older.config["num_layers"] = 2
        for pair in ([current, older], [older, current]):
            assert merge(pair).estimates() == current.estimates()
        older.config["num_layers"] = 3
        with pytest.raises(SnapshotError, match="num_layers"):
            merge([current, older])

    def test_merge_nothing_rejected(self):
        with pytest.raises(SnapshotError, match="zero"):
            merge([])

    def test_single_snapshot_merge_is_identity_on_estimates(self, trace):
        a = capture_engine(_measured(trace, "scalar"))
        merged = merge([a])
        assert merged.estimates() == a.estimates()
        assert merged.wsaf.insertions == a.wsaf.insertions


class TestSnapshotEstimates:
    def test_estimates_match_live_table(self, trace):
        engine = _measured(trace, "scalar")
        snapshot = capture_engine(engine)
        assert snapshot.estimates() == engine.estimates()
        keys = trace.flows.key64[:50]
        assert snapshot.estimates(flow_keys=keys) == engine.estimates(
            flow_keys=keys
        )

    def test_pipeline_snapshot_path(self, trace):
        """``engine.snapshot()`` after a pipeline run captures everything."""
        engine = InstaMeasure(_config("batched"))
        run_pipeline(engine, TraceChunkSource(trace, chunk_size=2_500))
        snapshot = engine.snapshot()
        assert isinstance(snapshot, MeasurementSnapshot)
        assert snapshot.stream is None  # finalize closed the stream
        assert snapshot.estimates() == engine.estimates()
