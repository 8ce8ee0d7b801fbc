"""Process-sharded ingestion.

The headline contract: a :class:`ShardedPipeline` run at any shard count
produces estimates **exactly equal** to a single-process pipeline over
the same trace — under both engines, in-process and forked —
because word-range sharding keeps regulator words, positioned random
bits, and per-flow accumulation order all identical to the single run
(valid while the WSAF sees no evictions, which these workloads satisfy
and the tests assert).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import InstaMeasure, InstaMeasureConfig
from repro.errors import ConfigurationError
from repro.pipeline import ChunkSource, ShardedPipeline, TraceChunkSource
from repro.pipeline.sharded import _fork_available
from repro.state import ShardRouter
from repro.traffic import CaidaLikeConfig, build_caida_like_trace


@pytest.fixture(scope="module")
def trace():
    return build_caida_like_trace(
        CaidaLikeConfig(num_flows=2_000, duration=8.0, seed=11)
    )


def _config(engine: str = "auto", **overrides) -> InstaMeasureConfig:
    base = dict(
        l1_memory_bytes=4 * 1024,
        wsaf_entries=1 << 12,
        seed=3,
        engine=engine,
    )
    base.update(overrides)
    return InstaMeasureConfig(**base)


def _single_run(config, trace) -> InstaMeasure:
    engine = InstaMeasure(config)
    engine.process_trace(trace)
    return engine


class TestShardRouter:
    def test_bounds_partition_the_word_space(self):
        router = ShardRouter.for_config(_config(), 4)
        assert router.bounds[0] == 0
        assert router.bounds[-1] == router.num_words
        assert (np.diff(router.bounds) > 0).all()

    def test_every_key_lands_in_exactly_one_shard(self, trace):
        router = ShardRouter.for_config(_config(), 4)
        shards = router.shard_of_keys(trace.flows.key64)
        assert shards.min() >= 0 and shards.max() < 4
        # The ranges tile: each key's placement word is inside its
        # shard's [lo, hi) range.
        for shard in range(4):
            lo, hi = router.key_range(shard)
            words = router._place(trace.flows.key64[shards == shard])
            assert (words >= lo).all() and (words < hi).all()

    def test_assignments_follow_flow_ids(self, trace):
        router = ShardRouter.for_config(_config(), 3)
        per_packet = router.assignments(trace)
        per_flow = router.shard_of_keys(trace.flows.key64)
        assert np.array_equal(per_packet, per_flow[trace.flow_ids])

    def test_routing_pins_nothing_on_the_chunk(self):
        """Routed copies die with their chunk: nothing is cached on the
        chunk's trace or on its flow table, even when routed twice."""
        fresh = build_caida_like_trace(
            CaidaLikeConfig(num_flows=50, duration=1.0, seed=5)
        )
        chunk = next(iter(TraceChunkSource(fresh, chunk_size=1_000)))
        trace_attrs = set(vars(chunk.trace))
        flow_attrs = set(vars(chunk.trace.flows))
        router = ShardRouter.for_config(_config(), 3)
        first = router.split_chunk(chunk)
        second = router.split_chunk(chunk)
        assert set(vars(chunk.trace)) == trace_attrs
        assert set(vars(chunk.trace.flows)) == flow_attrs
        for (sub_a, pos_a), (sub_b, pos_b) in zip(first, second):
            assert np.array_equal(sub_a.flow_ids, sub_b.flow_ids)
            assert np.array_equal(pos_a, pos_b)

    def test_invalid_shard_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardRouter.for_config(_config(), 0)
        with pytest.raises(ConfigurationError):
            ShardRouter(10, 5, lambda keys: keys)
        router = ShardRouter.for_config(_config(), 2)
        with pytest.raises(ConfigurationError):
            router.key_range(2)


class TestShardedEquivalence:
    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    @pytest.mark.parametrize("num_shards", [1, 2, 4, 8])
    def test_sharded_equals_single_process(self, trace, engine, num_shards):
        config = _config(engine)
        single = _single_run(config, trace)
        # The exactness argument requires an eviction-free single run.
        assert single.wsaf.evictions == 0 and single.wsaf.gc_reclaimed == 0

        result = ShardedPipeline(config, num_shards=num_shards).run(trace)

        assert result.estimates() == single.estimates()
        assert result.packets == trace.num_packets
        assert result.snapshot.wsaf.evictions == 0
        assert result.snapshot.shards_merged == num_shards
        # Regulator word arrays are bit-identical, not just estimates.
        from repro.state import capture_engine

        reference = capture_engine(single)
        for ours, theirs in zip(
            result.snapshot.regulator.sketches, reference.regulator.sketches
        ):
            assert np.array_equal(ours.words, theirs.words)
        assert (
            result.snapshot.regulator.insertions
            == reference.regulator.insertions
        )

    def test_sharded_counters_match_single_run(self, trace):
        config = _config("scalar")
        single = _single_run(config, trace)
        result = ShardedPipeline(config, num_shards=4).run(trace)
        assert result.snapshot.wsaf.insertions == single.wsaf.insertions
        assert result.snapshot.wsaf.updates == single.wsaf.updates
        assert result.snapshot.regulator.packets == trace.num_packets

    @pytest.mark.skipif(not _fork_available(), reason="platform cannot fork")
    def test_fork_parallel_equals_in_process(self, trace):
        config = _config("batched")
        in_process = ShardedPipeline(config, num_shards=4).run(trace)
        forked = ShardedPipeline(config, num_shards=4, parallel=True).run(trace)
        assert forked.estimates() == in_process.estimates()
        assert forked.shard_packets == in_process.shard_packets

    def test_restored_merged_state_is_live(self, trace):
        config = _config("scalar")
        result = ShardedPipeline(config, num_shards=4).run(trace)
        engine = result.restore()
        assert engine.estimates() == result.estimates()
        # and it keeps measuring:
        engine.process_trace(trace)
        assert engine.regulator.stats.packets == 2 * trace.num_packets

    def test_empty_shards_merge_cleanly(self):
        # 3 flows across 8 shards: most shards receive nothing.
        tiny = build_caida_like_trace(
            CaidaLikeConfig(num_flows=3, duration=1.0, seed=2)
        )
        config = _config("scalar")
        single = _single_run(config, tiny)
        result = ShardedPipeline(config, num_shards=8).run(tiny)
        assert result.estimates() == single.estimates()
        assert sum(result.shard_packets) == tiny.num_packets

    def test_chunked_workers_preserve_equivalence(self, trace):
        """Tiny per-worker chunks exercise positioned multi-chunk streams."""
        config = _config("scalar")
        single = _single_run(config, trace)
        result = ShardedPipeline(config, num_shards=3, chunk_size=700).run(trace)
        assert result.estimates() == single.estimates()


class TestShardedPipelineAPI:
    def test_accepts_trace_backed_sources(self, trace):
        config = _config("scalar")
        from_trace = ShardedPipeline(config, num_shards=2).run(trace)
        from_source = ShardedPipeline(config, num_shards=2).run(
            TraceChunkSource(trace, chunk_size=4_000)
        )
        assert from_trace.estimates() == from_source.estimates()

    def test_accepts_unknown_length_sources(self, trace):
        # An unbounded source (the service mode's shape) shards too:
        # per-shard block-drawn randomness instead of the positioned
        # global draw.  Packets must be conserved and the key sets of the
        # merged estimates must cover exactly the trace's flows.
        inner = TraceChunkSource(trace, chunk_size=3_000)

        class Unbounded(ChunkSource):
            total_packets = None
            epoch_seconds = None
            start_time = None

            def __iter__(self):
                return iter(inner)

        config = _config("scalar")
        result = ShardedPipeline(config, num_shards=3).run(Unbounded())
        assert sum(result.shard_packets) == trace.num_packets
        keys = set(trace.flows.key64.tolist())
        assert set(result.estimates()).issubset(keys)

    def test_accepts_opaque_sources_with_known_total(self, trace):
        # A chunk source that is NOT a TraceChunkSource (so nothing can
        # peek at a whole backing trace) still shard-streams exactly, as
        # long as it reports its total.
        inner = TraceChunkSource(trace, chunk_size=3_000)

        class Relay(ChunkSource):
            total_packets = trace.num_packets
            epoch_seconds = None
            start_time = None

            def __iter__(self):
                return iter(inner)

        config = _config("scalar")
        result = ShardedPipeline(config, num_shards=3).run(Relay())
        assert result.estimates() == _single_run(config, trace).estimates()

    def test_streams_from_file_source(self, trace, tmp_path):
        """Sharded runs consume FileChunkSource chunk by chunk."""
        from repro.pipeline import FileChunkSource
        from repro.traffic import save_trace

        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        config = _config("batched")
        single = _single_run(config, trace)
        result = ShardedPipeline(config, num_shards=4).run(
            FileChunkSource(path, chunk_size=4_000)
        )
        assert result.estimates() == single.estimates()
        if _fork_available():
            forked = ShardedPipeline(config, num_shards=4, parallel=True).run(
                FileChunkSource(path, chunk_size=4_000)
            )
            assert forked.estimates() == single.estimates()

    @pytest.mark.skipif(not _fork_available(), reason="platform cannot fork")
    def test_forked_record_source_equals_in_process(self, trace, tmp_path):
        """A source with a new flow table per chunk (pcap-lite records):
        each worker restarts its flow directory per table and the forked
        run still equals the in-process one."""
        from repro.pipeline import PacketRecordChunkSource
        from repro.traffic.pcaplite import write_pcaplite

        path = tmp_path / "trace.impl"
        write_pcaplite(trace, path)
        config = _config("batched")
        runs = [
            ShardedPipeline(config, num_shards=2, parallel=parallel).run(
                PacketRecordChunkSource(path, chunk_size=2_000)
            )
            for parallel in (False, True)
        ]
        in_process, forked = runs
        assert forked.parallel and not in_process.parallel
        assert forked.packets == trace.num_packets
        assert forked.shard_packets == in_process.shard_packets
        assert forked.estimates() == in_process.estimates()

    def test_flow_sync_holds_only_the_current_table(self):
        """Per-chunk flow tables must not accumulate in the parent."""
        import gc
        import weakref

        from repro.pipeline.sharded import _ShardFlowSync
        from repro.traffic.packet import FlowTable

        def table(count):
            ips = np.arange(count, dtype=np.uint32)
            zeros = np.zeros(count, dtype=np.uint16)
            return FlowTable(ips, ips, zeros, zeros, np.full(count, 6))

        sync = _ShardFlowSync()
        alive, calls = [], []
        for _ in range(12):
            flows = table(5)
            calls.append(
                (
                    sync.localize(flows, np.array([3, 1, 3], dtype=np.int64)),
                    sync.localize(flows, np.array([1, 4], dtype=np.int64)),
                )
            )
            alive.append(weakref.ref(flows))
            del flows
        gc.collect()
        assert [ref() is not None for ref in alive] == [False] * 11 + [True]
        for index, (first, again) in enumerate(calls):
            # Every table restarts the worker's dense ids from 0, and only
            # a table that replaces an earlier one asks for a reset.
            assert first[0].tolist() == [1, 0, 1]
            assert first[1].tolist() == [1, 3]
            assert again[0].tolist() == [0, 2]
            assert again[1].tolist() == [4]
            assert first[2:] == ((index > 0),) and again[2:] == (False,)

    def test_fresh_flow_columns_of_duck_typed_tables(self, trace):
        """A table with no 5-tuple columns ships the same identity
        columns as the FlowTable it was filled from."""
        from repro.pipeline.sharded import (
            _fresh_flow_columns,
            _ShardFlowDirectory,
        )

        flows = trace.flows
        high, low = flows._packed_halves()
        directory = _ShardFlowDirectory()
        directory.extend(flows.key64, low, high)
        index = np.array([0, 7, len(flows) - 1], dtype=np.int64)
        got = _fresh_flow_columns(directory, index)
        want = _fresh_flow_columns(flows, index)
        for column, expected in zip(got, want):
            assert column.dtype == expected.dtype
            assert column.tolist() == expected.tolist()

    def test_stage_seconds_breakdown(self, trace):
        result = ShardedPipeline(_config(), num_shards=2).run(trace)
        assert set(result.stage_seconds) == {
            "route_s",
            "ipc_s",
            "ingest_s",
            "merge_s",
        }
        assert result.elapsed_seconds > 0
        assert result.stage_seconds["ipc_s"] == 0.0  # in-process run

    def test_fork_unavailable_falls_back_with_warning(self, trace, monkeypatch):
        import repro.pipeline.sharded as sharded_module

        monkeypatch.setattr(sharded_module, "_fork_available", lambda: False)
        config = _config("scalar")
        with pytest.warns(RuntimeWarning, match="fork start method"):
            result = ShardedPipeline(config, num_shards=2, parallel=True).run(
                trace
            )
        assert not result.parallel
        assert result.estimates() == _single_run(config, trace).estimates()

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ConfigurationError):
            ShardedPipeline(_config(), num_shards=0)

    def test_load_shares_sum_to_one(self, trace):
        result = ShardedPipeline(_config(), num_shards=4).run(trace)
        assert result.packets == trace.num_packets
        assert sum(result.load_shares) == pytest.approx(1.0)

    def test_estimates_for_alignment(self, trace):
        config = _config("scalar")
        result = ShardedPipeline(config, num_shards=2).run(trace)
        single = _single_run(config, trace)
        got_packets, got_bytes = result.estimates_for(trace)
        want_packets, want_bytes = single.estimates_for(trace)
        assert np.array_equal(got_packets, want_packets)
        assert np.array_equal(got_bytes, want_bytes)


class TestStreamingEdges:
    def test_one_packet_chunks(self):
        """chunk_size=1 — every routed sub-chunk is one packet or empty."""
        tiny = build_caida_like_trace(
            CaidaLikeConfig(num_flows=20, duration=0.3, seed=7)
        )
        config = _config("scalar")
        single = _single_run(config, tiny)
        result = ShardedPipeline(config, num_shards=3, chunk_size=1).run(tiny)
        assert result.estimates() == single.estimates()
        assert result.packets == tiny.num_packets

    def test_positional_midstream_capture_rejected(self, trace):
        """After take_at gathers, the cursor is meaningless — capture raises."""
        from repro.errors import SnapshotError
        from repro.state import capture_engine
        from repro.traffic.packet import Trace

        engine = InstaMeasure(_config("scalar"))
        engine.begin_stream(total=trace.num_packets)
        sub = Trace(
            timestamps=trace.timestamps[:10],
            flow_ids=trace.flow_ids[:10],
            sizes=trace.sizes[:10],
            flows=trace.flows,
        )
        engine.ingest(sub, positions=np.arange(10, dtype=np.int64))
        with pytest.raises(SnapshotError, match="positional"):
            capture_engine(engine)
        engine.finalize()  # and finalizing afterwards is fine


@pytest.mark.skipif(not _fork_available(), reason="platform cannot fork")
class TestShardWorkerPool:
    """Failure handling of the persistent worker pool: raise, never hang."""

    def _pool(self, total=100):
        from repro.pipeline import ShardWorkerPool

        config = _config("scalar")
        router = ShardRouter.for_config(config, 1)
        return ShardWorkerPool(config, [router.key_range(0)], total)

    def _chunk_frame(self, positions):
        from repro.state import pack_frame

        count = len(positions)
        return pack_frame(
            {"type": "chunk"},
            {
                "timestamps": np.linspace(0.0, 1.0, count),
                "flow_ids": np.zeros(count, dtype=np.int64),
                "sizes": np.full(count, 100, dtype=np.int64),
                "positions": np.asarray(positions, dtype=np.int64),
                "new_key64": np.array([12345], dtype=np.uint64),
                "new_tuple_lo": np.array([1], dtype=np.uint64),
                "new_tuple_hi": np.array([2], dtype=np.uint64),
            },
        )

    def test_worker_exception_propagates(self):
        from repro.errors import ShardWorkerError

        pool = self._pool(total=100)
        try:
            # Positions beyond the declared total make the worker's
            # engine raise mid-chunk; the error frame must surface as a
            # ShardWorkerError (carrying the worker traceback), not hang.
            pool.send(0, self._chunk_frame([999]))
            with pytest.raises(ShardWorkerError, match="shard worker 0"):
                pool.finalize()
        finally:
            pool.close()

    def test_worker_death_propagates(self):
        import os
        import signal

        from repro.errors import ShardWorkerError

        pool = self._pool(total=100)
        try:
            victim = pool._procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            with pytest.raises(ShardWorkerError):
                pool.send(0, self._chunk_frame([0, 1, 2]))
                pool.finalize()
        finally:
            pool.close()

    def test_pool_builds_kernel_tables_before_forking(self, monkeypatch):
        """Workers inherit the kernel's FSM tables from the parent: the
        pool builds them for a kernel config, and for nothing else; a
        threshold below four bits builds no quad table."""
        from repro.kernels import luts
        from repro.pipeline import ShardWorkerPool

        monkeypatch.setattr(luts, "_CACHE", {})
        monkeypatch.setattr(luts, "_QUAD_CACHE", {})
        scalar = _config("scalar")
        key_range = ShardRouter.for_config(scalar, 1).key_range(0)
        ShardWorkerPool(scalar, [key_range], 3).close()
        assert luts._CACHE == {} and luts._QUAD_CACHE == {}

        pool = ShardWorkerPool(_config("auto"), [key_range], 3)
        try:
            # 8-bit vectors at the default 70 % fill saturate at 6 bits.
            assert set(luts._CACHE) == {(8, 6)}
            assert set(luts._QUAD_CACHE) == {(8, 6)}
            pool.send(0, self._chunk_frame([0, 1, 2]))
            replies = pool.finalize()
        finally:
            pool.close()
        assert [meta["packets"] for meta, _payload in replies] == [3]

        monkeypatch.setattr(luts, "_CACHE", {})
        monkeypatch.setattr(luts, "_QUAD_CACHE", {})
        narrow = _config("auto", vector_bits=4)
        narrow_range = ShardRouter.for_config(narrow, 1).key_range(0)
        ShardWorkerPool(narrow, [narrow_range], 3).close()
        # 4-bit vectors at the default 70 % fill saturate at 3 bits.
        assert set(luts._CACHE) == {(4, 3)}
        assert luts._QUAD_CACHE == {}

    def test_healthy_pool_round_trips(self):
        pool = self._pool(total=3)
        try:
            pool.send(0, self._chunk_frame([0, 1, 2]))
            replies = pool.finalize()
        finally:
            pool.close()
        assert len(replies) == 1
        meta, payload = replies[0]
        assert meta["packets"] == 3
        from repro.state import from_bytes

        snapshot = from_bytes(payload)
        assert snapshot.regulator.packets == 3
