"""Process-sharded ingestion.

The headline contract: a :class:`ShardedPipeline` run at any shard count
produces estimates **exactly equal** to a single-process pipeline over
the same trace — under both engines, in-process and forked —
because word-range sharding keeps regulator words, each packet's random
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
        """Tiny per-worker chunks exercise multi-chunk streams handed bits."""
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
        # per-shard block-drawn randomness instead of bits handed out of
        # the global draw.  Packets must be conserved and the key sets of the
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

    def test_localize_maps_each_new_table_densely(self):
        """Handed the sorted, distinct ids ``select_shard`` picks off a
        table, ``localize`` numbers them 0..k-1 and ships them all, and
        keeps nothing between tables."""
        from repro.pipeline.sharded import _ShardFlowSync
        from repro.state.shard import select_shard
        from repro.traffic.packet import FlowTable

        def table(count):
            ips = np.arange(count, dtype=np.uint32)
            zeros = np.zeros(count, dtype=np.uint16)
            return FlowTable(ips, ips, zeros, zeros, np.full(count, 6))

        sync = _ShardFlowSync()
        for count, assignment in [
            (5, [1, 0, 1, 1, 0]),
            (3, [0, 0, 0]),
            (4, [0, 1, 0, 0]),
        ]:
            flows = table(count)
            members = select_shard(np.array(assignment), 1)
            local, fresh = sync.localize(flows, members)
            assert local.dtype == np.int64
            assert local.tolist() == list(range(members.size))
            assert fresh is members
        assert vars(sync) == {}

    def test_fresh_flow_columns_of_duck_typed_tables(self, trace):
        """A table with no 5-tuple columns ships the same identity
        columns as the FlowTable it was filled from."""
        from repro.pipeline.sharded import (
            _fresh_flow_columns,
            _ShardFlowDirectory,
        )

        flows = trace.flows
        high, low = flows._packed_halves()
        directory = _ShardFlowDirectory(flows.key64, low, high)
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

    def test_handed_bits_midstream_capture_rejected(self, trace):
        """A stream handed its bits has no cursor of its own — capture
        raises, and so does asking it to draw for itself; a stream that
        draws its own bits cannot be handed any."""
        from repro.errors import SnapshotError
        from repro.state import capture_engine
        from repro.traffic.packet import Trace

        drawing = InstaMeasure(_config("scalar"))
        drawing.begin_stream(total=trace.num_packets)
        engine = InstaMeasure(_config("scalar"))
        sub = Trace(
            timestamps=trace.timestamps[:10],
            flow_ids=trace.flow_ids[:10],
            sizes=trace.sizes[:10],
            flows=trace.flows,
        )
        bits = (np.zeros(10, dtype=np.uint8), np.ones(10, dtype=np.uint8))
        with pytest.raises(ConfigurationError, match="draws its own bits"):
            drawing.ingest(sub, bits=bits)
        engine.ingest(sub, bits=bits)
        with pytest.raises(SnapshotError, match="handed its bits"):
            capture_engine(engine)
        with pytest.raises(ConfigurationError, match="handed its bits"):
            engine.ingest(sub)
        with pytest.raises(ConfigurationError, match="bit choices"):
            engine.ingest(sub, bits=(bits[0][:3], bits[1]))
        engine.finalize()  # and finalizing afterwards is fine


def _tiny_source(trace, count=3):
    """The first ``count`` packets of ``trace`` as one known-length chunk."""
    from repro.traffic.packet import Trace

    head = Trace(
        timestamps=trace.timestamps[:count],
        flow_ids=trace.flow_ids[:count],
        sizes=trace.sizes[:count],
        flows=trace.flows,
    )
    return TraceChunkSource(head, chunk_size=count)


@pytest.mark.skipif(not _fork_available(), reason="platform cannot fork")
class TestShardWorkerPool:
    """The pool's ring protocol and failure handling: raise, never hang."""

    def _pool(self, config, total, num_shards=1, **kwargs):
        from repro.pipeline import ShardWorkerPool

        router = ShardRouter.for_config(config, num_shards)
        key_ranges = [router.key_range(shard) for shard in range(num_shards)]
        return ShardWorkerPool(config, key_ranges, total, **kwargs)

    @staticmethod
    def _measurer(config, pool, total):
        from repro.pipeline.sharded import _PoolShardMeasurer

        return _PoolShardMeasurer(config, pool, total)

    def test_worker_exception_propagates(self):
        from repro.errors import ShardWorkerError
        from repro.state import pack_frame

        pool = self._pool(_config("scalar"), total=100)
        try:
            # A slot descriptor before any table frame: the slot's packets
            # name flows the worker's empty directory does not hold, so its
            # ingest raises mid-chunk; the error frame must surface as a
            # ShardWorkerError carrying the worker traceback, not hang.
            pool.send(0, pack_frame({"type": "slot", "slot": 0, "count": 3}, {}))
            with pytest.raises(ShardWorkerError, match="(?s)shard worker 0 failed.*outside"):
                pool.finalize()
        finally:
            pool.close()
        assert pool.ring.closed

    def test_worker_death_propagates(self, trace):
        import os
        import signal

        from repro.errors import ShardWorkerError

        config = _config("scalar")
        pool = self._pool(config, total=trace.num_packets)
        measurer = self._measurer(config, pool, trace.num_packets)
        try:
            victim = pool._procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            with pytest.raises(ShardWorkerError):
                for chunk in TraceChunkSource(trace, chunk_size=4_000):
                    measurer.ingest(chunk)
                measurer.finalize()
        finally:
            pool.close()
        assert pool.ring.closed

    def test_worker_killed_while_parent_waits_for_a_slot(self, trace):
        """Both slots taken by a stopped worker: the parent blocks on the
        release, and killing the worker turns the wait into an error."""
        import os
        import signal
        import threading
        import time

        from repro.errors import ShardWorkerError

        config = _config("scalar")
        pool = self._pool(config, total=trace.num_packets, slot_packets=500)
        measurer = self._measurer(config, pool, trace.num_packets)
        chunks = iter(TraceChunkSource(trace, chunk_size=500))
        victim = pool._procs[0]
        killer = threading.Timer(0.5, os.kill, (victim.pid, signal.SIGKILL))
        try:
            os.kill(victim.pid, signal.SIGSTOP)
            measurer.ingest(next(chunks))
            measurer.ingest(next(chunks))  # both slots now wait on the worker
            killer.start()
            begin = time.monotonic()
            with pytest.raises(ShardWorkerError, match="shard worker 0"):
                measurer.ingest(next(chunks))
            assert time.monotonic() - begin < 5.0
        finally:
            killer.join(timeout=10.0)
            pool.close()
        assert not killer.is_alive()
        assert pool.ring.closed

    def test_pool_builds_kernel_tables_before_forking(self, trace, monkeypatch):
        """Workers inherit the kernel's FSM tables from the parent: the
        pool builds them for a kernel config, and for nothing else; a
        threshold below four bits builds no quad table."""
        from repro.kernels import luts

        monkeypatch.setattr(luts, "_CACHE", {})
        monkeypatch.setattr(luts, "_QUAD_CACHE", {})
        self._pool(_config("scalar"), total=3).close()
        assert luts._CACHE == {} and luts._QUAD_CACHE == {}

        config = _config("auto")
        pool = self._pool(config, total=3)
        try:
            # 8-bit vectors at the default 70 % fill saturate at 6 bits.
            assert set(luts._CACHE) == {(8, 6)}
            assert set(luts._QUAD_CACHE) == {(8, 6)}
            measurer = self._measurer(config, pool, 3)
            for chunk in _tiny_source(trace):
                measurer.ingest(chunk)
            result = measurer.finalize()
        finally:
            pool.close()
        assert result.shard_packets == [3]

        monkeypatch.setattr(luts, "_CACHE", {})
        monkeypatch.setattr(luts, "_QUAD_CACHE", {})
        self._pool(_config("auto", vector_bits=4), total=3).close()
        # 4-bit vectors at the default 70 % fill saturate at 3 bits.
        assert set(luts._CACHE) == {(4, 3)}
        assert luts._QUAD_CACHE == {}

    def test_healthy_pool_round_trips(self, trace):
        from repro.state import from_bytes

        config = _config("scalar")
        pool = self._pool(config, total=3)
        try:
            measurer = self._measurer(config, pool, 3)
            for chunk in _tiny_source(trace):
                measurer.ingest(chunk)
            measurer.finalize()
        finally:
            pool.close()
        assert pool.ring.closed
        (payload,) = measurer._payloads
        snapshot = from_bytes(payload)
        assert snapshot.regulator.packets == 3

    def test_ring_is_unmapped_after_every_run(self, trace, monkeypatch):
        """The run's pool unmaps its ring when the run ends, whether it
        succeeds or a worker fails."""
        import repro.pipeline.sharded as sharded_module
        from repro.errors import ShardWorkerError

        pools = []

        class Recorded(sharded_module.ShardWorkerPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(sharded_module, "ShardWorkerPool", Recorded)
        config = _config("scalar")
        ShardedPipeline(config, num_shards=2, parallel=True).run(trace)

        def refuse(self, *columns):
            raise RuntimeError("table refused")

        # Forked after the patch, the workers cannot build a flow directory.
        monkeypatch.setattr(sharded_module._ShardFlowDirectory, "__init__", refuse)
        with pytest.raises(ShardWorkerError, match="table refused"):
            ShardedPipeline(config, num_shards=2, parallel=True).run(trace)
        assert len(pools) == 2
        assert all(pool.ring.closed for pool in pools)

    def test_known_length_run_draws_its_bits_once(self, trace, monkeypatch):
        """In-process and in the pool, an N-shard run over a known-length
        stream makes the single run's one draw, in the parent; no shard
        engine and no worker draws."""
        import os

        from repro.core import instameasure

        parent = os.getpid()
        draws = []
        original = instameasure._BitStream._draw

        def counted(self, count):
            if os.getpid() != parent:
                raise RuntimeError("a shard worker drew its own bits")
            draws.append(count)
            return original(self, count)

        monkeypatch.setattr(instameasure._BitStream, "_draw", counted)
        config = _config("batched")
        single = _single_run(config, trace)
        for parallel in (False, True):
            draws.clear()
            result = ShardedPipeline(config, num_shards=3, parallel=parallel).run(
                TraceChunkSource(trace, chunk_size=3_000)
            )
            assert result.parallel == parallel
            assert draws == [trace.num_packets]
            assert result.estimates() == single.estimates()
