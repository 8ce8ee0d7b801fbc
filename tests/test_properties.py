"""Cross-cutting property-based tests (hypothesis)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import InstaMeasure, InstaMeasureConfig, RCCSketch, WSAFTable
from repro.core.rcc import coupon_partial_sum
from repro.state import capture_engine, to_bytes
from repro.traffic import FiveTuple, FlowTable, merge_traces
from repro.traffic.packet import Trace

# -- strategies ---------------------------------------------------------------

SMALL_U64 = st.integers(min_value=1, max_value=2**63)


@st.composite
def tiny_traces(draw):
    """Small random traces: a handful of flows, tens of packets."""
    num_flows = draw(st.integers(1, 6))
    tuples = [
        FiveTuple(
            draw(st.integers(0, 2**32 - 1)),
            draw(st.integers(0, 2**32 - 1)),
            draw(st.integers(0, 2**16 - 1)),
            draw(st.integers(0, 2**16 - 1)),
            draw(st.sampled_from([1, 6, 17])),
        )
        for _ in range(num_flows)
    ]
    flows = FlowTable.from_five_tuples(tuples)
    num_packets = draw(st.integers(1, 60))
    flow_ids = draw(
        st.lists(
            st.integers(0, num_flows - 1),
            min_size=num_packets,
            max_size=num_packets,
        )
    )
    gaps = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False),
            min_size=num_packets,
            max_size=num_packets,
        )
    )
    sizes = draw(
        st.lists(st.integers(40, 1514), min_size=num_packets, max_size=num_packets)
    )
    return Trace(
        timestamps=np.cumsum(gaps),
        flow_ids=np.asarray(flow_ids, dtype=np.int64),
        sizes=np.asarray(sizes, dtype=np.int64),
        flows=flows,
    )


# -- properties ---------------------------------------------------------------


class TestRCCProperties:
    @given(SMALL_U64, st.integers(0, 7))
    @settings(max_examples=50, deadline=None)
    def test_encode_changes_only_own_window(self, key, bit):
        sketch = RCCSketch(256, vector_bits=8, seed=1)
        idx, offset = sketch.place(key)
        window = sketch._window_masks[offset]
        before = list(sketch.words)
        sketch.encode(key, bit)
        for word_index, (old, new) in enumerate(zip(before, sketch.words)):
            if word_index != idx:
                assert old == new
            else:
                assert (old ^ new) & ~window == 0

    @given(st.integers(2, 64))
    @settings(max_examples=30, deadline=None)
    def test_decode_table_strictly_increasing(self, b):
        values = [coupon_partial_sum(b, s) for s in range(b + 1)]
        assert all(later > earlier for earlier, later in zip(values, values[1:]))

    @given(SMALL_U64)
    @settings(max_examples=30, deadline=None)
    def test_fill_count_bounded_by_vector(self, key):
        sketch = RCCSketch(64, vector_bits=8, seed=2)
        rng = np.random.default_rng(0)
        for _ in range(50):
            sketch.encode(key, int(rng.integers(8)))
            assert 0 <= sketch.fill_count(key) < sketch.saturation_bits


class TestWSAFProperties:
    @given(st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_probe_permutation_every_power_of_two(self, exponent):
        size = 2**exponent
        table = WSAFTable(num_entries=size, probe_limit=size)
        assert sorted(table.probe_sequence(12345, length=size)) == list(range(size))

    @given(
        st.lists(
            st.tuples(st.integers(1, 30), st.floats(0.1, 10.0)),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_size_invariant_under_any_stream(self, operations):
        table = WSAFTable(num_entries=16, probe_limit=4)
        for step, (key, amount) in enumerate(operations):
            table.accumulate(key, amount, amount, float(step))
        assert len(table) == sum(table._occupied)
        assert table.insertions - table.evictions - table.gc_reclaimed == len(table)

    @given(
        st.lists(
            st.tuples(st.integers(1, 10), st.floats(0.1, 10.0)),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_totals_conserved_without_eviction(self, operations):
        table = WSAFTable(num_entries=64, probe_limit=64)
        expected = 0.0
        for step, (key, amount) in enumerate(operations):
            table.accumulate(key, amount, 0.0, float(step))
            expected += amount
        assert table.evictions == 0
        total = sum(entry.packets for entry in table.entries())
        assert total == pytest.approx(expected)


class TestEngineProperties:
    @given(tiny_traces())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_engine_never_crashes_and_counts_all_packets(self, trace):
        engine = InstaMeasure(
            InstaMeasureConfig(l1_memory_bytes=256, wsaf_entries=64)
        )
        result = engine.process_trace(trace)
        assert result.packets == trace.num_packets
        est_packets, est_bytes = engine.estimates_for(trace)
        assert (est_packets >= 0).all()
        assert (est_bytes >= 0).all()

    @given(tiny_traces())
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_residual_estimates_cover_retained_packets(self, trace):
        """estimate + residual never collapses to zero for active flows
        whose sketch word is private (a colliding neighbour's recycle can
        legitimately erase a lone bit, so shared words are exempt)."""
        engine = InstaMeasure(
            InstaMeasureConfig(l1_memory_bytes=4096, wsaf_entries=64)
        )
        engine.process_trace(trace)
        est, _ = engine.estimates_for(trace, include_residual=True)
        truth = trace.ground_truth_packets()
        placements = [
            engine.regulator.place(int(key))[0] for key in trace.flows.key64
        ]
        for flow in range(trace.num_flows):
            private_word = placements.count(placements[flow]) == 1
            if truth[flow] > 0 and private_word:
                assert est[flow] > 0.0


class TestKernelProperties:
    """The batched kernel equals the scalar oracle across generated
    geometries: every saturation threshold from one bit to the whole
    vector, so both the quad replay and its single-packet steps run."""

    @given(
        tiny_traces(),
        st.integers(2, 8).flatmap(
            lambda v: st.tuples(st.just(v), st.integers(1, v))
        ),
        st.sampled_from([32, 64]),
        st.integers(64, 256),
        st.integers(1, 64),
        st.sampled_from(["second-chance", "min", "reject"]),
    )
    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_kernel_snapshot_equals_scalar(
        self, trace, geometry, word_bits, l1_memory_bytes, chunk_size, policy
    ):
        vector_bits, saturation_bits = geometry
        config = InstaMeasureConfig(
            l1_memory_bytes=l1_memory_bytes,
            vector_bits=vector_bits,
            word_bits=word_bits,
            # ceil() of this fill times vector_bits is exactly
            # saturation_bits; saturation_bits / vector_bits can round up.
            saturation_fill=(saturation_bits - 0.5) / vector_bits,
            wsaf_entries=16,
            eviction_policy=policy,
            chunk_size=chunk_size,
        )
        snapshots = []
        for engine_name in ("scalar", "batched"):
            engine = InstaMeasure(replace(config, engine=engine_name))
            assert engine.regulator.l1.saturation_bits == saturation_bits
            engine.process_trace(trace)
            snapshots.append(capture_engine(engine))
        scalar, kernel = snapshots
        # Only the engine knob in the embedded config may differ.
        assert to_bytes(replace(kernel, config=scalar.config)) == to_bytes(scalar)


class TestMergeProperties:
    @given(tiny_traces(), tiny_traces())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_merge_conserves_packets_and_bytes(self, a, b):
        merged = merge_traces(a, b)
        assert merged.num_packets == a.num_packets + b.num_packets
        assert merged.total_bytes == a.total_bytes + b.total_bytes
        assert np.all(np.diff(merged.timestamps) >= 0)

    @given(tiny_traces())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_self_merge_dedup_doubles_counts(self, trace):
        merged = merge_traces(trace, trace, deduplicate=True)
        assert merged.num_flows <= trace.num_flows  # identical tuples merge
        assert merged.num_packets == 2 * trace.num_packets

# -- fork pool vs in-process sharding -------------------------------------------


@st.composite
def pool_runs(draw):
    """A tiny trace plus a sharded-run geometry for the fork pool.

    The trace's first chunk carries one flow only, so with two or more
    shards some worker gets no packets of it.  The chunk size lies below,
    at or above the pool's slot size, so chunks also go through the ring
    in slot-sized pieces.
    """
    num_flows = draw(st.integers(1, 6))
    flows = FlowTable.from_five_tuples(
        [
            FiveTuple(draw(st.integers(0, 2**32 - 1)), flow, 80, 443, 6)
            for flow in range(num_flows)
        ]
    )
    slot = draw(st.integers(1, 12))
    chunk = max(1, slot + draw(st.sampled_from([-1, 0, 1])) * draw(st.integers(1, 6)))
    num_packets = draw(st.integers(1, 50))
    flow_ids = [0] * min(chunk, num_packets) + draw(
        st.lists(
            st.integers(0, num_flows - 1),
            min_size=max(0, num_packets - chunk),
            max_size=max(0, num_packets - chunk),
        )
    )
    trace = Trace(
        timestamps=np.cumsum(np.full(num_packets, 0.01)),
        flow_ids=np.asarray(flow_ids, dtype=np.int64),
        sizes=np.asarray(
            draw(st.lists(st.integers(40, 1514), min_size=num_packets, max_size=num_packets)),
            dtype=np.int64,
        ),
        flows=flows,
    )
    return dict(
        trace=trace,
        shards=draw(st.integers(1, 4)),
        slot=slot,
        chunk=chunk,
        known=draw(st.booleans()),
        records=draw(st.booleans()),
        engine=draw(st.sampled_from(["scalar", "auto"])),
    )


@st.composite
def served_runs(draw):
    """A service daemon's geometry: chunk size, epoch width (``None``
    keeps the records without rotating), shard count, whether it sheds,
    checkpoint cadence, and where (as a share of the stream) a first
    daemon crashes before a second one recovers, if one does."""
    return dict(
        chunk=draw(st.integers(500, 1_500)),
        epoch=draw(st.sampled_from([None, 0.3, 1.0])),
        shards=draw(st.integers(1, 3)),
        shed=draw(st.booleans()),
        every=draw(st.integers(2, 4)),
        crash=draw(st.one_of(st.none(), st.floats(0.1, 0.9))),
    )


_SERVED = {}


def _served_trace() -> Trace:
    """The capture every served run replays (built once)."""
    if "trace" not in _SERVED:
        from repro.traffic import CaidaLikeConfig, build_caida_like_trace

        _SERVED["trace"] = build_caida_like_trace(
            CaidaLikeConfig(num_flows=300, duration=3.0, seed=17)
        )
    return _SERVED["trace"]


class TestForkPoolProperties:
    @given(pool_runs())
    @settings(
        max_examples=12,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_pool_snapshot_equals_in_process(self, run):
        """The fork pool's merged snapshot bytes equal the in-process
        sharded run's, for every source shape, slot size and total."""
        import os
        import tempfile

        from repro.pipeline import (
            ChunkSource,
            PacketRecordChunkSource,
            Pipeline,
            ShardedStreamingMeasurer,
            ShardWorkerPool,
            TraceChunkSource,
        )
        from repro.pipeline.sharded import _fork_available, _PoolShardMeasurer
        from repro.state import ShardRouter
        from repro.traffic.pcaplite import write_pcaplite

        if not _fork_available():
            pytest.skip("platform cannot fork")
        trace = run["trace"]
        config = InstaMeasureConfig(
            l1_memory_bytes=256, wsaf_entries=1 << 8, seed=5, engine=run["engine"]
        )
        total = trace.num_packets if run["known"] else None

        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "trace.impl")
            write_pcaplite(trace, path)

            def source():
                if run["records"]:
                    inner = PacketRecordChunkSource(path, chunk_size=run["chunk"])
                else:
                    inner = TraceChunkSource(trace, chunk_size=run["chunk"])

                class Relay(ChunkSource):
                    total_packets = total
                    epoch_seconds = None
                    start_time = None

                    def __iter__(self):
                        return iter(inner)

                return Relay()

            reference = ShardedStreamingMeasurer(config, num_shards=run["shards"])
            reference.begin_stream(total)
            Pipeline(reference).run(source())

            router = ShardRouter.for_config(config, run["shards"])
            pool = ShardWorkerPool(
                config,
                [router.key_range(shard) for shard in range(run["shards"])],
                total,
                slot_packets=run["slot"],
            )
            forked = _PoolShardMeasurer(config, pool, total)
            try:
                Pipeline(forked).run(source())
            finally:
                pool.close()
        assert to_bytes(forked.merged_snapshot()) == to_bytes(
            reference.merged_snapshot()
        )

    @given(served_runs())
    @example(dict(chunk=1_000, epoch=1.0, shards=3, shed=True, every=3, crash=0.5))
    @settings(
        max_examples=6,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_served_daemon_equals_in_process(self, run):
        """A daemon serving on the fork pool — crashed after some chunk
        and recovered, or not — equals the driver over in-process shards
        on the same capture: every checkpoint's shard bytes, every epoch
        record, the final estimates and snapshots, and ``stats()``."""
        import os
        import tempfile
        from pathlib import Path

        from repro.pipeline import (
            PacketRecordChunkSource,
            Pipeline,
            ShardedStreamingMeasurer,
            ShedController,
        )
        from repro.pipeline.sharded import _fork_available
        from repro.service import MeasurementDaemon
        from repro.traffic.pcaplite import write_pcaplite

        if not _fork_available():
            pytest.skip("platform cannot fork")
        trace = _served_trace()
        config = InstaMeasureConfig(l1_memory_bytes=512, wsaf_entries=1 << 10, seed=11)
        target_pps = 0.5 * trace.num_packets / trace.duration if run["shed"] else None

        class Crashing(PacketRecordChunkSource):
            after = None

            def __iter__(self):
                for index, chunk in enumerate(super().__iter__()):
                    if index == self.after:
                        raise RuntimeError("simulated crash")
                    yield chunk

        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "trace.impl")
            write_pcaplite(trace, path)

            def source(kind=PacketRecordChunkSource):
                return kind(path, chunk_size=run["chunk"], epoch_seconds=run["epoch"])

            # The oracle: the driver over in-process shards, capturing the
            # shard bytes wherever the daemon checkpoints.
            reference = ShardedStreamingMeasurer(config, num_shards=run["shards"])
            pipeline = Pipeline(
                reference,
                rotate=run["epoch"] is not None,
                controller=(
                    ShedController(target_pps, seed=config.seed) if run["shed"] else None
                ),
            )
            oracle_source = source()
            pipeline.begin(oracle_source)
            captures = []
            for index, chunk in enumerate(oracle_source, 1):
                pipeline.step(chunk)
                if index % run["every"] == 0:
                    captures.append(list(reference.shard_payloads()))
            captures.append(list(reference.shard_payloads()))
            expected = pipeline.finish()
            chunks = pipeline.progress.chunks

            def served(src):
                daemon = MeasurementDaemon(
                    src,
                    config=config,
                    num_shards=run["shards"],
                    epoch_seconds=run["epoch"],
                    checkpoint_dir=os.path.join(workdir, "ck"),
                    checkpoint_every=run["every"],
                    keep_checkpoints=10_000,
                    target_pps=target_pps,
                )
                daemon.start()
                assert daemon.wait(60.0)
                return daemon

            if run["crash"] is not None and chunks > 1:
                crashing = source(Crashing)
                crashing.after = min(chunks - 1, max(1, int(run["crash"] * chunks)))
                assert isinstance(served(crashing).error, RuntimeError)
            daemon = served(source())
            assert daemon.error is None
            stored = daemon.store
            on_disk = [
                [Path(shard).read_bytes() for shard in info.shard_paths]
                for info in stored.list()
            ]

        assert on_disk == captures
        fired = {record.index: record for record in expected.epochs}
        assert bool(daemon.result.epochs) == (run["epoch"] is not None)
        for record in daemon.result.epochs:
            assert record == fired[record.index]
        measurer = daemon.measurer
        assert measurer.estimates() == reference.estimates()
        assert [to_bytes(s) for s in measurer.snapshot_shards()] == (
            reference.shard_payloads()
        )
        stats = daemon.stats()
        progress = pipeline.progress
        assert (
            stats["packets"],
            stats["measured_packets"],
            stats["chunks"],
            stats["epoch"],
            stats["position"],
            stats["wsaf_entries"],
            stats["controller"],
        ) == (
            expected.offered_packets,
            expected.packets,
            progress.chunks,
            progress.epoch,
            progress.position,
            reference.wsaf_size,
            expected.controller_stats,
        )

    def test_a_daemon_over_an_empty_source_forks_nothing(self, tmp_path, monkeypatch):
        import repro.pipeline.sharded as sharded_module
        from repro.pipeline import PacketRecordChunkSource
        from repro.service import MeasurementDaemon
        from repro.traffic.pcaplite import PacketRecordWriter

        pools = []

        class Recorded(sharded_module.ShardWorkerPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(sharded_module, "ShardWorkerPool", Recorded)
        path = tmp_path / "empty.impl"
        PacketRecordWriter(path).close()
        daemon = MeasurementDaemon(
            PacketRecordChunkSource(str(path), chunk_size=100),
            num_shards=2,
            checkpoint_dir=str(tmp_path / "ck"),
        )
        daemon.start()
        assert daemon.wait(30.0) and daemon.error is None
        assert pools == []
        assert daemon.store.latest() is not None
        assert daemon.stats()["wsaf_entries"] == 0

    def test_a_killed_worker_ends_the_daemon(self, tmp_path, monkeypatch):
        """SIGKILL one worker mid-stream: the daemon's error is a
        ShardWorkerError and no worker process is left."""
        import multiprocessing
        import os
        import signal

        import repro.pipeline.sharded as sharded_module
        from repro.errors import ShardWorkerError
        from repro.pipeline import PacketRecordChunkSource
        from repro.service import MeasurementDaemon
        from repro.traffic.pcaplite import write_pcaplite

        pools = []

        class Recorded(sharded_module.ShardWorkerPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        class Killing(PacketRecordChunkSource):
            def __iter__(self):
                for index, chunk in enumerate(super().__iter__()):
                    if index == 3:
                        victim = pools[0]._procs[1]
                        os.kill(victim.pid, signal.SIGKILL)
                        victim.join(timeout=10.0)
                    yield chunk

        monkeypatch.setattr(sharded_module, "ShardWorkerPool", Recorded)
        path = tmp_path / "trace.impl"
        write_pcaplite(_served_trace(), path)
        daemon = MeasurementDaemon(
            Killing(str(path), chunk_size=200, epoch_seconds=0.5),
            num_shards=2,
            epoch_seconds=0.5,
        )
        daemon.start()
        assert daemon.wait(30.0)
        assert isinstance(daemon.error, ShardWorkerError)
        # The daemon still reports, and says why it ended.
        stats = daemon.stats()
        assert stats["running"] is False and stats["wsaf_entries"] == 0
        assert "ShardWorkerError" in stats["error"]
        assert len(pools) == 1 and pools[0].ring.closed
        assert not any(process.is_alive() for process in pools[0]._procs)
        assert multiprocessing.active_children() == []

    def test_a_read_that_meets_a_dead_worker_ends_the_daemon(self, tmp_path):
        """A tailing daemon whose capture was read to its end sends its
        workers nothing, so no chunk meets a SIGKILLed worker: the first
        read that does stops the source, and the daemon ends on the
        worker's error, writes no checkpoint after the kill and leaves
        no process behind."""
        import multiprocessing
        import os
        import signal
        import time

        from repro.errors import ShardWorkerError
        from repro.pipeline import PacketRecordChunkSource
        from repro.pipeline.sharded import _fork_available
        from repro.service import MeasurementDaemon
        from repro.traffic.pcaplite import write_pcaplite

        if not _fork_available():
            pytest.skip("platform cannot fork")
        served = _served_trace()
        # Whole chunks only: a tailing source holds a partial one back.
        whole = served.num_packets - served.num_packets % 200
        trace = Trace(
            timestamps=served.timestamps[:whole],
            flow_ids=served.flow_ids[:whole],
            sizes=served.sizes[:whole],
            flows=served.flows,
        )
        path = tmp_path / "trace.impl"
        write_pcaplite(trace, path)
        daemon = MeasurementDaemon(
            PacketRecordChunkSource(str(path), chunk_size=200, follow=True),
            num_shards=2,
            checkpoint_dir=str(tmp_path / "ck"),
            # No periodic checkpoint: the one below is the last before the kill.
            checkpoint_every=10_000,
        )
        daemon.start()
        try:
            deadline = time.monotonic() + 30.0
            while daemon.packets < trace.num_packets:
                assert time.monotonic() < deadline, "the capture was not read"
                time.sleep(0.01)
            before = daemon.checkpoint_now()
            victim = daemon.measurer.pool._procs[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10.0)
            assert daemon.running
            assert "ShardWorkerError" in daemon.stats()["error"]
            assert daemon.wait(10.0)
        finally:
            daemon.stop()
            daemon.wait(30.0)
        assert not daemon.running
        assert isinstance(daemon.error, ShardWorkerError)
        assert multiprocessing.active_children() == []
        assert [info.seq for info in daemon.store.list()] == [before.seq]
