"""Cross-cutting property-based tests (hypothesis)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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
