"""Streaming pipeline: protocol conformance and chunked bit-identity.

The contract under test is the tentpole guarantee of the pipeline
refactor: feeding any measurer chunk by chunk — at *any* chunk boundary,
including one-packet chunks and a boundary landing inside a contested
stretch — produces exactly the state a single whole-trace call produces
(same counters, same WSAF records, same accumulation event order), and
every measurer in the repository satisfies the protocol.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import (
    CSMSketch,
    CountMinSketch,
    CountSketch,
    CounterTree,
    DelegatingMeasurer,
    FlowRadar,
    NetFlowTable,
    RCCRegulatorMeasurer,
    SpaceSaving,
    UnivMon,
)
from repro.core import (
    InstaMeasure,
    InstaMeasureConfig,
    MultiCoreInstaMeasure,
    WSAFTable,
    build_wsaf_storage,
)
from repro.errors import ConfigurationError, SnapshotError
from repro.pipeline import (
    ChunkSource,
    EpochGrid,
    PacketRecordChunkSource,
    Pipeline,
    RunProgress,
    ShardedPipeline,
    SocketChunkSource,
    StreamingMeasurer,
    TraceChunkSource,
    as_chunk_source,
    run_pipeline,
)
from repro.traffic import (
    CaidaLikeConfig,
    FiveTuple,
    FlowTable,
    build_caida_like_trace,
)
from repro.traffic.packet import Trace
from repro.traffic.pcaplite import write_pcaplite


@pytest.fixture(scope="module")
def trace():
    return build_caida_like_trace(
        CaidaLikeConfig(num_flows=2_500, duration=10.0, seed=11)
    )


@pytest.fixture(scope="module")
def tiny_trace():
    return build_caida_like_trace(
        CaidaLikeConfig(num_flows=120, duration=2.0, seed=5)
    )


def _burst_trace() -> Trace:
    """One hot flow's contested stretch sandwiched in background traffic.

    400 consecutive packets of a single flow guarantee that any small
    chunk size cuts *inside* a contested stretch (the regulator is mid-
    saturation when the boundary lands).
    """
    num_background = 40
    tuples = [FiveTuple(0x0A000001, 0x0B000001, 40_000, 80, 6)]
    tuples += [
        FiveTuple(0x0C000000 + i, 0x0D000000 + i, 1_000 + i, 443, 6)
        for i in range(num_background)
    ]
    flows = FlowTable.from_five_tuples(tuples)
    head = np.arange(120) % num_background + 1
    burst = np.zeros(400, dtype=np.int64)
    tail = np.arange(120) % num_background + 1
    flow_ids = np.concatenate([head, burst, tail]).astype(np.int64)
    n = len(flow_ids)
    return Trace(
        timestamps=np.linspace(0.0, 4.0, n),
        flow_ids=flow_ids,
        sizes=np.full(n, 200, dtype=np.int64),
        flows=flows,
    )


class _PerChunkTables(ChunkSource):
    """The chunks of ``TraceChunkSource(trace, chunk_size)``, each
    re-indexed onto a flow table of its own, as the streaming sources
    deliver them: the packets, spans and ``total_packets`` stay the same,
    only the flow table differs."""

    def __init__(self, trace: Trace, chunk_size: int) -> None:
        self.total_packets = trace.num_packets
        self._chunks = [
            replace(chunk, trace=_own_table(chunk.trace))
            for chunk in TraceChunkSource(trace, chunk_size=chunk_size)
        ]

    def __iter__(self):
        return iter(self._chunks)


def _own_table(trace: Trace) -> Trace:
    """``trace`` over a table of only its own flows, in key order."""
    flows = trace.flows
    used = np.unique(trace.flow_ids)
    used = used[np.argsort(flows.key64[used])]
    local = np.empty(len(flows), dtype=np.int64)
    local[used] = np.arange(len(used))
    table = FlowTable(
        *(
            getattr(flows, column)[used]
            for column in ("src_ip", "dst_ip", "src_port", "dst_port", "protocol")
        ),
        hash_seed=flows.hash_seed,
    )
    return Trace(
        timestamps=trace.timestamps,
        flow_ids=local[trace.flow_ids],
        sizes=trace.sizes,
        flows=table,
    )


def _engine(engine: str, layout: "str | None" = None) -> InstaMeasure:
    """An engine; ``layout`` swaps in a flat WSAF of that kind.

    ``"batched"`` is the batch-probed table every engine builds,
    ``"scalar"`` a plain per-event :class:`WSAFTable`; feeding either
    checks that chunked ingestion does not depend on which table it feeds.
    """
    config = InstaMeasureConfig(
        l1_memory_bytes=2 * 1024, wsaf_entries=1 << 12, seed=3, engine=engine
    )
    measurer = InstaMeasure(config)
    if layout == "batched":
        measurer.wsaf = build_wsaf_storage(config)
    elif layout == "scalar":
        measurer.wsaf = WSAFTable(
            num_entries=config.wsaf_entries, probe_limit=config.probe_limit
        )
    return measurer


def _run_whole(engine: InstaMeasure, trace: Trace) -> "tuple[object, list]":
    events: "list[tuple]" = []
    result = engine.process_trace(
        trace, on_accumulate=lambda *event: events.append(event)
    )
    return result, events


def _run_chunked(
    engine: InstaMeasure, trace: Trace, chunk_size: int
) -> "tuple[object, list]":
    events: "list[tuple]" = []
    outcome = run_pipeline(
        engine,
        TraceChunkSource(trace, chunk_size=chunk_size),
        on_accumulate=lambda *event: events.append(event),
    )
    return outcome.result, events


class TestInstaMeasureBitIdentity:
    @pytest.mark.parametrize("engine_kind", ["scalar", "batched"])
    @pytest.mark.parametrize("wsaf_kind", ["scalar", "batched"])
    @pytest.mark.parametrize("chunk_size", [997, 10_000, 1 << 30])
    def test_chunked_equals_whole(self, trace, engine_kind, wsaf_kind, chunk_size):
        whole, whole_events = _run_whole(_engine(engine_kind, wsaf_kind), trace)
        reference = _engine(engine_kind, wsaf_kind)
        chunked, chunk_events = _run_chunked(reference, trace, chunk_size)

        assert chunked.packets == whole.packets == trace.num_packets
        assert chunked.insertions == whole.insertions
        assert (
            chunked.regulator_stats.l1_saturations
            == whole.regulator_stats.l1_saturations
        )
        assert chunk_events == whole_events

        est = reference.estimates_for(trace)
        ref = _engine(engine_kind, wsaf_kind)
        ref.process_trace(trace)
        expected = ref.estimates_for(trace)
        np.testing.assert_array_equal(est[0], expected[0])
        np.testing.assert_array_equal(est[1], expected[1])

    @pytest.mark.parametrize("engine_kind", ["scalar", "batched"])
    def test_one_packet_chunks(self, tiny_trace, engine_kind):
        whole, whole_events = _run_whole(_engine(engine_kind), tiny_trace)
        streamed = _engine(engine_kind)
        chunked, chunk_events = _run_chunked(streamed, tiny_trace, 1)
        assert chunked.insertions == whole.insertions
        assert chunk_events == whole_events

    @pytest.mark.parametrize("engine_kind", ["scalar", "batched"])
    @pytest.mark.parametrize("chunk_size", [53, 170, 333])
    def test_boundary_inside_contested_stretch(self, engine_kind, chunk_size):
        burst = _burst_trace()
        whole, whole_events = _run_whole(_engine(engine_kind), burst)
        streamed = _engine(engine_kind)
        chunked, chunk_events = _run_chunked(streamed, burst, chunk_size)
        assert whole.insertions > 0  # the burst must actually contest
        assert chunked.insertions == whole.insertions
        assert chunk_events == whole_events

    def test_estimates_protocol_matches_estimates_for(self, trace):
        engine = _engine("batched")
        run_pipeline(engine, TraceChunkSource(trace, chunk_size=4_096))
        table = engine.estimates(trace.flows.key64)
        est_packets, _ = engine.estimates_for(trace)
        for flow in np.flatnonzero(est_packets)[:50]:
            key = int(trace.flows.key64[flow])
            assert table[key][0] == est_packets[flow]


class TestRotation:
    def test_rotate_mid_stream_preserves_retained_counts(self, trace):
        plain = _engine("batched")
        plain.process_trace(trace)
        expected, _ = plain.estimates_for(trace)

        rotated = _engine("batched")
        outcome = run_pipeline(
            rotated,
            TraceChunkSource(trace, chunk_size=3_000, epoch_seconds=2.0),
            rotate=True,
        )
        # Rotation resets the regulator's statistics window, not the
        # sketch contents: flows straddling a boundary keep every packet.
        got, _ = rotated.estimates_for(trace)
        np.testing.assert_array_equal(got, expected)

        assert len(outcome.epochs) == 5  # 10 s / 2 s
        sizes = [len(record.snapshot) for record in outcome.epochs]
        assert sizes == sorted(sizes)
        assert all(record.snapshot is not None for record in outcome.epochs)

    def test_epochs_fire_for_empty_gaps(self, tiny_trace):
        # Stretch the trace with a quiet gap: epochs covering the gap
        # still fire, in order, exactly once each.
        t = tiny_trace
        late = Trace(
            timestamps=np.concatenate([t.timestamps, t.timestamps + 8.0]),
            flow_ids=np.concatenate([t.flow_ids, t.flow_ids]),
            sizes=np.concatenate([t.sizes, t.sizes]),
            flows=t.flows,
        )
        outcome = run_pipeline(
            _engine("batched"), TraceChunkSource(late, epoch_seconds=1.0)
        )
        duration = float(late.timestamps[-1] - late.timestamps[0])
        assert len(outcome.epochs) == int(duration // 1.0) + 1
        assert [record.index for record in outcome.epochs] == list(
            range(len(outcome.epochs))
        )


class TestMultiCore:
    def test_streaming_equals_whole(self, trace):
        config = InstaMeasureConfig(
            l1_memory_bytes=2 * 1024, wsaf_entries=1 << 12, seed=3
        )
        whole = MultiCoreInstaMeasure(3, config)
        whole_result = whole.process_trace(trace)

        streamed = MultiCoreInstaMeasure(3, config)
        outcome = run_pipeline(
            streamed, TraceChunkSource(trace, chunk_size=4_321)
        )
        own_tables = MultiCoreInstaMeasure(3, config)
        own_outcome = run_pipeline(own_tables, _PerChunkTables(trace, 4_321))

        for system, result in (
            (streamed, outcome.result),
            (own_tables, own_outcome.result),
        ):
            assert result.worker_packets == whole_result.worker_packets
            assert result.worker_insertions == whole_result.worker_insertions
            np.testing.assert_array_equal(
                system.estimates_for(trace)[0], whole.estimates_for(trace)[0]
            )


def _baseline_factories() -> "list":
    mem = 8 * 1024
    return [
        lambda: CountMinSketch(memory_bytes=mem, depth=4, seed=2),
        lambda: CountSketch(memory_bytes=mem, depth=5, seed=2),
        lambda: CSMSketch(memory_bytes=mem, counters_per_flow=16, seed=2),
        lambda: CounterTree(memory_bytes=mem, counter_bits=8, num_layers=3, seed=2),
        lambda: UnivMon(memory_bytes=4 * mem, num_levels=4, seed=2),
        lambda: NetFlowTable(max_entries=2_048, sampling_rate=0.5, seed=2),
        lambda: SpaceSaving(capacity=256),
        lambda: FlowRadar(iblt_cells=8_192, seed=2),
        lambda: DelegatingMeasurer(
            sketch_memory_bytes=mem,
            epoch_seconds=1.0,
            network_delay_seconds=0.02,
            seed=2,
        ),
        lambda: RCCRegulatorMeasurer(memory_bytes=mem, seed=2),
    ]


class TestBaselineProtocol:
    @pytest.mark.parametrize(
        "factory", _baseline_factories(), ids=lambda f: type(f()).__name__
    )
    def test_satisfies_protocol_and_chunking_is_lossless(self, trace, factory):
        measurer = factory()
        assert isinstance(measurer, StreamingMeasurer)

        run_pipeline(measurer, TraceChunkSource(trace, chunk_size=7_321))
        whole = factory()
        run_pipeline(whole, TraceChunkSource(trace, chunk_size=1 << 30))
        own_tables = factory()
        run_pipeline(own_tables, _PerChunkTables(trace, 7_321))

        keys = trace.flows.key64[:2_000]
        expected = whole.estimates(keys)
        assert measurer.estimates(keys) == expected
        assert own_tables.estimates(keys) == expected

    def test_instameasure_engines_satisfy_protocol(self):
        assert isinstance(_engine("scalar"), StreamingMeasurer)
        assert isinstance(_engine("batched"), StreamingMeasurer)
        assert isinstance(
            MultiCoreInstaMeasure(2, InstaMeasureConfig()), StreamingMeasurer
        )

    def test_pure_sketches_require_query_keys(self, tiny_trace):
        cms = CountMinSketch(memory_bytes=4 * 1024)
        run_pipeline(cms, tiny_trace)
        with pytest.raises(ConfigurationError):
            cms.estimates(None)

    def test_enumerable_measurers_list_their_table(self, tiny_trace):
        nf = NetFlowTable(max_entries=512)
        run_pipeline(nf, tiny_trace)
        table = nf.estimates()
        assert table
        assert all(packets > 0 for packets, _ in table.values())


class TestSourcesAndDriver:
    def test_source_rejects_bad_parameters(self, tiny_trace):
        with pytest.raises(ConfigurationError):
            TraceChunkSource(tiny_trace, chunk_size=0)
        with pytest.raises(ConfigurationError):
            TraceChunkSource(tiny_trace, chunk_size=64, epoch_seconds=0.0)
        with pytest.raises(ConfigurationError):
            as_chunk_source([1, 2, 3])

    def test_chunks_cover_stream_exactly_once(self, trace):
        source = TraceChunkSource(trace, chunk_size=3_333)
        spans = [(chunk.begin, chunk.end) for chunk in source]
        assert spans[0][0] == 0
        assert spans[-1][1] == trace.num_packets
        for (_, prev_end), (begin, _) in zip(spans, spans[1:]):
            assert begin == prev_end
        assert all(chunk.total_packets == trace.num_packets for chunk in source)

    def test_cutting_follows_packets_not_span(self):
        """2,000 packets over 2 s at 1-us epochs: two million boundaries,
        of which the source only ever computes the ones its packets
        reach."""
        n = 2_000
        trace = Trace(
            timestamps=np.linspace(0.0, 2.0, n),
            flow_ids=np.zeros(n, dtype=np.int64),
            sizes=np.full(n, 64, dtype=np.int64),
            flows=FlowTable.from_five_tuples([FiveTuple(1, 2, 3, 4, 6)]),
        )
        tracemalloc.start()
        try:
            begin = time.perf_counter()
            source = TraceChunkSource(trace, epoch_seconds=1e-6)
            elapsed = time.perf_counter() - begin
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(source) == n
        assert [chunk.epoch for chunk in source] == sorted(
            {chunk.epoch for chunk in source}
        )
        assert peak < 8 << 20
        assert elapsed < 2.0

    def test_slicing_knobs_live_on_sources(self, tiny_trace, tmp_path):
        """Only sources slice a stream: the driver, ``run_pipeline`` and
        ``ShardedPipeline`` take no chunk size or epoch width, and a
        streaming source takes no origin or hash seed."""
        engine = _engine("batched")
        with pytest.raises(TypeError):
            Pipeline(engine, epoch_seconds=1.0)
        with pytest.raises(TypeError):
            Pipeline(engine).run(tiny_trace, chunk_size=64)
        for knob in ({"chunk_size": 64}, {"epoch_seconds": 1.0}):
            with pytest.raises(TypeError):
                run_pipeline(engine, tiny_trace, **knob)
        with pytest.raises(TypeError):
            ShardedPipeline(InstaMeasureConfig(), chunk_size=64)
        for knob in ({"start_time": 0.0}, {"hash_seed": 1}):
            with pytest.raises(TypeError):
                PacketRecordChunkSource(str(tmp_path / "none.impl"), **knob)
            with pytest.raises(TypeError):
                SocketChunkSource("127.0.0.1", 9, **knob)

    def test_prebuilt_source_reuse(self, tiny_trace):
        source = TraceChunkSource(tiny_trace, chunk_size=97)
        first = Pipeline(_engine("batched")).run(source)
        second = Pipeline(_engine("batched")).run(source)
        assert first.packets == second.packets == tiny_trace.num_packets
        assert first.result.insertions == second.result.insertions

    def test_empty_trace(self):
        empty = build_caida_like_trace(
            CaidaLikeConfig(num_flows=10, duration=1.0, seed=1)
        )
        empty = Trace(
            timestamps=empty.timestamps[:0],
            flow_ids=empty.flow_ids[:0],
            sizes=empty.sizes[:0],
            flows=empty.flows,
        )
        outcome = run_pipeline(
            _engine("batched"), TraceChunkSource(empty, epoch_seconds=1.0)
        )
        assert outcome.packets == 0
        assert outcome.epochs == []
        assert outcome.result.packets == 0

    def test_pipeline_result_throughput_accounting(self, tiny_trace):
        outcome = run_pipeline(_engine("batched"), tiny_trace)
        assert outcome.packets == tiny_trace.num_packets
        assert outcome.elapsed_seconds > 0
        assert outcome.pps > 0
        assert sum(chunk.packets for chunk in outcome.chunks) == outcome.packets


class TestEpochGrid:
    """The one epoch rule every source, the driver and recovery read."""

    @pytest.mark.parametrize("origin", [0.0, 1.0, 1.7e9])
    @pytest.mark.parametrize("width", [0.1, 1 / 3, 0.7])
    def test_boundary_opens_the_next_epoch(self, origin, width):
        grid = EpochGrid(origin, width)
        for epoch in range(-3, 200):
            boundary = grid.end_time(epoch)
            assert grid.epoch_of(boundary) == epoch + 1
            assert grid.epoch_of(np.nextafter(boundary, -np.inf)) == epoch
            # What a capture stores for a packet "on" the boundary.
            assert grid.epoch_of(origin + (epoch + 1) * width) == epoch + 1

    @pytest.mark.parametrize(
        "origin, width, timestamp",
        [(1.7e9, 1e-9, 1.7e9 + 1.0), (0.0, 5e-324, 1.0), (-1e308, 1.0, 1e308)],
    )
    def test_unresolvable_width_is_refused(self, origin, width, timestamp):
        with pytest.raises(ConfigurationError, match="do not resolve"):
            EpochGrid(origin, width).epoch_of(timestamp)

    def test_sources_refuse_an_unresolvable_width(self):
        """A width below the timestamps' float resolution is refused, not
        looped on or allocated for (the span is kept to 49,000 such
        boundaries, so even a source that allocates per boundary
        survives it)."""
        n = 50
        trace = Trace(
            timestamps=1.7e9 + np.arange(n) * 1e-6,
            flow_ids=np.zeros(n, dtype=np.int64),
            sizes=np.full(n, 64, dtype=np.int64),
            flows=FlowTable.from_five_tuples([FiveTuple(1, 2, 3, 4, 6)]),
        )
        with pytest.raises(ConfigurationError, match="do not resolve"):
            TraceChunkSource(trace, epoch_seconds=1e-9)
        for width in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                TraceChunkSource(trace, epoch_seconds=width)


class TestIncrementalDriver:
    """The begin/step/finish decomposition that run() is built on."""

    def test_step_loop_equals_run(self, tiny_trace):
        whole = run_pipeline(
            _engine("batched"),
            TraceChunkSource(tiny_trace, chunk_size=500, epoch_seconds=1.0),
        )
        engine = _engine("batched")
        pipeline = Pipeline(engine)
        source = TraceChunkSource(
            tiny_trace, chunk_size=500, epoch_seconds=1.0
        )
        pipeline.begin(source)
        for chunk in source:
            pipeline.step(chunk)
        outcome = pipeline.finish()
        assert outcome.packets == whole.packets
        assert [e.index for e in outcome.epochs] == [
            e.index for e in whole.epochs
        ]
        assert engine.estimates() == whole.measurer.estimates()

    def test_step_without_begin_rejected(self, tiny_trace):
        pipeline = Pipeline(_engine("batched"))
        source = TraceChunkSource(tiny_trace, chunk_size=500)
        with pytest.raises(ConfigurationError):
            pipeline.step(next(iter(source)))
        with pytest.raises(ConfigurationError):
            pipeline.finish()

    def test_double_begin_rejected(self, tiny_trace):
        pipeline = Pipeline(_engine("batched"))
        pipeline.begin(TraceChunkSource(tiny_trace, chunk_size=500))
        with pytest.raises(ConfigurationError):
            pipeline.begin(TraceChunkSource(tiny_trace, chunk_size=500))

    def test_abort_allows_fresh_begin_and_keeps_state(self, tiny_trace):
        engine = _engine("batched")
        pipeline = Pipeline(engine)
        source = TraceChunkSource(tiny_trace, chunk_size=500)
        pipeline.begin(source)
        chunks = iter(source)
        pipeline.step(next(chunks))
        pipeline.abort()
        # The measurer and the run record keep their mid-stream state
        # across the abort.
        assert pipeline.progress.measured_packets == 500
        assert engine.finalize().packets == 500
        pipeline.begin(TraceChunkSource(tiny_trace, chunk_size=500))
        assert pipeline.progress == RunProgress(
            epoch_seconds=None, start_time=float(tiny_trace.timestamps[0])
        )

    def test_history_bounds_records(self, trace):
        engine = _engine("batched")
        pipeline = Pipeline(engine, history=3)
        outcome = pipeline.run(
            TraceChunkSource(trace, chunk_size=300, epoch_seconds=1.0)
        )
        assert len(outcome.chunks) == 3
        assert len(outcome.epochs) <= 3
        # Aggregates are unaffected by the trim.
        assert outcome.packets == trace.num_packets
        with pytest.raises(ConfigurationError):
            Pipeline(engine, history=0)

    def test_elapsed_seconds_cover_every_chunk(self, trace):
        """``elapsed_seconds`` and ``pps`` count every chunk's ingest
        time, not only the chunks ``history`` kept."""
        pipeline = Pipeline(_engine("batched"), history=4)
        source = TraceChunkSource(trace, chunk_size=300)
        pipeline.begin(source)
        seconds = [pipeline.step(chunk).seconds for chunk in source]
        outcome = pipeline.finish()
        assert len(outcome.chunks) == 4 < len(seconds)
        assert outcome.elapsed_seconds == pytest.approx(sum(seconds))
        assert outcome.pps == pytest.approx(trace.num_packets / sum(seconds))

    def test_resume_continues_the_record(self, tiny_trace):
        """A resumed run counts on from its record: epochs, packets and
        chunks, and the epoch records carry whole-stream counts."""
        source = TraceChunkSource(tiny_trace, chunk_size=500, epoch_seconds=0.5)
        whole = Pipeline(_engine("batched")).run(source)
        resumed = Pipeline(_engine("batched"))
        record = RunProgress(
            position=7, packets=1_000, measured_packets=900, chunks=3,
            epoch_seconds=0.5, start_time=source.start_time,
        )
        resumed.begin(source, resume=record)
        for chunk in source:
            resumed.step(chunk)
        outcome = resumed.finish()
        assert resumed.progress is record
        assert record.position == tiny_trace.num_packets
        assert record.chunks == 3 + len(source)
        assert outcome.offered_packets == 1_000 + tiny_trace.num_packets
        assert outcome.packets == 900 + tiny_trace.num_packets
        assert [e.packets_so_far - 900 for e in outcome.epochs] == [
            e.packets_so_far for e in whole.epochs
        ]
        assert outcome.pps == pytest.approx(
            tiny_trace.num_packets / outcome.elapsed_seconds
        )

    def test_record_round_trips_through_a_manifest(self):
        """``as_meta``/``from_meta`` carry the record through JSON; a
        field no run writes does not decode."""
        import json

        from repro.errors import SnapshotError
        from repro.pipeline import ControllerStats

        record = RunProgress(
            position=9, packets=12, measured_packets=10, chunks=3, epoch=2,
            epoch_seconds=0.5, start_time=1.5, stream_time=2.75,
            controller=ControllerStats(
                policy="shed", chunks=3, offered_packets=12, kept_packets=10,
                dropped_packets=2, thinned_chunks=1,
            ),
        )
        meta = json.loads(json.dumps(record.as_meta()))
        assert RunProgress.from_meta(meta) == record
        assert RunProgress.from_meta({}) == RunProgress()
        for name, bad in [
            ("position", -1), ("chunks", 2.0), ("epoch_seconds", 0),
            ("epoch_seconds", "1"), ("stream_time", float("inf")),
            ("controller", {"policy": "shed"}),
        ]:
            with pytest.raises(SnapshotError, match=name):
                RunProgress.from_meta(dict(meta, **{name: bad}))

    def test_record_epoch_sits_on_its_grid(self):
        """A manifest whose epoch is not where its grid puts its stream
        time does not decode (an origin moved back 10^6 s would fire a
        million empty rotations); one epoch of slack is allowed."""
        meta = RunProgress(
            epoch=5, epoch_seconds=1.0, start_time=10.0, stream_time=15.5
        ).as_meta()
        for epoch in (4, 5, 6):
            assert RunProgress.from_meta(dict(meta, epoch=epoch)).epoch == epoch
        for bad in (
            {"epoch": 3},
            {"epoch": 7},
            {"start_time": 10.0 - 1e6},
            {"start_time": -1e308, "stream_time": 1e308},
        ):
            with pytest.raises(SnapshotError, match="epoch|grid"):
                RunProgress.from_meta(dict(meta, **bad))
        for unknown in ("epoch_seconds", "start_time", "stream_time"):
            assert RunProgress.from_meta(
                dict(meta, epoch=99, **{unknown: None})
            ).epoch == 99

    def test_resume_refuses_another_origin(self, tiny_trace, tmp_path):
        """The origin is the grid's other half: a record numbering epochs
        from elsewhere cannot continue over a source that knows its own;
        an unknown origin on either side takes the other's."""
        source = TraceChunkSource(tiny_trace, chunk_size=500, epoch_seconds=1.0)
        pipeline = Pipeline(_engine("batched"))
        record = RunProgress(epoch_seconds=1.0, start_time=source.start_time - 100.0)
        with pytest.raises(ConfigurationError, match="numbers epochs"):
            pipeline.begin(source, resume=record)
        assert source.start_time == float(tiny_trace.timestamps[0])
        pipeline.begin(source, resume=RunProgress(epoch_seconds=1.0))
        assert pipeline.progress.start_time == source.start_time
        pipeline.abort()

        capture = str(tmp_path / "tiny.impl")
        write_pcaplite(tiny_trace, capture)
        unopened = PacketRecordChunkSource(capture, epoch_seconds=1.0)
        pipeline.begin(unopened, resume=RunProgress(start_time=-3.0))
        assert unopened.start_time == -3.0

    def test_resume_refuses_another_epoch_width(self, tiny_trace):
        """The source owns the epoch grid: a record cut at another width
        cannot continue over it; one of unknown width takes the source's."""
        source = TraceChunkSource(tiny_trace, chunk_size=500, epoch_seconds=1.0)
        pipeline = Pipeline(_engine("batched"))
        for width in (2.0, 0.5):
            with pytest.raises(ConfigurationError, match="epochs"):
                pipeline.begin(source, resume=RunProgress(epoch_seconds=width))
        with pytest.raises(ConfigurationError, match="epochs"):
            pipeline.begin(
                TraceChunkSource(tiny_trace, chunk_size=500),
                resume=RunProgress(epoch_seconds=1.0),
            )
        pipeline.begin(source, resume=RunProgress(epoch=1))
        assert pipeline.progress.epoch_seconds == 1.0

    def test_first_epoch_resumes_cadence(self, tiny_trace):
        fired: "list[int]" = []
        pipeline = Pipeline(
            _engine("batched"),
            on_epoch=lambda record, _m: fired.append(record.index),
        )
        source = TraceChunkSource(
            tiny_trace, chunk_size=500, epoch_seconds=1.0
        )
        pipeline.begin(source, resume=RunProgress(epoch=5))
        assert pipeline.progress.epoch == 5
        for chunk in source:
            pipeline.step(chunk)
        pipeline.finish()
        assert fired and fired[0] == 5
        assert fired == sorted(fired)
