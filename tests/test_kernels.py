"""Batched-kernel equivalence tests.

The contract of :mod:`repro.kernels` is *bit-identicality*: the batched
engine must leave exactly the same regulator words, counters, statistics,
and WSAF contents behind as the scalar per-packet loop, for every
configuration it claims to support, through either of its delegation
forms (the batch-probed table's column arrays, or ``accumulate_batch``
on a plain per-event table).  These tests enforce that contract across seeds,
chunk sizes (including one-packet chunks), eviction policies, saturation
thresholds, vector and word geometries, a single-flow trace whose every
chunk is one maximal contested stretch, and the empty trace, rerun the
degenerate geometries on the tiered and ICE-Buckets WSAF backends, and
pin the gating rules that route unsupported configurations back to the
scalar path.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.instameasure import InstaMeasure, InstaMeasureConfig
from repro.core.wsaf import WSAFTable
from repro.core.wsaf_storage import build_wsaf_storage
from repro.errors import ConfigurationError
from repro.kernels import SENTINEL, geometry_tables, kernel_tables
from repro.kernels.luts import quad_tables
from repro.state import capture_engine, to_bytes
from repro.traffic.synth import CaidaLikeConfig, build_caida_like_trace


@pytest.fixture(scope="module")
def trace():
    """A small but saturation-rich trace (heavy flows + mice)."""
    return build_caida_like_trace(
        CaidaLikeConfig(num_flows=2500, duration=8.0, seed=11)
    )


@pytest.fixture(scope="module")
def single_flow_trace():
    """Every packet belongs to one flow: one max-length stretch per chunk.

    All packets share one ``(word, offset)`` placement, so the kernel sees
    a single word run whose whole chunk is one contested stretch.
    """
    return build_caida_like_trace(
        CaidaLikeConfig(
            num_flows=1,
            duration=2.0,
            seed=5,
            max_flow_size=20_000,
            zipf_alpha=1.01,
        )
    )


@pytest.fixture(params=["batched", "scalar"])
def layout(request):
    """The flat WSAF column layout the kernel feeds.

    ``"batched"`` is the batch-probed table the kernel builds for itself;
    ``"scalar"`` hands it a plain :class:`WSAFTable` instead, which it
    feeds through ``accumulate_batch`` — the delegation the tiered and
    ICE-Buckets backends ride — so that form is pinned on the plain
    flat table too.
    """
    return request.param


def _flat_table(config: InstaMeasureConfig, layout: str):
    """The flat table of ``layout`` (see the ``layout`` fixture)."""
    if layout == "batched":
        return build_wsaf_storage(config)
    return WSAFTable(
        num_entries=config.wsaf_entries,
        probe_limit=config.probe_limit,
        gc_timeout=config.gc_timeout,
        eviction_policy=config.eviction_policy,
    )


def _config(**overrides) -> InstaMeasureConfig:
    defaults = dict(l1_memory_bytes=2048, wsaf_entries=1 << 12, seed=0)
    defaults.update(overrides)
    return InstaMeasureConfig(**defaults)


def _run(trace, config, layout=None):
    """Run ``config`` over ``trace``; ``layout`` swaps the flat WSAF."""
    engine = InstaMeasure(config)
    if layout is not None:
        engine.wsaf = _flat_table(config, layout)
    result = engine.process_trace(trace)
    return engine, result


def _assert_identical(scalar_engine, batched_engine):
    """Every observable piece of state must match exactly."""
    scalar_reg = scalar_engine.regulator
    batched_reg = batched_engine.regulator
    assert scalar_reg.l1.words == batched_reg.l1.words
    assert scalar_reg.l1.packets_encoded == batched_reg.l1.packets_encoded
    assert scalar_reg.l1.saturations == batched_reg.l1.saturations
    assert len(scalar_reg.l2) == len(batched_reg.l2)
    for scalar_l2, batched_l2 in zip(scalar_reg.l2, batched_reg.l2):
        assert scalar_l2.words == batched_l2.words
        assert scalar_l2.packets_encoded == batched_l2.packets_encoded
        assert scalar_l2.saturations == batched_l2.saturations
    assert scalar_reg.stats == batched_reg.stats
    assert scalar_engine.wsaf.estimates() == batched_engine.wsaf.estimates()
    assert scalar_engine.wsaf.insertions == batched_engine.wsaf.insertions
    assert scalar_engine.wsaf.updates == batched_engine.wsaf.updates
    assert scalar_engine.wsaf.evictions == batched_engine.wsaf.evictions
    assert scalar_engine.wsaf.rejected == batched_engine.wsaf.rejected


class TestBitIdenticality:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_identical_across_seeds(self, trace, layout, seed):
        scalar_engine, scalar_result = _run(trace, _config(seed=seed, engine="scalar"))
        batched_engine, batched_result = _run(
            trace, _config(seed=seed, engine="batched"), layout
        )
        assert scalar_result.packets == batched_result.packets == trace.num_packets
        assert scalar_result.insertions == batched_result.insertions
        _assert_identical(scalar_engine, batched_engine)

    @pytest.mark.parametrize("chunk_size", [1, 7, 4096, 1 << 20])
    def test_identical_across_chunk_sizes(self, trace, layout, chunk_size):
        # chunk_size=1: every chunk is a single one-packet stretch.
        scalar_engine, _ = _run(trace, _config(engine="scalar"))
        batched_engine, _ = _run(
            trace, _config(engine="batched", chunk_size=chunk_size), layout
        )
        _assert_identical(scalar_engine, batched_engine)

    @pytest.mark.parametrize("policy", ["second-chance", "min", "reject"])
    def test_identical_under_eviction_pressure(self, trace, layout, policy):
        # A 16-entry table with a 4-slot probe window forces constant
        # evictions, so WSAF ordering bugs cannot hide.
        pressured = _config(
            wsaf_entries=16, probe_limit=4, eviction_policy=policy
        )
        scalar_engine, _ = _run(trace, replace_engine(pressured, "scalar"))
        batched_engine, _ = _run(
            trace, replace_engine(pressured, "batched"), layout
        )
        assert scalar_engine.wsaf.evictions > 0 or policy == "reject"
        _assert_identical(scalar_engine, batched_engine)

    @pytest.mark.parametrize(
        "vector_bits,saturation_fill",
        # (8, 0.1), (3, 0.5) and (8, 0.3) saturate at 1, 2 and 3 bits: no
        # quad table, so the replay steps one packet per lookup.
        [(8, 0.5), (8, 0.75), (8, 0.9), (3, 0.5), (8, 0.1), (8, 0.3)],
    )
    def test_identical_across_saturation_fill(
        self, trace, layout, vector_bits, saturation_fill
    ):
        geometry = dict(vector_bits=vector_bits, saturation_fill=saturation_fill)
        scalar_engine, _ = _run(trace, _config(engine="scalar", **geometry))
        batched_engine, _ = _run(
            trace, _config(engine="batched", **geometry), layout
        )
        _assert_identical(scalar_engine, batched_engine)

    @pytest.mark.parametrize("vector_bits", [3, 4, 5, 8])
    def test_identical_across_vector_bits(self, trace, layout, vector_bits):
        scalar_engine, _ = _run(
            trace, _config(engine="scalar", vector_bits=vector_bits)
        )
        batched_engine, _ = _run(
            trace, _config(engine="batched", vector_bits=vector_bits), layout
        )
        _assert_identical(scalar_engine, batched_engine)

    @pytest.mark.parametrize("vector_bits", [3, 8])
    def test_identical_with_64bit_words(self, trace, layout, vector_bits):
        geometry = dict(word_bits=64, vector_bits=vector_bits)
        scalar_engine, _ = _run(trace, _config(engine="scalar", **geometry))
        batched_engine, _ = _run(
            trace, _config(engine="batched", **geometry), layout
        )
        _assert_identical(scalar_engine, batched_engine)

    @pytest.mark.parametrize(
        "geometry",
        [
            {},
            dict(word_bits=64, vector_bits=4),
            dict(vector_bits=3, saturation_fill=0.5),
        ],
        ids=["default", "64bit-v4", "v3-sat2"],
    )
    def test_identical_on_single_flow_trace(
        self, single_flow_trace, layout, geometry
    ):
        scalar_engine, _ = _run(
            single_flow_trace, _config(engine="scalar", **geometry)
        )
        batched_engine, _ = _run(
            single_flow_trace, _config(engine="batched", **geometry), layout
        )
        assert batched_engine.regulator.stats.insertions > 0
        _assert_identical(scalar_engine, batched_engine)

    @pytest.mark.parametrize("chunk_size", [7, 64])
    @pytest.mark.parametrize(
        "replay",
        [{}, dict(vector_bits=3, saturation_fill=0.5)],
        ids=["quad", "single"],
    )
    def test_identical_with_large_l1_and_small_chunks(
        self, trace, replay, chunk_size
    ):
        # 2**16 L1 words and a few dozen packets per call: each call
        # gathers a handful of touched words out of a large sketch and
        # writes only those back, four packets per replay lookup or one.
        geometry = dict(
            l1_memory_bytes=(1 << 16) * 4, chunk_size=chunk_size, **replay
        )
        scalar_engine, _ = _run(trace, _config(engine="scalar", **geometry))
        kernel_engine, _ = _run(trace, _config(engine="batched", **geometry))
        assert kernel_engine.regulator.l1.num_words == 1 << 16
        assert kernel_engine.regulator.stats.insertions > 0
        _assert_identical(scalar_engine, kernel_engine)
        scalar_snapshot = capture_engine(scalar_engine)
        kernel_snapshot = replace(
            capture_engine(kernel_engine), config=scalar_snapshot.config
        )
        assert to_bytes(kernel_snapshot) == to_bytes(scalar_snapshot)

    def test_callbacks_fire_identically(self, trace, layout):
        scalar_calls: list = []
        batched_calls: list = []
        scalar_engine = InstaMeasure(_config(engine="scalar"))
        scalar_engine.process_trace(
            trace, on_accumulate=lambda *args: scalar_calls.append(args)
        )
        batched_engine = InstaMeasure(_config(engine="batched"))
        batched_engine.wsaf = _flat_table(_config(), layout)
        batched_engine.process_trace(
            trace, on_accumulate=lambda *args: batched_calls.append(args)
        )
        assert scalar_calls == batched_calls
        assert len(scalar_calls) > 0

    def test_empty_trace(self, trace):
        empty = trace.time_slice(-2.0, -1.0)
        assert empty.num_packets == 0
        scalar_engine, _ = _run(empty, _config(engine="scalar"))
        for layout in ("batched", "scalar"):
            engine, result = _run(empty, _config(engine="batched"), layout)
            assert result.packets == 0
            assert result.insertions == 0
            _assert_identical(scalar_engine, engine)


#: The non-flat WSAF backends the kernel feeds.
_BACKENDS = ("tiered", "icebuckets")

#: A small hot cache and a short tick interval, so promotions and
#: demotions land mid-chunk rather than once per run.
_TIER_GEOMETRY = dict(tier_cache_entries=64, tier_interval=64)


def _assert_identical_on_backends(some_trace, **overrides) -> int:
    """The kernel matches the scalar engine on every non-flat backend.

    Returns the WSAF insertion count, which every backend shares.
    """
    insertions = 0
    for backend in _BACKENDS:
        storage = dict(wsaf_backend=backend, **_TIER_GEOMETRY, **overrides)
        scalar_engine, scalar_result = _run(
            some_trace, _config(engine="scalar", **storage)
        )
        kernel_engine, kernel_result = _run(
            some_trace, _config(engine="batched", **storage)
        )
        assert (
            scalar_result.packets == kernel_result.packets == some_trace.num_packets
        )
        assert scalar_result.insertions == kernel_result.insertions
        _assert_identical(scalar_engine, kernel_engine)
        # The snapshot also carries the tier section (hot cache, heat
        # counts, promote/demote tallies) and the ICE scales, slot-exact.
        # Only the engine knobs in the config may differ.
        scalar_snapshot = capture_engine(scalar_engine)
        kernel_snapshot = replace(
            capture_engine(kernel_engine), config=scalar_snapshot.config
        )
        assert to_bytes(kernel_snapshot) == to_bytes(scalar_snapshot)
        insertions = kernel_result.insertions
    return insertions


class TestEdgeGeometryOnBackends:
    """The degenerate geometries with the WSAF storage swapped out.

    :class:`TestBitIdenticality` pins narrow vectors, 64-bit words,
    one-packet chunks and the empty trace on the flat table; the same
    scalar oracle must hold when the kernel feeds the tiered store or
    ICE-Buckets instead.
    """

    @pytest.mark.parametrize("vector_bits", [3, 4, 5])
    def test_narrow_vectors(self, trace, vector_bits):
        _assert_identical_on_backends(trace, vector_bits=vector_bits)

    @pytest.mark.parametrize("vector_bits", [3, 8])
    def test_64bit_words(self, trace, vector_bits):
        _assert_identical_on_backends(
            trace, word_bits=64, vector_bits=vector_bits
        )

    def test_one_packet_chunks(self, trace):
        # chunk_size=1: every chunk is a single one-packet stretch.  The
        # slice is long enough that flows reach the working set.
        small = trace.time_slice(0.0, 2.0)
        assert _assert_identical_on_backends(small, chunk_size=1) > 0

    def test_empty_trace(self, trace):
        empty = trace.time_slice(-2.0, -1.0)
        assert empty.num_packets == 0
        assert _assert_identical_on_backends(empty) == 0


def replace_engine(config: InstaMeasureConfig, engine: str) -> InstaMeasureConfig:
    """A copy of ``config`` running on ``engine``."""
    return replace(config, engine=engine)


class TestEngineGating:
    def test_batched_rejects_wide_vectors(self):
        with pytest.raises(ConfigurationError):
            InstaMeasure(_config(engine="batched", vector_bits=16, word_bits=32))

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            InstaMeasure(_config(engine="turbo"))

    def test_zero_chunk_size_rejected(self):
        with pytest.raises(ConfigurationError):
            InstaMeasure(_config(chunk_size=0))


class TestKernelTables:
    def test_single_table_brute_force(self):
        """Transitions must match naive set-bit-then-check-saturation."""
        vector_bits, saturation_bits = 5, 4
        single = kernel_tables(vector_bits, saturation_bits)
        for state in range(1 << vector_bits):
            for bit in range(vector_bits):
                merged = state | (1 << bit)
                set_bits = bin(merged).count("1")
                if set_bits >= saturation_bits:
                    expected = SENTINEL + (vector_bits - set_bits)
                else:
                    expected = merged
                assert single[state][bit] == expected

    @staticmethod
    def _quad_reference(single, state: int, code: int) -> int:
        """Four single-packet steps: the first saturation's position and
        noise, then the remaining packets from an empty window."""
        saturation = None
        for pos in range(4):
            state = single[state][(code >> (3 * pos)) & 7]
            if state >= SENTINEL:
                if saturation is None:
                    saturation = (pos << 3) | (state - SENTINEL)
                state = 0
        if saturation is None:
            return state
        return SENTINEL + (saturation << 8) + state

    @pytest.mark.parametrize(
        "vector_bits,saturation_bits,sampled",
        [(5, 4, False), (8, 4, True), (8, 6, True)],
    )
    def test_quad_table_matches_four_single_steps(
        self, vector_bits, saturation_bits, sampled
    ):
        """The kernel's hot replay indexes this table; pin every entry
        (or a seeded sample of codes per state) to the single steps."""
        single = kernel_tables(vector_bits, saturation_bits)
        quad = quad_tables(vector_bits, saturation_bits)
        valid = [
            code
            for code in range(1 << 12)
            if all((code >> (3 * pos)) & 7 < vector_bits for pos in range(4))
        ]
        if sampled:
            rng = np.random.default_rng(vector_bits * 16 + saturation_bits)
            valid = rng.choice(valid, size=256, replace=False).tolist()
        for state in range(1 << vector_bits):
            for code in valid:
                assert quad[(state << 12) | code] == self._quad_reference(
                    single, state, code
                ), (state, code)

    def test_quad_table_build_memory_is_bounded(self, monkeypatch):
        """The blocked build keeps its transient arrays a fraction of the
        2 MiB table (the one-shot build peaked at 22 MiB)."""
        import tracemalloc

        from repro.kernels import luts

        monkeypatch.setattr(luts, "_CACHE", {})
        monkeypatch.setattr(luts, "_QUAD_CACHE", {})
        tracemalloc.start()
        try:
            quad_tables(8, 6)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20

    def test_geometry_tables_add_quad_from_four_saturation_bits(self):
        for saturation_bits in (3, 4):
            single, quad = geometry_tables(8, saturation_bits)
            assert single is kernel_tables(8, saturation_bits)
            if saturation_bits < 4:
                assert quad is None
            else:
                assert quad is quad_tables(8, saturation_bits)

    def test_quad_table_needs_four_saturation_bits(self):
        with pytest.raises(ConfigurationError):
            quad_tables(8, 3)

    def test_rejects_unsupported_geometry(self):
        with pytest.raises(ConfigurationError):
            kernel_tables(vector_bits=9, saturation_bits=6)
        with pytest.raises(ConfigurationError):
            kernel_tables(vector_bits=8, saturation_bits=0)


class TestResultSemantics:
    def test_results_report_per_run_deltas(self, trace):
        """Satellite fix: a second run must not re-report the first's work."""
        for engine_name in ("scalar", "batched"):
            engine = InstaMeasure(_config(engine=engine_name))
            first = engine.process_trace(trace)
            second = engine.process_trace(trace)
            assert first.packets == trace.num_packets
            assert second.packets == trace.num_packets  # not 2x
            assert second.regulator_stats.packets == trace.num_packets
            # Cumulative totals still live on the regulator itself.
            assert engine.regulator.stats.packets == 2 * trace.num_packets

    def test_occupied_slot_set_consistency(self, trace):
        """Sweeps, size and the occupancy column agree after heavy churn."""
        engine, _ = _run(
            trace, _config(engine="batched", wsaf_entries=16, probe_limit=4)
        )
        table = engine.wsaf
        occupied = np.flatnonzero(table._occupied)
        assert len(list(table.entries())) == table.size == occupied.size
        assert [entry.key for entry in table.entries()] == (
            table._keys[occupied].tolist()
        )


class TestPlacementMemo:
    """The kernel places each flow table once per placement: repeated
    calls read the memo, which keeps no table alive."""

    @staticmethod
    def _counted(monkeypatch) -> list:
        """Every ``RCCSketch.place_array`` call from here on, as its
        sketch's ``(num_words, word_bits, seed)`` and key count."""
        from repro.core.rcc import RCCSketch

        calls = []
        original = RCCSketch.place_array

        def place_array(sketch, flow_keys):
            calls.append(
                (sketch.num_words, sketch.word_bits, sketch._place_seed_idx, len(flow_keys))
            )
            return original(sketch, flow_keys)

        monkeypatch.setattr(RCCSketch, "place_array", place_array)
        return calls

    @staticmethod
    def _copy(trace, key64=None):
        """``trace``'s packets over a table of its own (or of other keys)."""
        from repro.traffic.packet import FlowTable, Trace

        flows = trace.flows
        table = FlowTable(
            flows.src_ip, flows.dst_ip, flows.src_port, flows.dst_port,
            flows.protocol, hash_seed=flows.hash_seed,
        )
        if key64 is not None:
            table.key64 = key64
        return Trace(trace.timestamps, trace.flow_ids, trace.sizes, table)

    def test_one_table_is_placed_once_per_placement(self, trace, monkeypatch):
        from repro.pipeline import Pipeline, TraceChunkSource

        trace = self._copy(trace)
        calls = self._counted(monkeypatch)
        engines = {}
        for name, config in [
            ("first", _config(engine="batched")),
            ("same placement", _config(engine="batched")),
            ("other seed", _config(engine="batched", seed=1)),
            ("other geometry", _config(engine="batched", l1_memory_bytes=4096)),
        ]:
            engines[name] = InstaMeasure(config)
            Pipeline(engines[name]).run(TraceChunkSource(trace, chunk_size=700))
        assert len(TraceChunkSource(trace, chunk_size=700)) > 10
        # One placement each for the first engine, the other seed and the
        # other geometry; the second engine of the first placement reads it.
        assert len(calls) == 3
        assert len(set(calls)) == 3
        assert {count for *_placement, count in calls} == {trace.num_flows}
        scalar, _ = _run(trace, _config(engine="scalar"))
        _assert_identical(scalar, engines["same placement"])

    def test_another_table_or_key_column_is_placed_again(self, trace, monkeypatch):
        config = _config(engine="batched")
        first = self._copy(trace)
        calls = self._counted(monkeypatch)
        InstaMeasure(config).process_trace(first)
        InstaMeasure(config).process_trace(first)
        assert len(calls) == 1
        # Another table with the same keys, and one with other keys.
        InstaMeasure(config).process_trace(self._copy(trace))
        other_keys = self._copy(trace, key64=first.flows.key64[::-1].copy())
        engine = InstaMeasure(config)
        engine.process_trace(other_keys)
        assert len(calls) == 3
        # A table whose key column is replaced is placed again, never
        # read from the entry of its old keys.
        first.flows.key64 = other_keys.flows.key64.copy()
        replaced = InstaMeasure(config)
        replaced.process_trace(first)
        assert len(calls) == 4
        _assert_identical(engine, replaced)

    def test_a_dropped_table_leaves_the_memo(self, trace):
        import gc
        import weakref

        from repro.kernels.batched import _PLACEMENTS

        gc.collect()
        before = len(_PLACEMENTS)
        copy = self._copy(trace)
        InstaMeasure(_config(engine="batched")).process_trace(copy)
        assert copy.flows in _PLACEMENTS
        assert len(_PLACEMENTS) == before + 1
        table = weakref.ref(copy.flows)
        del copy
        gc.collect()
        assert table() is None
        assert len(_PLACEMENTS) == before
