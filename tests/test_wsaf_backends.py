"""Tiered and compressed WSAF storage backends.

The contracts under test are the backend seam's guarantees:

* Backend selection: ``wsaf_backend`` picks the storage algorithm, the
  flat table is batch-probed under every engine, the other backends
  take no batch probing, every table keeps its per-slot columns out of
  the garbage collector's reach, and every backend satisfies the
  :class:`~repro.core.wsaf_storage.WSAFStorage` protocol.
* The tiered store is lossless: with a roomy table its estimates equal
  the flat table's exactly, while the hot cache absorbs accumulates at
  SRAM cost (visible through the accountant's per-label pricing).
* Tiered snapshots round-trip bit-exactly through IMSNAP — including
  mid-interval heat state — and a *flat* table can restore a tiered
  snapshot by flushing the cache records into its slots.
* ICE-Buckets counters cost measurably less memory at a bounded
  relative error, and restore exactly through a snapshot (the float
  columns hold exact dequantized values; only scales ride in the
  ``ice`` section).
* Sharded ingestion with a tiered backend still merges exactly.
"""

from __future__ import annotations

import gc

import pytest

from repro.core import (
    InstaMeasure,
    InstaMeasureConfig,
    IceBucketsWSAFTable,
    TieredWSAFTable,
    WSAFStorage,
    WSAFTable,
    build_wsaf_storage,
    default_technologies,
)
from repro.errors import ConfigurationError
from repro.kernels import runs_kernel
from repro.kernels.wsaf_batched import BatchedWSAFTable
from repro.memmodel import DRAM, SRAM, AccessAccountant
from repro.state import capture_engine, from_bytes, restore_engine, to_bytes
from repro.traffic import CaidaLikeConfig, build_caida_like_trace


@pytest.fixture(scope="module")
def trace():
    return build_caida_like_trace(
        CaidaLikeConfig(num_flows=900, duration=6.0, seed=13)
    )


def _config(backend: str, **overrides) -> InstaMeasureConfig:
    base = dict(
        l1_memory_bytes=2 * 1024,
        wsaf_entries=1 << 12,
        seed=3,
        wsaf_backend=backend,
    )
    base.update(overrides)
    return InstaMeasureConfig(**base)


def _measured(trace, backend: str, **overrides) -> InstaMeasure:
    engine = InstaMeasure(_config(backend, **overrides))
    engine.process_trace(trace)
    return engine


class TestBackendSelection:
    def test_flat_scalar_builds_wsaf_table(self):
        # The batch-probed one: the scalar loop calls only its per-event
        # ``accumulate``.
        table = build_wsaf_storage(_config("flat", engine="scalar"))
        assert isinstance(table, WSAFTable)
        assert type(table) is BatchedWSAFTable

    def test_flat_batched_builds_batched_table(self):
        table = build_wsaf_storage(_config("flat", engine="batched"))
        assert type(table) is BatchedWSAFTable

    def test_tiered_and_ice_build_their_tables(self):
        tiered = build_wsaf_storage(_config("tiered", engine="scalar"))
        assert type(tiered) is TieredWSAFTable
        assert type(tiered.table) is WSAFTable
        assert (
            type(build_wsaf_storage(_config("icebuckets", engine="scalar")))
            is IceBucketsWSAFTable
        )

    @pytest.mark.parametrize("backend", ["flat", "tiered", "icebuckets"])
    def test_every_backend_satisfies_the_protocol(self, backend):
        assert isinstance(build_wsaf_storage(_config(backend)), WSAFStorage)

    def test_tiered_resolves_batched_under_auto(self):
        # The default 2-layer / 8-bit configuration runs the batched
        # kernel under ``auto``; the tiered store it feeds keeps a plain
        # backing table and takes one ``accumulate_batch`` call per chunk.
        config = _config("tiered")
        assert runs_kernel(config)
        table = InstaMeasure(config).wsaf
        assert type(table.table) is WSAFTable
        assert not hasattr(table, "accumulate_batch_arrays")

    def test_icebuckets_resolves_scalar_under_auto(self):
        # ICE-Buckets' quantized add chains are order-serial, so it takes
        # no batch probing, under ``auto`` as under every engine.
        config = _config("icebuckets")
        table = InstaMeasure(config).wsaf
        assert type(table) is IceBucketsWSAFTable
        assert not hasattr(table, "accumulate_batch_arrays")

    @pytest.mark.parametrize("engine", ["batched", "scalar"])
    def test_non_flat_backends_take_no_batch_probing(self, engine):
        tiered = build_wsaf_storage(_config("tiered", engine=engine))
        assert type(tiered.table) is WSAFTable
        ice = build_wsaf_storage(_config("icebuckets", engine=engine))
        for table in (tiered, ice):
            assert not hasattr(table, "accumulate_batch_arrays")

    @pytest.mark.parametrize(
        "overrides, kernel",
        [
            (dict(), True),
            (dict(vector_bits=16, word_bits=32), False),
            (dict(engine="scalar"), False),
        ],
        ids=["auto", "wide", "scalar"],
    )
    def test_flat_is_batch_probed_under_every_engine(self, overrides, kernel):
        config = _config("flat", **overrides)
        assert runs_kernel(config) is kernel
        assert type(InstaMeasure(config).wsaf) is BatchedWSAFTable

    @pytest.mark.parametrize("engine", ["scalar", "auto"])
    @pytest.mark.parametrize("backend", ["flat", "tiered", "icebuckets"])
    def test_only_the_tuple_column_is_a_python_container(self, backend, engine):
        """Every per-slot column but the 104-bit tuples is a NumPy buffer
        (or a memoryview of one), which the garbage collector never walks
        slot by slot: flat, the tiered backing table, and ICE-Buckets with
        its quantized planes."""
        config = _config(backend, engine=engine)
        store = build_wsaf_storage(config)
        table = store.table if backend == "tiered" else store
        walked = [
            name
            for name, value in vars(table).items()
            if gc.is_tracked(value)
            and len(gc.get_referents(value)) >= config.wsaf_entries
        ]
        assert walked == ["_tuples"]

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ConfigurationError, match="wsaf_backend"):
            _config("bogus")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tier_cache_entries", 0),
            ("tier_interval", 0),
            ("ice_bucket_slots", 0),
            ("ice_counter_bits", 1),
            ("ice_counter_bits", 64),
        ],
    )
    def test_backend_knobs_are_validated(self, field, value):
        with pytest.raises(ConfigurationError):
            _config("flat", **{field: value})

    def test_default_technologies_price_the_cache_in_sram(self):
        technologies = default_technologies()
        assert technologies["wsaf.cache"] is SRAM


class TestTieredSemantics:
    def test_estimates_match_flat_exactly(self, trace):
        """Tiering is lossless: same per-flow sums as the flat table."""
        flat = _measured(trace, "flat")
        tiered = _measured(trace, "tiered", tier_interval=64)
        assert tiered.wsaf.table.evictions == 0  # roomy table: no loss
        assert tiered.estimates() == flat.estimates()

    def test_cache_warms_and_absorbs_hits(self, trace):
        engine = _measured(
            trace, "tiered", tier_cache_entries=64, tier_interval=64
        )
        wsaf = engine.wsaf
        assert wsaf.promotions > 0
        assert len(wsaf._cache) > 0
        assert wsaf.cache_hit_rate > 0.0
        assert wsaf.cache_updates > 0

    def test_facade_counters_cover_both_tiers(self, trace):
        wsaf = _measured(
            trace, "tiered", tier_cache_entries=64, tier_interval=64
        ).wsaf
        assert wsaf.size == wsaf.table.size + len(wsaf._cache)
        assert wsaf.updates == wsaf.table.updates + wsaf.cache_updates
        assert len(wsaf) == wsaf.size
        assert wsaf.memory_bytes() == (
            wsaf.table.memory_bytes() + wsaf.cache_memory_bytes()
        )

    def test_lookup_and_remove_span_both_tiers(self):
        table = TieredWSAFTable(
            num_entries=1 << 6, cache_entries=2, tier_interval=4
        )
        # Four accumulates trigger one tick; key 1 (hottest) promotes.
        for _ in range(3):
            table.accumulate(1, 1.0, 100.0, 0.5)
        table.accumulate(2, 1.0, 100.0, 0.6)
        assert 1 in table._cache
        hot = table.lookup(1)
        assert hot is not None and hot.packets == 3.0
        cold = table.lookup(2)
        assert cold is not None and cold.packets == 1.0

        removed = table.remove(1)
        assert removed is not None and removed.packets == 3.0
        assert table.lookup(1) is None
        assert table.remove(2) is not None
        assert table.size == 0

    def test_expire_sweeps_the_cache_too(self):
        table = TieredWSAFTable(
            num_entries=1 << 6, cache_entries=2, tier_interval=2
        )
        table.accumulate(1, 1.0, 100.0, 0.0)
        table.accumulate(1, 1.0, 100.0, 0.1)  # tick: 1 promotes
        assert 1 in table._cache
        table.accumulate(2, 1.0, 100.0, 5.0)
        reclaimed = table.expire_older_than(4.0)
        assert reclaimed == 1
        assert table.lookup(1) is None
        assert table.lookup(2) is not None
        assert table.gc_reclaimed >= 1

    def test_cache_hits_price_at_sram(self, trace):
        """Per-label pricing: the tiered run's WSAF stage models faster
        than pricing the same accesses all at DRAM latency."""
        accountant = AccessAccountant(DRAM, technologies=default_technologies())
        engine = InstaMeasure(
            _config("tiered", tier_cache_entries=64, tier_interval=64),
            accountant,
        )
        engine.process_trace(trace)
        by_label = accountant.by_label()
        assert by_label.get("wsaf.cache", 0) > 0
        tiered_s = accountant.modelled_seconds(labels=("wsaf", "wsaf.cache"))
        all_dram = AccessAccountant(DRAM)
        for label in ("wsaf", "wsaf.cache"):
            all_dram.record(label, reads=by_label.get(label, 0))
        assert tiered_s < all_dram.modelled_seconds()


class TestTieredSnapshot:
    def test_bit_exact_round_trip_mid_interval(self, trace):
        # A tick interval that does not divide the op count leaves live
        # heat state at capture; the round trip must carry it.
        engine = _measured(
            trace, "tiered", tier_cache_entries=64, tier_interval=257
        )
        wsaf = engine.wsaf
        assert wsaf.op_count % wsaf.tier_interval != 0
        assert wsaf._hits or wsaf._misses

        snapshot = capture_engine(engine)
        payload = to_bytes(snapshot)
        recovered = from_bytes(payload)
        assert to_bytes(recovered) == payload
        restored = restore_engine(recovered)
        assert to_bytes(capture_engine(restored)) == payload
        back = restored.wsaf
        assert back._cache == wsaf._cache
        assert back._hits == wsaf._hits
        assert back._misses == wsaf._misses
        assert back.op_count == wsaf.op_count
        assert back.promotions == wsaf.promotions
        assert back.demotions == wsaf.demotions

    def test_restored_engine_keeps_measuring_identically(self, trace):
        first = trace.time_slice(0.0, 3.0)
        second = trace.time_slice(3.0, trace.duration + 1.0)
        overrides = dict(tier_cache_entries=64, tier_interval=64)
        straight = InstaMeasure(_config("tiered", **overrides))
        straight.process_trace(first)
        straight.process_trace(second)

        engine = InstaMeasure(_config("tiered", **overrides))
        engine.process_trace(first)
        resumed = restore_engine(from_bytes(to_bytes(capture_engine(engine))))
        resumed.process_trace(second)
        assert resumed.estimates() == straight.estimates()
        assert to_bytes(capture_engine(resumed)) == to_bytes(
            capture_engine(straight)
        )

    def test_flat_table_restores_a_tiered_snapshot(self, trace):
        """A flat consumer flushes the tier section into its own slots."""
        engine = _measured(
            trace, "tiered", tier_cache_entries=64, tier_interval=64
        )
        state = engine.wsaf.export_state()
        assert state.tier is not None and state.tier.num_records > 0
        flat = WSAFTable(
            num_entries=engine.config.wsaf_entries,
            probe_limit=engine.config.probe_limit,
        )
        flat.load_state(state)
        assert flat.estimates() == engine.wsaf.estimates()
        assert flat.size == engine.wsaf.size

    def test_flat_snapshot_has_no_tier_section(self, trace):
        snapshot = capture_engine(_measured(trace, "flat"))
        assert snapshot.wsaf.tier is None
        assert snapshot.wsaf.ice is None


class TestIceBuckets:
    def test_counter_memory_reduction(self):
        flat = WSAFTable(num_entries=1 << 12)
        ice = IceBucketsWSAFTable(num_entries=1 << 12, counter_bits=16)
        assert flat.counter_memory_bytes() == (1 << 12) * 16
        assert ice.counter_memory_bytes() * 2 <= flat.counter_memory_bytes()
        assert ice.memory_bytes() < flat.memory_bytes()

    def test_bounded_relative_error(self, trace):
        flat = _measured(trace, "flat")
        ice = _measured(trace, "icebuckets", ice_counter_bits=16)
        reference = flat.estimates()
        got = ice.estimates()
        assert set(got) == set(reference)
        for key, (true_packets, true_bytes) in reference.items():
            est_packets, est_bytes = got[key]
            assert est_packets == pytest.approx(true_packets, rel=1e-3)
            assert est_bytes == pytest.approx(true_bytes, rel=1e-3)

    def test_small_counters_upscale(self, trace):
        engine = _measured(
            trace, "icebuckets", ice_counter_bits=8, ice_bucket_slots=32
        )
        assert engine.wsaf.upscales > 0

    def test_counters_hold_representable_values(self):
        table = IceBucketsWSAFTable(
            num_entries=1 << 6, bucket_slots=8, counter_bits=8
        )
        for _ in range(300):
            table.accumulate(7, 3.0, 900.0, 0.5)
        entry = table.lookup(7)
        bucket = next(
            slot for slot in table.probe_sequence(7) if table._occupied[slot]
        ) // table.bucket_slots
        scale = table._scale_packets[bucket]
        assert entry.packets == pytest.approx(
            round(entry.packets / (1 << scale)) * (1 << scale)
        )

    def test_exact_round_trip(self, trace):
        engine = _measured(
            trace, "icebuckets", ice_counter_bits=8, ice_bucket_slots=32
        )
        assert engine.wsaf.upscales > 0  # non-trivial scales in the section
        snapshot = capture_engine(engine)
        payload = to_bytes(snapshot)
        restored = restore_engine(from_bytes(payload))
        assert restored.estimates() == engine.estimates()
        assert to_bytes(capture_engine(restored)) == payload
        assert restored.wsaf.upscales == engine.wsaf.upscales
        assert (
            restored.wsaf._scale_packets == engine.wsaf._scale_packets
        )
        assert restored.wsaf._scale_bytes == engine.wsaf._scale_bytes

    def test_flat_table_restores_an_ice_snapshot(self, trace):
        """Dequantized floats are plain records to a flat consumer."""
        engine = _measured(trace, "icebuckets", ice_counter_bits=16)
        state = engine.wsaf.export_state()
        assert state.ice is not None
        flat = WSAFTable(
            num_entries=engine.config.wsaf_entries,
            probe_limit=engine.config.probe_limit,
        )
        flat.load_state(state)
        assert flat.estimates() == engine.wsaf.estimates()


class TestShardedTiered:
    def test_sharded_tiered_merges_exactly(self, trace):
        from repro.pipeline import ShardedPipeline, TraceChunkSource

        config = _config("tiered", tier_cache_entries=64, tier_interval=64)
        single = InstaMeasure(config)
        single.process_trace(trace)
        outcome = ShardedPipeline(config, num_shards=2).run(
            TraceChunkSource(trace), parallel=False
        )
        assert outcome.estimates() == single.estimates()
        # The merged snapshot is flat (tiers folded) and restorable.
        merged = outcome.snapshot
        assert merged.wsaf.tier is None
        assert restore_engine(merged).estimates() == single.estimates()
