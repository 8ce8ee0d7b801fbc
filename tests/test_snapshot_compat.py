"""IMSNAP forward/backward compatibility across the backend seam.

The wire format stayed at version 1 when backend sections were added:
``tier`` / ``ice`` are *additive* optional sections announced in the
header's ``wsaf.sections`` list.  The compatibility contracts:

* A v1 payload with no ``sections`` entry (every pre-backend snapshot,
  and every flat capture today) decodes and restores exactly as before —
  flat headers never mention sections at all.
* A payload announcing a section this decoder does not know must be
  rejected loudly (``SnapshotError``), never silently dropped: the
  unknown section's column bytes would otherwise be misattributed.
* The committed golden snapshots — captured with the pre-refactor flat
  tables — still describe exactly what the current flat backend produces
  on the same trace and config, under both the scalar loop (list
  columns) and the batched kernel (the batch-probed table).  This is the
  bit-identity bar for the ``flat`` backend: same records, same slots,
  same counters, same estimates.
* Every golden still restores through the public restore paths, although
  its embedded config carries the retired ``regulator_replay``,
  ``wsaf_engine`` and ``num_layers`` knobs; a ``num_layers`` other than 2,
  or any other config key the engine does not know, is a
  ``SnapshotError``.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.core import InstaMeasure, InstaMeasureConfig
from repro.errors import SnapshotError
from repro.pipeline.sharded import ShardedStreamingMeasurer
from repro.state import capture_engine, from_bytes, load, to_bytes
from repro.state.codec import MAGIC
from repro.traffic import CaidaLikeConfig, build_caida_like_trace

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: The trace and config the golden snapshots were captured with: a small
#: hot table (1 << 5 entries, probe limit 8) so evictions, GC reclaims,
#: and rejections are all non-zero — the goldens pin the *full* eviction
#: dynamics, not just the happy path.
GOLDEN_TRACE = dict(num_flows=3000, duration=20.0, seed=13)
GOLDEN_CONFIG = dict(
    l1_memory_bytes=256,
    wsaf_entries=1 << 5,
    probe_limit=8,
    seed=3,
    gc_timeout=5.0,
)


def _header_of(payload: bytes) -> dict:
    header_len = int.from_bytes(payload[len(MAGIC) : len(MAGIC) + 8], "little")
    return json.loads(payload[len(MAGIC) + 8 : len(MAGIC) + 8 + header_len])


def _tamper_header(payload: bytes, mutate) -> bytes:
    """Re-encode ``payload`` with ``mutate(header)`` applied."""
    header_len = int.from_bytes(payload[len(MAGIC) : len(MAGIC) + 8], "little")
    body_start = len(MAGIC) + 8 + header_len
    header = json.loads(payload[len(MAGIC) + 8 : body_start].decode())
    mutate(header)
    encoded = json.dumps(header, separators=(",", ":")).encode()
    return (
        MAGIC
        + len(encoded).to_bytes(8, "little")
        + encoded
        + payload[body_start:]
    )


@pytest.fixture(scope="module")
def flat_payload():
    trace = build_caida_like_trace(
        CaidaLikeConfig(num_flows=400, duration=4.0, seed=5)
    )
    engine = InstaMeasure(
        InstaMeasureConfig(l1_memory_bytes=1024, wsaf_entries=1 << 10, seed=3)
    )
    engine.process_trace(trace)
    return to_bytes(capture_engine(engine))


class TestSectionForwardCompat:
    def test_flat_header_is_section_free(self, flat_payload):
        wsaf_meta = _header_of(flat_payload)["wsaf"]
        assert "sections" not in wsaf_meta
        assert "tier" not in wsaf_meta
        assert "ice" not in wsaf_meta

    def test_sectionless_payload_restores_flat_unchanged(self, flat_payload):
        snapshot = from_bytes(flat_payload)
        assert snapshot.wsaf.tier is None
        assert snapshot.wsaf.ice is None
        assert to_bytes(snapshot) == flat_payload

    def test_unknown_section_is_rejected(self, flat_payload):
        tampered = _tamper_header(
            flat_payload,
            lambda header: header["wsaf"].update(sections=["holographic"]),
        )
        with pytest.raises(SnapshotError, match="unknown WSAF section"):
            from_bytes(tampered)

    def test_known_and_unknown_sections_still_reject(self, flat_payload):
        tampered = _tamper_header(
            flat_payload,
            lambda header: header["wsaf"].update(
                sections=["tier", "holographic"]
            ),
        )
        with pytest.raises(SnapshotError, match="unknown WSAF section"):
            from_bytes(tampered)

    def test_announced_section_without_payload_is_rejected(self, flat_payload):
        # A header claiming a tier section whose metadata/columns are
        # missing is a malformed snapshot, not a flat one.
        tampered = _tamper_header(
            flat_payload,
            lambda header: header["wsaf"].update(sections=["tier"]),
        )
        with pytest.raises(SnapshotError):
            from_bytes(tampered)


_WSAF_COUNTERS = (
    "num_entries",
    "probe_limit",
    "eviction_policy",
    "size",
    "insertions",
    "updates",
    "evictions",
    "gc_reclaimed",
    "rejected",
)
_WSAF_COLUMNS = (
    "slots",
    "keys",
    "packets",
    "bytes",
    "timestamps",
    "chance",
    "tuple_lo",
    "tuple_hi",
    "tuple_present",
)


class TestGoldenFlatIdentity:
    """The flat backend is bit-identical to the pre-refactor tables."""

    @pytest.fixture(scope="class")
    def golden_trace(self):
        return build_caida_like_trace(CaidaLikeConfig(**GOLDEN_TRACE))

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_flat_backend_matches_golden(self, golden_trace, engine):
        live = InstaMeasure(InstaMeasureConfig(engine=engine, **GOLDEN_CONFIG))
        live.process_trace(golden_trace)
        current = capture_engine(live)
        got = current.wsaf
        # The two flat goldens were captured from the two WSAF column
        # layouts; the engine must reproduce each of them.
        for name in ("flat_scalar", "flat_batched"):
            golden = load(GOLDEN_DIR / f"{name}.imsnap")
            want = golden.wsaf
            for counter in _WSAF_COUNTERS:
                assert getattr(got, counter) == getattr(want, counter), counter
            for column in _WSAF_COLUMNS:
                assert np.array_equal(
                    getattr(got, column), getattr(want, column)
                ), column
            assert got.tier is None and got.ice is None
            assert current.estimates() == golden.estimates()
            assert current.regulator.packets == golden.regulator.packets
            assert (
                current.regulator.insertions == golden.regulator.insertions
            )

    @pytest.mark.parametrize("layout", ["scalar", "batched"])
    def test_golden_exercises_eviction_dynamics(self, layout):
        golden = load(GOLDEN_DIR / f"flat_{layout}.imsnap")
        assert golden.wsaf.evictions > 0
        assert golden.wsaf.gc_reclaimed > 0
        assert golden.wsaf.rejected > 0


#: Backend geometry the non-flat goldens were captured with — tuned so
#: the backend dynamics (promotions/demotions, upscales) and the table
#: dynamics (evictions, GC reclaims, rejections) are all non-zero.
GOLDEN_BACKENDS = {
    "tiered": dict(wsaf_backend="tiered", tier_cache_entries=4, tier_interval=64),
    "icebuckets": dict(
        wsaf_backend="icebuckets", ice_bucket_slots=8, ice_counter_bits=8
    ),
}


class TestGoldenBackendIdentity:
    """Tiered and ICE backends are pinned per engine by one golden each.

    The goldens were captured under the batched kernel; checking the
    scalar loop against the *same* golden is the cross-engine
    bit-identity contract — same estimates, same eviction/GC order, same
    promote/demote decisions, same upscale points, same tier/ice
    sections.
    """

    @pytest.fixture(scope="class")
    def golden_trace(self):
        return build_caida_like_trace(CaidaLikeConfig(**GOLDEN_TRACE))

    @pytest.mark.parametrize(
        "engine,backend",
        [
            ("scalar", "icebuckets"),
            ("batched", "icebuckets"),
            ("scalar", "tiered"),
            ("batched", "tiered"),
        ],
    )
    def test_backend_matches_golden(self, golden_trace, backend, engine):
        golden = load(GOLDEN_DIR / f"{backend}.imsnap")
        live = InstaMeasure(
            InstaMeasureConfig(
                engine=engine,
                **GOLDEN_CONFIG,
                **GOLDEN_BACKENDS[backend],
            )
        )
        live.process_trace(golden_trace)
        current = capture_engine(live)

        want, got = golden.wsaf, current.wsaf
        for counter in _WSAF_COUNTERS:
            assert getattr(got, counter) == getattr(want, counter), counter
        for column in _WSAF_COLUMNS:
            assert np.array_equal(
                getattr(got, column), getattr(want, column)
            ), column
        if backend == "tiered":
            assert got.ice is None
            for field in (
                "cache_entries",
                "tier_interval",
                "op_count",
                "cache_updates",
                "promotions",
                "demotions",
            ):
                assert getattr(got.tier, field) == getattr(
                    want.tier, field
                ), field
            for column in (
                "keys",
                "packets",
                "bytes",
                "timestamps",
                "chance",
                "tuple_lo",
                "tuple_hi",
                "tuple_present",
                "heat_keys",
                "heat_counts",
            ):
                assert np.array_equal(
                    getattr(got.tier, column), getattr(want.tier, column)
                ), column
        else:
            assert got.tier is None
            for field in ("bucket_slots", "counter_bits", "upscales"):
                assert getattr(got.ice, field) == getattr(
                    want.ice, field
                ), field
            assert np.array_equal(
                got.ice.scale_packets, want.ice.scale_packets
            )
            assert np.array_equal(got.ice.scale_bytes, want.ice.scale_bytes)
        assert current.estimates() == golden.estimates()
        assert current.regulator.packets == golden.regulator.packets
        assert current.regulator.insertions == golden.regulator.insertions

    @pytest.mark.parametrize("backend", sorted(GOLDEN_BACKENDS))
    def test_backend_golden_exercises_dynamics(self, backend):
        golden = load(GOLDEN_DIR / f"{backend}.imsnap")
        assert golden.wsaf.evictions > 0
        assert golden.wsaf.gc_reclaimed > 0
        assert golden.wsaf.rejected > 0
        if backend == "tiered":
            assert golden.wsaf.tier.promotions > 0
            assert golden.wsaf.tier.demotions > 0
        else:
            assert golden.wsaf.ice.upscales > 0


GOLDEN_NAMES = ("flat_scalar", "flat_batched", "tiered", "icebuckets")


class TestGoldenRestore:
    """The goldens restore through the engine and the sharded measurer."""

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_golden_restores_with_retired_key(self, name):
        golden = load(GOLDEN_DIR / f"{name}.imsnap")
        # Captured while the engine still had all three knobs.
        retired = {"regulator_replay", "wsaf_engine", "num_layers"}
        assert retired <= set(golden.config)
        assert golden.config["num_layers"] == 2
        engine = InstaMeasure.from_snapshot(golden)
        assert not retired & set(vars(engine.config))
        assert engine.estimates() == golden.estimates()
        assert engine.regulator.stats.packets == golden.regulator.packets
        sharded = ShardedStreamingMeasurer.from_snapshots([golden])
        assert sharded.engines[0].estimates() == golden.estimates()

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_unknown_config_key_is_rejected(self, name):
        payload = (GOLDEN_DIR / f"{name}.imsnap").read_bytes()
        tampered = from_bytes(
            _tamper_header(
                payload, lambda header: header["config"].update(turbo=True)
            )
        )
        with pytest.raises(SnapshotError, match="turbo"):
            InstaMeasure.from_snapshot(tampered)
        with pytest.raises(SnapshotError, match="turbo"):
            ShardedStreamingMeasurer.from_snapshots([tampered])

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_other_regulator_depth_is_rejected(self, name):
        # The engine runs only the two-layer FlowRegulator: a snapshot
        # recording any other depth names it instead of restoring.
        payload = (GOLDEN_DIR / f"{name}.imsnap").read_bytes()
        tampered = from_bytes(
            _tamper_header(
                payload, lambda header: header["config"].update(num_layers=3)
            )
        )
        with pytest.raises(SnapshotError, match="num_layers 3"):
            InstaMeasure.from_snapshot(tampered)
        with pytest.raises(SnapshotError, match="num_layers 3"):
            ShardedStreamingMeasurer.from_snapshots([tampered])
