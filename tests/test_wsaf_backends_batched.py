"""Property tests for the batch-probed tiered backend.

The contract mirrors ``tests/test_wsaf_batched.py`` for the flat table:
the batched engine is an *execution strategy*, never a semantics change.
Driving the same event stream through the scalar tiered table (one
``accumulate`` per event) and the batched one (chunked
``accumulate_batch_arrays``) must leave bit-identical state — backing
columns, cache contents and promote/demote counters — plus identical
per-event running totals, estimates, and accountant tallies.

The targeted cases pin the coupling points the vectorized path has to
get right: a retier interval landing mid-chunk, eviction pressure, and
degenerate 1-event chunks that ride the scalar fallback.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.wsaf import WSAFTable
from repro.core.wsaf_storage import default_technologies
from repro.core.wsaf_tiered import TieredWSAFTable
from repro.kernels.wsaf_batched import BatchedWSAFTable
from repro.memmodel import DRAM, AccessAccountant


def _random_events(seed, n, key_space):
    """A reproducible event stream: (key, pkts, bytes, stamp, tuple)."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(1, key_space, size=n, dtype=np.uint64)
    pkts = rng.integers(1, 40, size=n).astype(np.float64)
    byts = pkts * rng.integers(40, 1500, size=n).astype(np.float64)
    stamps = np.cumsum(rng.random(n) * 0.3)
    tuples = [(int(k) << 16) | 0xBEEF for k in keys.tolist()]
    return list(
        zip(keys.tolist(), pkts.tolist(), byts.tolist(), stamps.tolist(), tuples)
    )


def _apply_scalar(table, events):
    return [table.accumulate(*event) for event in events]


def _apply_batched(table, events, chunk):
    totals = []
    for start in range(0, len(events), chunk):
        part = events[start : start + chunk]
        totals.extend(
            table.accumulate_batch_arrays(
                np.array([e[0] for e in part], dtype=np.uint64),
                np.array([e[1] for e in part], dtype=np.float64),
                np.array([e[2] for e in part], dtype=np.float64),
                np.array([e[3] for e in part], dtype=np.float64),
                [e[4] for e in part],
            )
        )
    return totals


def _assert_flat_columns_identical(scalar: WSAFTable, batched: BatchedWSAFTable):
    """Every backing-table slot, column, and counter must match exactly."""
    assert list(scalar._occupied) == batched._occupied.tolist()
    assert list(scalar._keys) == batched._keys.tolist()
    assert list(scalar._packets) == batched._packets.tolist()
    assert list(scalar._bytes) == batched._bytes.tolist()
    assert list(scalar._timestamps) == batched._timestamps.tolist()
    assert list(scalar._chance) == batched._chance.tolist()
    assert scalar._tuples == batched._tuples
    assert scalar.size == batched.size
    assert scalar.insertions == batched.insertions
    assert scalar.updates == batched.updates
    assert scalar.evictions == batched.evictions
    assert scalar.gc_reclaimed == batched.gc_reclaimed
    assert scalar.rejected == batched.rejected


# -- tiered ---------------------------------------------------------------


def _tiered_pair(**kwargs):
    kwargs.setdefault("num_entries", 1 << 7)
    kwargs.setdefault("probe_limit", 8)
    kwargs.setdefault("gc_timeout", 5.0)
    tables, accountants = [], []
    for engine in ("scalar", "batched"):
        accountant = AccessAccountant(DRAM, technologies=default_technologies())
        tables.append(
            TieredWSAFTable(
                accountant=accountant, table_engine=engine, **kwargs
            )
        )
        accountants.append(accountant)
    return tables[0], tables[1], accountants


def _assert_tiered_identical(scalar, batched, accountants):
    _assert_flat_columns_identical(scalar.table, batched.table)
    assert scalar._cache == batched._cache
    assert scalar._hits == batched._hits
    assert scalar._misses == batched._misses
    assert scalar.op_count == batched.op_count
    assert scalar.cache_updates == batched.cache_updates
    assert scalar.promotions == batched.promotions
    assert scalar.demotions == batched.demotions
    assert scalar.estimates() == batched.estimates()
    assert accountants[0].by_label() == accountants[1].by_label()


class TestTieredEquivalence:
    @pytest.mark.parametrize("seed,chunk", [(0, 512), (1, 96), (2, 257)])
    def test_identity_across_seeds(self, seed, chunk):
        scalar, batched, accountants = _tiered_pair(
            cache_entries=8, tier_interval=64
        )
        events = _random_events(seed, 3000, key_space=1 << 14)
        assert _apply_scalar(scalar, events) == _apply_batched(
            batched, events, chunk
        )
        _assert_tiered_identical(scalar, batched, accountants)
        assert batched.promotions > 0  # the dynamics actually ran

    def test_retier_lands_mid_chunk(self):
        # Interval 10 with chunk 64: every chunk straddles several retier
        # ticks, and 64 % 10 != 0 keeps the ticks drifting through chunk
        # positions — the segment-splitting path, not the aligned case.
        scalar, batched, accountants = _tiered_pair(
            cache_entries=4, tier_interval=10
        )
        events = _random_events(7, 2000, key_space=1 << 10)
        assert _apply_scalar(scalar, events) == _apply_batched(
            batched, events, chunk=64
        )
        _assert_tiered_identical(scalar, batched, accountants)
        assert batched.promotions > 0
        assert batched.demotions > 0

    def test_single_event_chunks(self):
        scalar, batched, accountants = _tiered_pair(
            cache_entries=4, tier_interval=16
        )
        events = _random_events(11, 400, key_space=1 << 8)
        assert _apply_scalar(scalar, events) == _apply_batched(
            batched, events, chunk=1
        )
        _assert_tiered_identical(scalar, batched, accountants)

    def test_eviction_pressure(self):
        scalar, batched, accountants = _tiered_pair(
            num_entries=1 << 5,
            probe_limit=4,
            cache_entries=4,
            tier_interval=32,
        )
        events = _random_events(3, 4000, key_space=1 << 16)
        assert _apply_scalar(scalar, events) == _apply_batched(
            batched, events, chunk=200
        )
        _assert_tiered_identical(scalar, batched, accountants)
        assert batched.evictions > 0

