"""Property tests for the batch-probed array-backed WSAF and the
vectorized satellites that feed it.

The contract of :class:`repro.kernels.wsaf_batched.BatchedWSAFTable` is
*slot-for-slot identity* with the scalar :class:`repro.core.wsaf.WSAFTable`:
after applying the same event stream, every column (occupancy, keys,
packets, bytes, timestamps, second-chance bits, packed tuples), every
counter, and every per-event running total must match exactly — for every
eviction policy, with GC on and off, under eviction pressure, and under
adversarial cohorts engineered to land in one probe window.  The same
standard applies to the vectorized hashing paths and the run-length
SpaceSaving / matrix CSM feeds: vectorization is an execution strategy,
never a semantics change.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.csm import CSMSketch
from repro.baselines.spacesaving import SpaceSaving
from repro.core.wsaf import WSAFTable
from repro.hashing.family import HashFamily
from repro.hashing.tabulation import TabulationHash
from repro.kernels.wsaf_batched import _SCALAR_CUTOFF, BatchedWSAFTable
from repro.traffic.synth import CaidaLikeConfig, build_caida_like_trace

POLICIES = WSAFTable.EVICTION_POLICIES


def _random_events(seed, n, key_space, with_tuples=True):
    """A reproducible event stream: (key, pkts, bytes, stamp, tuple)."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(1, key_space, size=n, dtype=np.uint64)
    pkts = rng.integers(1, 40, size=n).astype(np.float64)
    byts = pkts * rng.integers(40, 1500, size=n).astype(np.float64)
    stamps = np.cumsum(rng.random(n) * 0.3)
    tuples = (
        [(int(k) << 16) | 0xBEEF for k in keys.tolist()]
        if with_tuples
        else [None] * n
    )
    return list(
        zip(keys.tolist(), pkts.tolist(), byts.tolist(), stamps.tolist(), tuples)
    )


def _apply(table, events, chunk=None, collect_totals=True):
    """Feed ``events`` through a table, optionally split into batches."""
    totals = []
    chunk = chunk or len(events)
    for start in range(0, len(events), chunk):
        part = events[start : start + chunk]
        if isinstance(table, BatchedWSAFTable):
            out = table.accumulate_batch_arrays(
                np.array([e[0] for e in part], dtype=np.uint64),
                np.array([e[1] for e in part], dtype=np.float64),
                np.array([e[2] for e in part], dtype=np.float64),
                np.array([e[3] for e in part], dtype=np.float64),
                [e[4] for e in part],
                collect_totals=collect_totals,
            )
            if collect_totals:
                totals.extend(out)
        else:
            totals.extend(table.accumulate_batch(part))
    return totals


def _assert_slots_identical(scalar: WSAFTable, batched: BatchedWSAFTable):
    """Every slot, column, and counter must match exactly."""
    assert list(scalar._occupied) == batched._occupied.tolist()
    assert scalar._occupied_slots == set(
        np.flatnonzero(batched._occupied).tolist()
    )
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
    assert scalar.estimates() == batched.estimates()


def _pair(num_entries=1 << 8, **kwargs):
    scalar = WSAFTable(num_entries=num_entries, **kwargs)
    batched = BatchedWSAFTable(num_entries=num_entries, **kwargs)
    return scalar, batched


class TestSlotForSlotIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 17])
    def test_identity_across_seeds(self, seed):
        scalar, batched = _pair()
        events = _random_events(seed, 3000, key_space=1 << 20)
        totals_s = _apply(scalar, events)
        totals_b = _apply(batched, events, chunk=512)
        assert totals_s == totals_b
        _assert_slots_identical(scalar, batched)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_identity_under_eviction_pressure(self, policy):
        # 64 slots, probe window 4, far more flows than capacity: the
        # eviction path runs constantly for every policy.
        scalar, batched = _pair(
            num_entries=64, probe_limit=4, eviction_policy=policy
        )
        events = _random_events(5, 4000, key_space=1 << 16)
        totals_s = _apply(scalar, events)
        totals_b = _apply(batched, events, chunk=256)
        assert totals_s == totals_b
        _assert_slots_identical(scalar, batched)
        assert (
            batched.evictions > 0
            if policy != "reject"
            else batched.rejected > 0
        )

    @pytest.mark.parametrize("gc_timeout", [None, 2.0])
    def test_identity_with_gc(self, gc_timeout):
        scalar, batched = _pair(
            num_entries=128, probe_limit=8, gc_timeout=gc_timeout
        )
        # Long stream with advancing stamps so entries expire mid-stream.
        events = _random_events(9, 6000, key_space=1 << 14)
        totals_s = _apply(scalar, events)
        totals_b = _apply(batched, events, chunk=512)
        assert totals_s == totals_b
        _assert_slots_identical(scalar, batched)
        if gc_timeout is not None:
            assert batched.gc_reclaimed > 0

    def test_identity_adversarial_same_window_cohorts(self):
        # Every key hashes to the same base slot (key & mask identical), so
        # every cohort's probe window collides with every other's and the
        # conflict fixpoint must demote the whole batch to the scalar path.
        num_entries = 256
        scalar, batched = _pair(num_entries=num_entries, probe_limit=8)
        rng = np.random.default_rng(3)
        base = 7
        events = []
        stamp = 0.0
        for i in range(600):
            key = base + num_entries * int(rng.integers(1, 40))
            stamp += 0.01
            events.append((key, 2.0 + i % 5, 100.0, stamp, key << 4))
        totals_s = _apply(scalar, events)
        totals_b = _apply(batched, events, chunk=200)
        assert totals_s == totals_b
        _assert_slots_identical(scalar, batched)

    def test_identity_heavy_duplicate_cohorts(self):
        # One flow dominates the batch: within-cohort running totals must
        # still come out in event order (float addition is not associative),
        # and the long add-chain exercises the position-walk path.
        scalar, batched = _pair(num_entries=1 << 10)
        rng = np.random.default_rng(21)
        hot = 12345
        events = []
        stamp = 0.0
        for i in range(9000):
            stamp += 0.001
            if rng.random() < 0.7:
                key = hot
            else:
                key = int(rng.integers(1, 1 << 18))
            events.append((key, 0.1 * (i % 7 + 1), 33.3, stamp, None))
        totals_s = _apply(scalar, events)
        totals_b = _apply(batched, events, chunk=9000)
        assert totals_s == totals_b
        _assert_slots_identical(scalar, batched)

    @pytest.mark.parametrize(
        "size,batch_probed",
        [(_SCALAR_CUTOFF - 1, False), (_SCALAR_CUTOFF, True)],
        ids=["below-cutoff", "at-cutoff"],
    )
    def test_small_batches_take_scalar_path(self, monkeypatch, size, batch_probed):
        plans = []
        build_plan = BatchedWSAFTable._build_batch_plan

        def spy(table, *args):
            plans.append(len(args[0]))
            return build_plan(table, *args)

        monkeypatch.setattr(BatchedWSAFTable, "_build_batch_plan", spy)
        scalar, batched = _pair()
        events = _random_events(2, size, key_space=1 << 10)
        totals_s = _apply(scalar, events)
        totals_b = _apply(batched, events)
        assert plans == ([size] if batch_probed else [])
        assert totals_s == totals_b
        _assert_slots_identical(scalar, batched)

    def test_identity_cases_feed_batches_above_the_cutoff(self):
        # The cases above feed batches of 200 to 9,000 events; below the
        # cutoff they would test the per-event branch instead.
        assert _SCALAR_CUTOFF < 200

    def test_accumulate_batch_tuple_form_matches_arrays(self):
        a = BatchedWSAFTable(num_entries=1 << 8)
        b = BatchedWSAFTable(num_entries=1 << 8)
        events = _random_events(4, 2000, key_space=1 << 16)
        totals_a = a.accumulate_batch(events)
        totals_b = _apply(b, events, chunk=500)
        assert totals_a == totals_b
        _assert_slots_identical(a, b)

    def test_collect_totals_false_same_state_and_callbacks(self):
        with_totals = BatchedWSAFTable(num_entries=1 << 8)
        without = BatchedWSAFTable(num_entries=1 << 8)
        events = _random_events(6, 2500, key_space=1 << 16)
        seen_a, seen_b = [], []
        for start in range(0, len(events), 500):
            part = events[start : start + 500]
            cols = (
                np.array([e[0] for e in part], dtype=np.uint64),
                np.array([e[1] for e in part], dtype=np.float64),
                np.array([e[2] for e in part], dtype=np.float64),
                np.array([e[3] for e in part], dtype=np.float64),
                [e[4] for e in part],
            )
            totals = with_totals.accumulate_batch_arrays(
                *cols, lambda *args: seen_a.append(args)
            )
            out = without.accumulate_batch_arrays(
                *cols, lambda *args: seen_b.append(args), collect_totals=False
            )
            assert out is None
            assert totals is not None
        assert seen_a == seen_b
        assert with_totals.estimates() == without.estimates()
        assert with_totals.size == without.size


class TestEstimatesFilter:
    @pytest.mark.parametrize("cls", [WSAFTable, BatchedWSAFTable])
    def test_flow_keys_filter_matches_full_snapshot(self, cls):
        table = cls(num_entries=1 << 8)
        events = _random_events(8, 1500, key_space=1 << 12)
        if isinstance(table, BatchedWSAFTable):
            _apply(table, events, chunk=300)
        else:
            _apply(table, events)
        full = table.estimates()
        present = list(full)[::3]
        missing = [k for k in range(1 << 22, (1 << 22) + 50)]
        queried = table.estimates(flow_keys=present + missing)
        assert queried == {k: full[k] for k in present}

    @pytest.mark.parametrize("cls", [WSAFTable, BatchedWSAFTable])
    def test_empty_flow_keys(self, cls):
        table = cls(num_entries=1 << 6)
        _apply(table, _random_events(1, 100, key_space=1 << 8))
        assert table.estimates(flow_keys=[]) == {}

    def test_filter_accepts_ndarray(self):
        table = BatchedWSAFTable(num_entries=1 << 8)
        _apply(table, _random_events(12, 1000, key_space=1 << 12), chunk=250)
        full = table.estimates()
        keys = np.array(list(full)[:20], dtype=np.uint64)
        assert table.estimates(flow_keys=keys) == {
            int(k): full[int(k)] for k in keys
        }


class TestVectorizedHashing:
    def test_tabulation_hash_many_matches_scalar(self):
        hasher = TabulationHash(seed=5)
        keys = np.random.default_rng(5).integers(
            0, 1 << 64, size=4096, dtype=np.uint64
        )
        expected = [hasher.hash(int(k)) for k in keys.tolist()]
        assert hasher.hash_many(keys).tolist() == expected

    def test_family_hash_array_matches_scalar(self):
        family = HashFamily(size=5, seed=3)
        values = np.random.default_rng(3).integers(
            0, 1 << 32, size=2048, dtype=np.uint64
        )
        for index in range(5):
            expected = [family.hash(index, int(v)) for v in values.tolist()]
            assert family.hash_array(index, values).tolist() == expected

    def test_family_hash_matrix_matches_scalar(self):
        family = HashFamily(size=4, seed=11)
        values = np.random.default_rng(11).integers(
            0, 1 << 32, size=512, dtype=np.uint64
        )
        matrix = family.hash_matrix(values)
        assert matrix.shape == (values.size, 4)
        for index in range(4):
            assert matrix[:, index].tolist() == [
                family.hash(index, int(v)) for v in values.tolist()
            ]


class TestVectorizedBaselineFeeds:
    @pytest.fixture(scope="class")
    def trace(self):
        return build_caida_like_trace(
            CaidaLikeConfig(num_flows=800, duration=4.0, seed=13)
        )

    def test_spacesaving_run_length_equivalent(self, trace):
        vectorized = SpaceSaving(capacity=128)
        vectorized.process_trace(trace)
        reference = SpaceSaving(capacity=128)
        keys = trace.flows.key64.tolist()
        for flow in trace.flow_ids.tolist():
            reference.offer(keys[flow])
        assert vectorized._counts == reference._counts
        assert vectorized._errors == reference._errors
        assert vectorized.packets == reference.packets == trace.num_packets
        assert vectorized.topk(32) == reference.topk(32)

    def test_spacesaving_offer_run_equals_unit_offers(self):
        bulk = SpaceSaving(capacity=4)
        unit = SpaceSaving(capacity=4)
        stream = [(1, 5), (2, 3), (3, 4), (4, 2), (5, 6), (1, 2)]
        for key, count in stream:
            bulk.offer(key, count)
            for _ in range(count):
                unit.offer(key)
        assert bulk._counts == unit._counts
        assert bulk._errors == unit._errors

    def test_csm_placement_matrix_matches_scalar(self, trace):
        sketch = CSMSketch(memory_bytes=1 << 14, seed=7)
        locations = sketch._flow_counters_array(trace.flows.key64)
        for flow in range(0, locations.shape[0], 37):
            key = int(trace.flows.key64[flow])
            assert locations[flow].tolist() == sketch.flow_counters(key)

    def test_csm_encode_trace_matches_scalar_encodes(self, trace):
        vectorized = CSMSketch(memory_bytes=1 << 14, seed=7)
        vectorized.encode_trace(trace)
        reference = CSMSketch(memory_bytes=1 << 14, seed=7)
        # Same per-packet counter choices the vectorized path draws.
        rng = np.random.default_rng(reference.seed ^ 0xC5A)
        choices = rng.integers(
            0,
            reference.counters_per_flow,
            size=trace.num_packets,
            dtype=np.int64,
        )
        keys = trace.flows.key64.tolist()
        for i, flow in enumerate(trace.flow_ids.tolist()):
            reference.encode(keys[flow], int(choices[i]))
        assert np.array_equal(vectorized.pool, reference.pool)
        assert vectorized.total_packets == reference.total_packets
