"""Tests for flow/packet representations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.traffic import FiveTuple, FlowTable, Trace

FIVE_TUPLES = st.builds(
    FiveTuple,
    src_ip=st.integers(0, 2**32 - 1),
    dst_ip=st.integers(0, 2**32 - 1),
    src_port=st.integers(0, 2**16 - 1),
    dst_port=st.integers(0, 2**16 - 1),
    protocol=st.integers(0, 255),
)


def _field(bits: int):
    """Any ``bits``-wide value, with all-zero and all-ones drawn often."""
    top = (1 << bits) - 1
    return st.one_of(st.sampled_from([0, top]), st.integers(0, top))


#: 5-tuples whose fields are often all zeros or all ones.
EDGE_FIVE_TUPLES = st.builds(
    FiveTuple, _field(32), _field(32), _field(16), _field(16), _field(8)
)
_ZEROS = FiveTuple(0, 0, 0, 0, 0)
_ONES = FiveTuple(2**32 - 1, 2**32 - 1, 2**16 - 1, 2**16 - 1, 255)


class TestFiveTuple:
    @given(FIVE_TUPLES)
    def test_pack_unpack_roundtrip(self, ft):
        assert FiveTuple.unpack(ft.packed()) == ft

    @given(FIVE_TUPLES)
    def test_packed_fits_104_bits(self, ft):
        assert 0 <= ft.packed() < (1 << 104)

    @given(FIVE_TUPLES, FIVE_TUPLES)
    def test_distinct_tuples_distinct_packing(self, a, b):
        if a != b:
            assert a.packed() != b.packed()

    def test_key64_matches_flow_table(self):
        ft = FiveTuple(0x0A000001, 0x08080808, 1234, 443, 6)
        table = FlowTable.from_five_tuples([ft], hash_seed=42)
        assert ft.key64(42) == int(table.key64[0])


def _tiny_trace():
    flows = FlowTable.from_five_tuples(
        [
            FiveTuple(1, 2, 10, 20, 6),
            FiveTuple(3, 4, 30, 40, 17),
        ]
    )
    return Trace(
        timestamps=np.array([0.0, 0.5, 1.0, 2.0]),
        flow_ids=np.array([0, 1, 0, 0]),
        sizes=np.array([100, 200, 300, 400]),
        flows=flows,
    )


class TestFlowTable:
    def test_from_five_tuples_roundtrip(self):
        tuples = [FiveTuple(1, 2, 3, 4, 6), FiveTuple(5, 6, 7, 8, 17)]
        table = FlowTable.from_five_tuples(tuples)
        assert [table.five_tuple(i) for i in range(2)] == tuples
        assert list(table) == tuples

    def test_empty_table(self):
        table = FlowTable.from_five_tuples([])
        assert len(table) == 0

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ConfigurationError):
            FlowTable(
                src_ip=np.zeros(2, dtype=np.uint32),
                dst_ip=np.zeros(3, dtype=np.uint32),
                src_port=np.zeros(2, dtype=np.uint16),
                dst_port=np.zeros(2, dtype=np.uint16),
                protocol=np.zeros(2, dtype=np.uint8),
            )

    @given(st.lists(EDGE_FIVE_TUPLES, max_size=40), st.integers(0, 2**32 - 1))
    @example([_ZEROS, _ONES], 0)
    def test_packed_tuples_match_per_flow_formula(self, tuples, seed):
        table = FlowTable.from_five_tuples(tuples, hash_seed=seed)
        assert table.packed_tuples() == [
            src << 72 | dst << 40 | sport << 24 | dport << 8 | proto
            for src, dst, sport, dport, proto in tuples
        ]
        assert table.key64.tolist() == [ft.key64(seed) for ft in tuples]

    def test_keys_differ_across_flows(self):
        table = FlowTable.from_five_tuples(
            [FiveTuple(1, 2, 3, 4, 6), FiveTuple(1, 2, 3, 5, 6)]
        )
        assert table.key64[0] != table.key64[1]


class TestTrace:
    def test_basic_properties(self):
        trace = _tiny_trace()
        assert trace.num_packets == 4
        assert trace.num_flows == 2
        assert trace.duration == pytest.approx(2.0)
        assert trace.total_bytes == 1000
        assert trace.mean_pps() == pytest.approx(2.0)

    def test_ground_truth_counts(self):
        trace = _tiny_trace()
        assert list(trace.ground_truth_packets()) == [3, 1]
        assert list(trace.ground_truth_bytes()) == [800, 200]

    def test_time_slice(self):
        trace = _tiny_trace()
        middle = trace.time_slice(0.5, 2.0)
        assert middle.num_packets == 2
        assert list(middle.flow_ids) == [1, 0]

    def test_time_slice_empty(self):
        trace = _tiny_trace()
        assert trace.time_slice(10.0, 20.0).num_packets == 0

    def test_packets_per_bucket(self):
        trace = _tiny_trace()
        starts, counts = trace.packets_per_bucket(1.0)
        assert list(counts) == [2, 1, 1]
        assert starts[0] == pytest.approx(0.0)

    def test_bytes_per_bucket(self):
        trace = _tiny_trace()
        _starts, volumes = trace.bytes_per_bucket(1.0)
        assert list(volumes) == [300, 300, 400]

    def test_unsorted_timestamps_rejected(self):
        flows = FlowTable.from_five_tuples([FiveTuple(1, 2, 3, 4, 6)])
        with pytest.raises(ConfigurationError):
            Trace(
                timestamps=np.array([1.0, 0.5]),
                flow_ids=np.array([0, 0]),
                sizes=np.array([100, 100]),
                flows=flows,
            )

    def test_out_of_range_flow_id_rejected(self):
        flows = FlowTable.from_five_tuples([FiveTuple(1, 2, 3, 4, 6)])
        with pytest.raises(ConfigurationError):
            Trace(
                timestamps=np.array([0.0]),
                flow_ids=np.array([5]),
                sizes=np.array([100]),
                flows=flows,
            )

    def test_empty_trace(self):
        flows = FlowTable.from_five_tuples([])
        trace = Trace(
            timestamps=np.array([]),
            flow_ids=np.array([], dtype=np.int64),
            sizes=np.array([], dtype=np.int64),
            flows=flows,
        )
        assert trace.duration == 0.0
        assert trace.mean_pps() == 0.0
