"""Tests for the multi-core manager/worker system."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import InstaMeasureConfig, MultiCoreInstaMeasure
from repro.core.multicore import dispatch_array, dispatch_worker
from repro.errors import ConfigurationError
from repro.traffic import CaidaLikeConfig, build_caida_like_trace


@pytest.fixture(scope="module")
def trace():
    return build_caida_like_trace(
        CaidaLikeConfig(num_flows=8000, duration=20.0, seed=31)
    )


def _config(**overrides):
    defaults = dict(l1_memory_bytes=4096, wsaf_entries=1 << 14, seed=0)
    defaults.update(overrides)
    return InstaMeasureConfig(**defaults)


class TestDispatch:
    def test_scalar_matches_paper_rule(self):
        assert dispatch_worker(0b1011, 4) == 3  # popcount 3 mod 4
        assert dispatch_worker(0, 4) == 0

    def test_array_matches_scalar(self):
        ips = np.array([0, 1, 0xFFFFFFFF, 0xDEADBEEF, 12345], dtype=np.uint32)
        vec = dispatch_array(ips, 3)
        for i, ip in enumerate(ips):
            assert int(vec[i]) == dispatch_worker(int(ip), 3)

    def test_flow_affinity(self, trace):
        """All packets of a flow land on the same worker."""
        system = MultiCoreInstaMeasure(4, _config())
        assignment = system.dispatch(trace)
        for flow in np.unique(trace.flow_ids[:2000]):
            workers = np.unique(assignment[trace.flow_ids == flow])
            assert len(workers) == 1

    def test_all_workers_used(self, trace):
        system = MultiCoreInstaMeasure(4, _config())
        assignment = system.dispatch(trace)
        assert set(np.unique(assignment)) == {0, 1, 2, 3}


class TestMultiCoreRun:
    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            MultiCoreInstaMeasure(0)

    def test_packets_partitioned_exactly(self, trace):
        system = MultiCoreInstaMeasure(3, _config())
        result = system.process_trace(trace)
        assert result.packets == trace.num_packets
        assert len(result.worker_packets) == 3

    def test_load_shares_sum_to_one(self, trace):
        system = MultiCoreInstaMeasure(4, _config())
        result = system.process_trace(trace)
        assert sum(result.load_shares) == pytest.approx(1.0)
        assert result.max_load_share >= 1.0 / 4

    def test_parallel_speedup_bounds(self, trace):
        system = MultiCoreInstaMeasure(4, _config())
        result = system.process_trace(trace)
        assert 1.0 <= result.parallel_speedup <= 4.0

    def test_regulation_rate_matches_single_core_scale(self, trace):
        system = MultiCoreInstaMeasure(2, _config())
        result = system.process_trace(trace)
        assert 0.002 <= result.regulation_rate <= 0.03

    def test_accuracy_comparable_to_single_core(self, trace):
        from repro.core import InstaMeasure

        truth = trace.ground_truth_packets().astype(float)
        big = truth >= 1500
        assert big.sum() >= 2

        single = InstaMeasure(_config())
        single.process_trace(trace)
        est_single, _ = single.estimates_for(trace)

        system = MultiCoreInstaMeasure(4, _config())
        system.process_trace(trace)
        est_multi, _ = system.estimates_for(trace)

        err_single = np.abs(est_single[big] - truth[big]) / truth[big]
        err_multi = np.abs(est_multi[big] - truth[big]) / truth[big]
        assert err_multi.mean() < max(0.12, 2.5 * err_single.mean())

    def test_shared_wsaf_collects_all_workers(self, trace):
        system = MultiCoreInstaMeasure(4, _config())
        result = system.process_trace(trace)
        assert result.wsaf is system.wsaf
        assert result.insertions == (
            system.wsaf.insertions + system.wsaf.updates + system.wsaf.rejected
        )

    def test_single_worker_degenerates_to_single_core(self, trace):
        from repro.core import InstaMeasure

        single = InstaMeasure(_config())
        single.process_trace(trace)

        system = MultiCoreInstaMeasure(1, _config())
        result = system.process_trace(trace)
        assert result.packets == trace.num_packets
        assert system.workers[0].regulator.l1.words == single.regulator.l1.words
        assert system.wsaf.estimates() == single.wsaf.estimates()


class TestParallelExecution:
    """The manager's event merge hands out insertions in stream order."""

    def test_callbacks_fire_in_timestamp_order(self, trace):
        timestamps = []
        system = MultiCoreInstaMeasure(3, _config())
        system.process_trace(
            trace,
            on_accumulate=lambda key, pkts, byts, ts: timestamps.append(ts),
        )
        assert timestamps, "expected at least one insertion"
        assert timestamps == sorted(timestamps)
