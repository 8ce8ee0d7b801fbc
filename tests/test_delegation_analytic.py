"""Tests for the delegation-based measurer and the analytic single-flow model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import DelegatingMeasurer
from repro.core import (
    FlowRegulator,
    SingleFlowRegulatorModel,
    coupon_partial_sum,
    saturation_time_pmf,
    saturation_time_variance,
)
from repro.detection import ground_truth_detection_times
from repro.errors import ConfigurationError
from repro.traffic import AttackConfig, CaidaLikeConfig, build_caida_like_trace
from repro.traffic.attack import inject_attack_flows


class TestDelegatingMeasurer:
    @pytest.fixture(scope="class")
    def trace(self):
        return build_caida_like_trace(
            CaidaLikeConfig(num_flows=1500, duration=6.0, seed=93)
        )

    def test_estimates_track_truth(self, trace):
        measurer = DelegatingMeasurer(
            sketch_memory_bytes=256 * 1024,
            epoch_seconds=1.0,
            network_delay_seconds=0.02,
        )
        estimates, stats = measurer.process_trace(trace)
        truth = trace.ground_truth_packets().astype(float)
        big = truth >= 500
        rel = np.abs(estimates[big] - truth[big]) / truth[big]
        assert rel.mean() < 0.25
        assert stats.epochs >= 5

    def test_bandwidth_cost_positive_and_linear_in_epochs(self, trace):
        slow = DelegatingMeasurer(64 * 1024, epoch_seconds=3.0,
                                  network_delay_seconds=0.02)
        fast = DelegatingMeasurer(64 * 1024, epoch_seconds=0.5,
                                  network_delay_seconds=0.02)
        _e1, stats_slow = slow.process_trace(trace)
        _e2, stats_fast = fast.process_trace(trace)
        # Shipping more often costs more collector bandwidth.
        assert stats_fast.bytes_shipped > stats_slow.bytes_shipped
        assert stats_fast.shipping_overhead_bps(trace.duration) > 0

    def test_detection_waits_for_epoch_boundary(self, trace):
        attacked, injected = inject_attack_flows(
            trace,
            AttackConfig(rates_pps=[30_000.0], duration=1.0, start_time=1.2),
        )
        measurer = DelegatingMeasurer(
            256 * 1024, epoch_seconds=0.5, network_delay_seconds=0.05
        )
        _estimates, stats = measurer.process_trace(attacked, threshold_packets=500)
        truth_times, _ = ground_truth_detection_times(
            attacked, threshold_packets=500
        )
        flow = injected[0]
        assert flow in stats.detections
        # The collector can only know after the epoch ends plus the delay.
        assert stats.detections[flow] >= truth_times[flow] + 0.05

    def test_empty_trace(self, trace):
        empty = trace.time_slice(1e9, 2e9)
        measurer = DelegatingMeasurer(64 * 1024, 1.0, 0.0)
        estimates, stats = measurer.process_trace(empty)
        assert stats.epochs == 0 and stats.bytes_shipped == 0

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            DelegatingMeasurer(1024, epoch_seconds=0.0, network_delay_seconds=0.0)
        with pytest.raises(ConfigurationError):
            DelegatingMeasurer(1024, epoch_seconds=1.0, network_delay_seconds=-1.0)

    def test_rotate_ships_completed_epochs(self, trace):
        measurer = DelegatingMeasurer(
            256 * 1024, epoch_seconds=1.0, network_delay_seconds=0.0
        )
        first_epoch = trace.time_slice(0.0, 1.0)
        measurer.ingest(first_epoch)
        start = float(first_epoch.timestamps[0])
        # Before the epoch's window elapses the collector has nothing.
        assert measurer.rotate(start + 0.5) == {}
        # Once the window elapses, rotation ships it: the collector sees
        # the epoch's flows without waiting for the next packet.
        shipped = measurer.rotate(start + 1.0)
        assert len(shipped) > 0
        stats = measurer.finalize()
        assert stats.epochs == 1  # the tail ship found nothing new

    def test_rotate_aligns_with_packet_driven_shipping(self, trace):
        """A rotated run reports the same collector totals at the end."""
        plain = DelegatingMeasurer(256 * 1024, 1.0, 0.0)
        plain.ingest(trace)
        plain.finalize()
        rotated = DelegatingMeasurer(256 * 1024, 1.0, 0.0)
        rotated.ingest(trace)
        rotated.rotate(float(trace.timestamps[-1]) + 5.0)
        rotated.finalize()
        assert rotated.estimates() == plain.estimates()

    def test_rotate_before_any_packet(self):
        measurer = DelegatingMeasurer(64 * 1024, 1.0, 0.0)
        assert measurer.rotate(123.0) == {}

    @pytest.mark.parametrize("width", [0.1, 0.3, 0.7])
    def test_rotation_ships_the_epoch_that_ended(self, width):
        """The driver rotates at the boundaries its source's ``EpochGrid``
        stamps; each rotation leaves the epoch that ended shipped, however
        the boundary rounds."""
        from repro.pipeline import Pipeline, TraceChunkSource
        from repro.traffic import Trace

        base = build_caida_like_trace(
            CaidaLikeConfig(num_flows=300, duration=3.0, seed=7)
        )
        trace = Trace(
            timestamps=base.timestamps - base.timestamps[0] + 1.0,
            flow_ids=base.flow_ids,
            sizes=base.sizes,
            flows=base.flows,
        )
        open_after = []

        def check(record, measurer):
            if measurer._stream.current_epoch <= record.index:
                open_after.append(record.index)

        result = Pipeline(
            DelegatingMeasurer(64 * 1024, width, 0.0), on_epoch=check, rotate=True
        ).run(TraceChunkSource(trace, epoch_seconds=width))
        assert len(result.epochs) >= 3
        assert open_after == []

    def test_packets_on_boundaries_open_the_next_epoch(self):
        """One packet on each ``1 + k * 0.1`` boundary: forty epochs ship,
        one packet each, as the sources cut them."""
        from repro.pipeline import TraceChunkSource
        from repro.traffic import FiveTuple, FlowTable, Trace

        count, width = 40, 0.1
        trace = Trace(
            timestamps=1.0 + np.arange(count) * width,
            flow_ids=np.zeros(count, dtype=np.int64),
            sizes=np.full(count, 100, dtype=np.int64),
            flows=FlowTable.from_five_tuples([FiveTuple(1, 2, 3, 4, 6)]),
        )
        epochs = [chunk.epoch for chunk in TraceChunkSource(trace, epoch_seconds=width)]
        assert epochs == list(range(count))
        _estimates, stats = DelegatingMeasurer(
            64 * 1024, width, 0.0
        ).process_trace(trace)
        assert stats.epochs == count


class TestSaturationTimeDistribution:
    def test_pmf_mass_and_mean_match_coupon_sum(self):
        pmf = saturation_time_pmf(8, 6, 300)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
        mean = float((np.arange(301) * pmf).sum())
        assert mean == pytest.approx(coupon_partial_sum(8, 6), abs=1e-6)

    def test_pmf_zero_before_minimum(self):
        pmf = saturation_time_pmf(8, 6, 20)
        assert np.all(pmf[:6] == 0.0)  # needs at least 6 packets
        assert pmf[6] > 0.0

    def test_variance_formula(self):
        # Monte-Carlo check of the closed form.
        rng = np.random.default_rng(0)
        samples = []
        for _ in range(4000):
            seen = set()
            count = 0
            while len(seen) < 6:
                seen.add(int(rng.integers(8)))
                count += 1
            samples.append(count)
        assert np.var(samples) == pytest.approx(
            saturation_time_variance(8, 6), rel=0.15
        )

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            saturation_time_pmf(8, 0, 10)
        with pytest.raises(ConfigurationError):
            saturation_time_variance(8, 9)


class TestSingleFlowRegulatorModel:
    @pytest.fixture(scope="class")
    def model(self):
        return SingleFlowRegulatorModel(vector_bits=8, saturation_fill=0.7)

    def test_mice_never_pass(self, model):
        # A flow needs ≥ 36 packets (6 L1 rounds × 6 L2 bits) to pass.
        assert model.passage_probability(35) == 0.0
        assert model.expected_insertions(20) == 0.0

    def test_rate_converges_to_inverse_capacity(self, model):
        capacity = coupon_partial_sum(8, 6) ** 2
        rate = model.expected_regulation_rate(5000)
        assert rate == pytest.approx(1.0 / capacity, rel=0.05)

    def test_passage_probability_monotone(self, model):
        values = [model.passage_probability(s) for s in (40, 80, 120, 200)]
        assert values == sorted(values)
        assert values[-1] > 0.9

    def test_matches_simulation(self, model):
        """The chain predicts the simulator's insertion count."""
        packets = 400
        runs = 60
        insertions = []
        for seed in range(runs):
            regulator = FlowRegulator(64, vector_bits=8, seed=seed)
            rng = np.random.default_rng(1000 + seed)
            for _ in range(packets):
                regulator.process(1, int(rng.integers(8)), int(rng.integers(8)))
            insertions.append(regulator.stats.insertions)
        assert np.mean(insertions) == pytest.approx(
            model.expected_insertions(packets), rel=0.2
        )

    def test_invalid_inputs(self, model):
        with pytest.raises(ConfigurationError):
            model.expected_insertions(-1)
        with pytest.raises(ConfigurationError):
            SingleFlowRegulatorModel(vector_bits=1)
