"""Tests for the N-layer FlowRegulator extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FlowRegulator, MultiLayerRegulator, required_layers_for_margin
from repro.errors import ConfigurationError


def _drive(regulator, packets, key=42, seed=0):
    rng = np.random.default_rng(seed)
    bits = regulator.vector_bits
    total = 0.0
    for _ in range(packets):
        est = regulator.process(
            key, [int(b) for b in rng.integers(0, bits, size=regulator.num_layers)]
        )
        if est is not None:
            total += est
    return total


class TestConstruction:
    def test_layer_bounds(self):
        with pytest.raises(ConfigurationError):
            MultiLayerRegulator(64, num_layers=0)
        with pytest.raises(ConfigurationError):
            MultiLayerRegulator(64, num_layers=5)

    def test_sketch_counts(self):
        # 8-bit vectors → 3 noise levels → 1, 1+3, 1+3+9 sketches.
        assert MultiLayerRegulator(64, num_layers=1).num_sketches == 1
        assert MultiLayerRegulator(64, num_layers=2).num_sketches == 4
        assert MultiLayerRegulator(64, num_layers=3).num_sketches == 13

    def test_memory_scales_with_sketches(self):
        regulator = MultiLayerRegulator(1024, num_layers=3)
        assert regulator.total_memory_bytes == 13 * 1024

    def test_two_layer_matches_flowregulator_geometry(self):
        multi = MultiLayerRegulator(1024, num_layers=2, seed=3)
        paper = FlowRegulator(1024, seed=3)
        assert multi.total_memory_bytes == paper.total_memory_bytes
        assert multi.retention_capacity == pytest.approx(paper.retention_capacity)
        assert multi.place(77) == paper.place(77)

    def test_capacity_is_power_of_single_layer(self):
        single = MultiLayerRegulator(64, num_layers=1).retention_capacity
        triple = MultiLayerRegulator(64, num_layers=3).retention_capacity
        assert triple == pytest.approx(single**3)


class TestDataPath:
    def test_single_layer_rate(self):
        regulator = MultiLayerRegulator(64, num_layers=1, seed=1)
        _drive(regulator, 50_000, seed=1)
        assert regulator.stats.regulation_rate == pytest.approx(
            1 / regulator.retention_capacity, rel=0.15
        )

    def test_each_layer_divides_rate_by_capacity(self):
        rates = {}
        for layers in (1, 2, 3):
            regulator = MultiLayerRegulator(64, num_layers=layers, seed=2)
            _drive(regulator, 120_000, seed=2)
            rates[layers] = regulator.stats.regulation_rate
        assert rates[2] < rates[1] / 5
        assert rates[3] < rates[2] / 5

    def test_estimates_remain_accurate(self):
        packets = 150_000
        regulator = MultiLayerRegulator(64, num_layers=3, seed=4)
        total = _drive(regulator, packets, seed=4)
        assert total == pytest.approx(packets, rel=0.1)

    def test_requires_bit_choice_per_layer(self):
        regulator = MultiLayerRegulator(64, num_layers=3, seed=5)
        with pytest.raises(ConfigurationError):
            regulator.process(1, [0, 1])

    def test_reset(self):
        regulator = MultiLayerRegulator(64, num_layers=2, seed=6)
        _drive(regulator, 1000, seed=6)
        regulator.reset()
        assert regulator.stats.packets == 0
        assert all(w == 0 for w in regulator.l1.words)


class TestLayerPlanning:
    def test_two_layers_reach_dram_margin(self):
        # The paper's configuration: ~1 % needs two layers of 8-bit vectors.
        assert required_layers_for_margin(0.05) == 2

    def test_tcam_margin_needs_more_layers(self):
        assert required_layers_for_margin(0.001) >= 3

    def test_rejects_silly_targets(self):
        with pytest.raises(ConfigurationError):
            required_layers_for_margin(0.0)
        with pytest.raises(ConfigurationError):
            required_layers_for_margin(1e-9)  # would need > MAX_LAYERS
