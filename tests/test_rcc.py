"""Tests for the RCC sketch (Recyclable Counter with Confinement)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RCCSketch, coupon_partial_sum
from repro.errors import ConfigurationError, DecodeError
from repro.memmodel import DRAM, AccessAccountant


class TestCouponPartialSum:
    def test_zero_bits(self):
        assert coupon_partial_sum(8, 0) == 0.0

    def test_one_bit_costs_one_packet(self):
        assert coupon_partial_sum(8, 1) == pytest.approx(1.0)

    def test_full_vector_is_harmonic(self):
        # Expected insertions to fill all b bits = b * H_b.
        b = 8
        expected = b * sum(1.0 / k for k in range(1, b + 1))
        assert coupon_partial_sum(b, b) == pytest.approx(expected)

    @given(st.integers(2, 64), st.integers(0, 64))
    def test_monotone_in_bits_set(self, b, s):
        if s + 1 <= b:
            assert coupon_partial_sum(b, s + 1) > coupon_partial_sum(b, s)

    def test_out_of_range_rejected(self):
        with pytest.raises(DecodeError):
            coupon_partial_sum(8, 9)
        with pytest.raises(DecodeError):
            coupon_partial_sum(8, -1)


class TestConstruction:
    def test_rejects_bad_word_bits(self):
        with pytest.raises(ConfigurationError):
            RCCSketch(1024, word_bits=16)

    def test_rejects_vector_wider_than_word(self):
        with pytest.raises(ConfigurationError):
            RCCSketch(1024, vector_bits=64, word_bits=32)

    def test_rejects_too_small_memory(self):
        with pytest.raises(ConfigurationError):
            RCCSketch(2, word_bits=32)

    def test_rejects_bad_fill(self):
        with pytest.raises(ConfigurationError):
            RCCSketch(1024, saturation_fill=0.0)

    def test_word_count(self):
        assert RCCSketch(1024, word_bits=32).num_words == 256
        assert RCCSketch(1024, word_bits=64).num_words == 128

    @pytest.mark.parametrize(
        "word_bits, vector_bits", [(32, 8), (32, 32), (64, 5), (64, 8)]
    )
    def test_geometry_tables_are_shared_tuples(self, word_bits, vector_bits):
        a = RCCSketch(1024, vector_bits, word_bits, seed=1)
        b = RCCSketch(256, vector_bits, word_bits, saturation_fill=0.5, seed=2)
        for name in ("_window_masks", "_bit_masks", "_decode_table"):
            assert getattr(a, name) is getattr(b, name)
            assert isinstance(getattr(a, name), tuple)
        assert all(isinstance(bits, tuple) for bits in a._bit_masks)
        # The tables equal a per-offset construction of the cyclic window.
        bit_masks, window_masks = [], []
        for offset in range(word_bits):
            bits = [1 << ((offset + i) % word_bits) for i in range(vector_bits)]
            mask = 0
            for bit in bits:
                mask |= bit
            bit_masks.append(tuple(bits))
            window_masks.append(mask)
        assert a._bit_masks == tuple(bit_masks)
        assert a._window_masks == tuple(window_masks)
        assert a._decode_table == tuple(
            coupon_partial_sum(vector_bits, vector_bits - zeros)
            for zeros in range(vector_bits + 1)
        )


class TestPaperConstants:
    """The reconstruction must reproduce the paper's published capacities."""

    def test_8bit_vector_counts_up_to_9(self):
        sketch = RCCSketch(1024, vector_bits=8)
        assert 9.0 <= sketch.retention_capacity <= 10.0

    def test_64bit_vector_counts_up_to_77(self):
        sketch = RCCSketch(1024, vector_bits=64, word_bits=64)
        assert 76.0 <= sketch.retention_capacity <= 78.0

    def test_8bit_vector_has_three_noise_cases(self):
        # "the estimation can be divided into three cases" (Section III-A).
        assert RCCSketch(1024, vector_bits=8).noise_levels == 3

    def test_retention_grows_additively(self):
        # RCC's capacity growth with vector size is sub-linear (the paper's
        # argument for why enlarging RCC's vector is not viable).
        cap8 = RCCSketch(1024, vector_bits=8).retention_capacity
        cap64 = RCCSketch(1024, vector_bits=64, word_bits=64).retention_capacity
        assert cap64 < 8 * cap8 * 2  # far from multiplicative growth
        assert cap64 / cap8 < 10


class TestEncodeDecode:
    def test_single_flow_saturates_near_capacity(self):
        sketch = RCCSketch(64, vector_bits=8, seed=1)
        rng = np.random.default_rng(0)
        rounds = []
        packets = 0
        for _ in range(20000):
            packets += 1
            if sketch.encode(42, int(rng.integers(8))) is not None:
                rounds.append(packets)
                packets = 0
        mean_round = np.mean(rounds)
        assert mean_round == pytest.approx(sketch.retention_capacity, rel=0.15)

    def test_noise_level_in_range(self):
        sketch = RCCSketch(64, vector_bits=8, seed=2)
        rng = np.random.default_rng(1)
        seen = set()
        for _ in range(5000):
            noise = sketch.encode(7, int(rng.integers(8)))
            if noise is not None:
                seen.add(noise)
        assert seen <= {0, 1, 2}
        assert 2 in seen  # the common single-flow case

    def test_decode_rejects_out_of_range_noise(self):
        sketch = RCCSketch(64, vector_bits=8)
        with pytest.raises(DecodeError):
            sketch.decode(3)

    def test_decode_values_decrease_with_noise(self):
        sketch = RCCSketch(64, vector_bits=8)
        assert sketch.decode(0) > sketch.decode(1) > sketch.decode(2)

    def test_recycle_clears_vector(self):
        sketch = RCCSketch(64, vector_bits=8, seed=3)
        rng = np.random.default_rng(2)
        for _ in range(10000):
            if sketch.encode(9, int(rng.integers(8))) is not None:
                assert sketch.fill_count(9) == 0
                return
        pytest.fail("vector never saturated")

    def test_fill_count_grows(self):
        sketch = RCCSketch(64, vector_bits=8, seed=4)
        assert sketch.fill_count(5) == 0
        sketch.encode(5, 0)
        assert sketch.fill_count(5) == 1

    def test_partial_estimate_tracks_fill(self):
        sketch = RCCSketch(64, vector_bits=8, seed=5)
        sketch.encode(5, 0)
        assert sketch.partial_estimate(5) == pytest.approx(1.0)

    def test_saturation_rate_single_flow(self):
        sketch = RCCSketch(64, vector_bits=8, seed=6)
        rng = np.random.default_rng(3)
        for _ in range(20000):
            sketch.encode(11, int(rng.integers(8)))
        assert sketch.saturation_rate() == pytest.approx(
            1.0 / sketch.retention_capacity, rel=0.15
        )

    def test_estimation_accuracy_single_flow(self):
        # Accumulated decodes over many rounds approximate the true count.
        sketch = RCCSketch(64, vector_bits=8, seed=7)
        rng = np.random.default_rng(4)
        true_count = 50_000
        estimate = 0.0
        for _ in range(true_count):
            noise = sketch.encode(3, int(rng.integers(8)))
            if noise is not None:
                estimate += sketch.decode(noise)
        assert estimate == pytest.approx(true_count, rel=0.1)

    def test_reset(self):
        sketch = RCCSketch(64, vector_bits=8, seed=8)
        sketch.encode(1, 0)
        sketch.reset()
        assert sketch.fill_count(1) == 0
        assert sketch.packets_encoded == 0


class TestPlacement:
    def test_place_deterministic(self):
        sketch = RCCSketch(1024, seed=9)
        assert sketch.place(123) == sketch.place(123)

    def test_place_array_matches_scalar(self):
        sketch = RCCSketch(1024, seed=10)
        keys = np.array([1, 99, 2**63, 12345678], dtype=np.uint64)
        idx, off = sketch.place_array(keys)
        for i, key in enumerate(keys):
            assert (int(idx[i]), int(off[i])) == sketch.place(int(key))

    def test_same_seed_same_placement(self):
        a = RCCSketch(1024, seed=11)
        b = RCCSketch(1024, seed=11)
        assert a.place(77) == b.place(77)

    def test_window_masks_have_vector_bits_set(self):
        sketch = RCCSketch(64, vector_bits=8, word_bits=32)
        for mask in sketch._window_masks:
            assert bin(mask).count("1") == 8

    def test_cyclic_window_wraps(self):
        sketch = RCCSketch(64, vector_bits=8, word_bits=32)
        mask = sketch._window_masks[28]  # bits 28..31 and 0..3
        assert mask & (1 << 31)
        assert mask & 1

    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=50, deadline=None)
    def test_place_in_bounds(self, key):
        sketch = RCCSketch(256, seed=12)
        idx, offset = sketch.place(key)
        assert 0 <= idx < sketch.num_words
        assert 0 <= offset < sketch.word_bits


class TestAccounting:
    def test_each_packet_costs_one_read_one_write(self):
        accountant = AccessAccountant(DRAM)
        sketch = RCCSketch(64, accountant=accountant, label="l1")
        rng = np.random.default_rng(5)
        for _ in range(100):
            sketch.encode(1, int(rng.integers(8)))
        assert accountant.reads == 100
        assert accountant.writes == 100
        assert accountant.by_label() == {"l1": 200}
