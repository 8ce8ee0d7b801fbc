"""N-layer FlowRegulator (the paper's suggested extension).

Section V-B: "Even for WSAF in TCAM, which is faster than SRAM,
FlowRegulator can be configured to have enough margin by adjusting the
vector size or even the number of layers."  This module generalizes the
two-layer design to any depth: each additional layer multiplies the
retention capacity (and divides the WSAF insertion rate) by roughly the
single-layer capacity (~9.7 for 8-bit vectors), at the cost of one more
potential memory access per packet and a wider accuracy spread.

Layer *i*'s bank is indexed by the *noise path* — the tuple of noise levels
observed at layers 1..i-1 — so each distinct saturation history counts in
its own sketch, exactly as the two-layer design keys L2 by L1's noise
level.  With ``v`` noise levels per layer, layer *i* holds ``v^(i-1)``
sketches; total memory is ``l1_memory_bytes × Σ v^(i-1)``.

The measurement engine (:class:`~repro.core.instameasure.InstaMeasure`)
runs only the paper's two-layer :class:`~repro.core.regulator.
FlowRegulator`; the depth trade-off is measured here, at the regulator,
by ``benchmarks/bench_ablation_layers.py``.
"""

from __future__ import annotations

import math
from itertools import product

from repro.core.rcc import RCCSketch, coupon_partial_sum
from repro.core.regulator import RegulatorStats
from repro.errors import ConfigurationError
from repro.memmodel import AccessAccountant

MAX_LAYERS = 4


class MultiLayerRegulator:
    """A FlowRegulator with a configurable number of RCC layers.

    ``num_layers=1`` degenerates to plain RCC (every saturation is a WSAF
    insertion); ``num_layers=2`` is the paper's FlowRegulator; deeper
    configurations trade detection latency for even lower insertion rates
    (e.g. for TCAM-backed tables that want <0.1 %).

    Args:
        l1_memory_bytes: size of each sketch bank (all banks share the
            layer-1 geometry and placement, extending the paper's "hash
            function reuse" to every layer).
        num_layers: regulator depth, 1..4.
        vector_bits / word_bits / saturation_fill / seed / accountant:
            as in :class:`FlowRegulator`.
    """

    def __init__(
        self,
        l1_memory_bytes: int,
        num_layers: int = 2,
        vector_bits: int = 8,
        word_bits: int = 32,
        saturation_fill: float = 0.7,
        seed: int = 0,
        accountant: "AccessAccountant | None" = None,
    ) -> None:
        if not 1 <= num_layers <= MAX_LAYERS:
            raise ConfigurationError(
                f"num_layers must be in [1, {MAX_LAYERS}], got {num_layers}"
            )
        self.num_layers = num_layers

        def make_sketch(label: str) -> RCCSketch:
            return RCCSketch(
                l1_memory_bytes,
                vector_bits=vector_bits,
                word_bits=word_bits,
                saturation_fill=saturation_fill,
                seed=seed,
                accountant=accountant,
                label=label,
            )

        self.l1 = make_sketch("multilayer.l1")
        noise_levels = self.l1.noise_levels
        #: banks[i] maps a noise path (tuple of length i+1... layer index)
        #: to the sketch counting saturations of the previous layer.
        self.banks: "list[dict[tuple[int, ...], RCCSketch]]" = []
        for layer in range(1, num_layers):
            bank = {
                path: make_sketch(f"multilayer.l{layer + 1}{path}")
                for path in product(range(noise_levels), repeat=layer)
            }
            self.banks.append(bank)
        self.stats = RegulatorStats()

    # -- geometry ----------------------------------------------------------

    @property
    def vector_bits(self) -> int:
        return self.l1.vector_bits

    @property
    def num_sketches(self) -> int:
        """Total sketch banks across all layers."""
        return 1 + sum(len(bank) for bank in self.banks)

    @property
    def total_memory_bytes(self) -> int:
        return self.num_sketches * self.l1.memory_bytes

    @property
    def retention_capacity(self) -> float:
        """Expected packets retained between WSAF insertions (cap^layers)."""
        return self.l1.retention_capacity**self.num_layers

    def place(self, flow_key: int) -> "tuple[int, int]":
        """Shared (word index, bit offset) across every layer's banks."""
        return self.l1.place(flow_key)

    # -- data path ---------------------------------------------------------

    def process_at(
        self, idx: int, offset: int, bit_choices: "list[int]"
    ) -> "float | None":
        """Encode one packet at a precomputed placement.

        ``bit_choices`` supplies one random bit index per layer (only the
        first is consumed unless saturations cascade).

        Returns ``est_pkt`` when the final layer saturates, else ``None``.
        """
        if len(bit_choices) < self.num_layers:
            raise ConfigurationError(
                f"need {self.num_layers} bit choices, got {len(bit_choices)}"
            )
        self.stats.packets += 1
        noise = self.l1.encode_at(idx, offset, bit_choices[0])
        if noise is None:
            return None
        self.stats.l1_saturations += 1
        estimate = self.l1.decode(noise)
        path: "tuple[int, ...]" = (noise,)
        for layer in range(1, self.num_layers):
            sketch = self.banks[layer - 1][path]
            noise = sketch.encode_at(idx, offset, bit_choices[layer])
            if noise is None:
                return None
            estimate *= sketch.decode(noise)
            path = path + (noise,)
        self.stats.insertions += 1
        return estimate

    def process(self, flow_key: int, bit_choices: "list[int]") -> "float | None":
        """Hash-place ``flow_key`` and encode one packet."""
        idx, offset = self.place(flow_key)
        return self.process_at(idx, offset, bit_choices)

    def residual_estimate(self, flow_key: int) -> float:
        """Decode the count still retained across all layers.

        Evaluation-only (see :meth:`FlowRegulator.residual_estimate`): the
        fill of each bank window along every noise path is decoded and
        weighted by the product of the path's per-layer units.
        """
        idx, offset = self.place(flow_key)
        window = self.l1._window_masks[offset]
        fill = (self.l1.words[idx] & window).bit_count()
        total = coupon_partial_sum(self.vector_bits, fill)
        for layer_bank in self.banks:
            for path, sketch in layer_bank.items():
                fill = (sketch.words[idx] & window).bit_count()
                if not fill:
                    continue
                unit = 1.0
                for noise in path:
                    unit *= self.l1.decode(noise)
                total += unit * coupon_partial_sum(self.vector_bits, fill)
        return total

    def reset(self) -> None:
        """Clear every layer's sketches and the statistics."""
        self.l1.reset()
        for bank in self.banks:
            for sketch in bank.values():
                sketch.reset()
        self.stats = RegulatorStats()


def required_layers_for_margin(
    target_rate: float, vector_bits: int = 8, saturation_fill: float = 0.7
) -> int:
    """Smallest layer count whose single-flow insertion rate beats ``target_rate``.

    E.g. a TCAM-backed WSAF needing <0.1 % of pps requires 3 layers of
    8-bit vectors (9.7^-3 ≈ 0.11 %... rounded against the next layer).
    """
    if not 0.0 < target_rate < 1.0:
        raise ConfigurationError("target_rate must be in (0, 1)")
    probe = RCCSketch(
        64, vector_bits=vector_bits, word_bits=64, saturation_fill=saturation_fill
    )
    capacity = probe.retention_capacity
    layers = max(1, math.ceil(math.log(1.0 / target_rate) / math.log(capacity)))
    if layers > MAX_LAYERS:
        raise ConfigurationError(
            f"target rate {target_rate} needs {layers} layers (max {MAX_LAYERS})"
        )
    return layers
