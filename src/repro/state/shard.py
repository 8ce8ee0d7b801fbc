"""Key-range sharding over the regulator's placement-hash space.

A :class:`ShardRouter` partitions the L1 word-index space ``[0,
num_words)`` into ``num_shards`` contiguous ranges and assigns each flow
to the shard owning its placement word (``hash(key64) % num_words`` via
the :mod:`repro.hashing` layer, exactly the hash the sketches use).

Partitioning on *words* rather than raw keys is what makes sharded
ingestion exact: every flow that shares an L1 word — and therefore
interferes inside the regulator — lands in the same shard, so each
shard's full-size, same-seed regulator evolves its words precisely as a
single-process run would, and the merged word arrays OR together
losslessly (see :func:`repro.state.merge.merge`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def l1_sketch(config):
    """An empty :class:`~repro.core.rcc.RCCSketch` with the geometry and
    placement of ``config``'s L1 layer."""
    from repro.core.rcc import RCCSketch

    return RCCSketch(
        config.l1_memory_bytes,
        vector_bits=config.vector_bits,
        word_bits=config.word_bits,
        saturation_fill=config.saturation_fill,
        seed=config.seed,
    )


def select_shard(assignment: np.ndarray, shard: int) -> np.ndarray:
    """Indices of the entries ``assignment`` gives to ``shard``, ascending.

    ``assignment`` holds one shard id per packet (or per flow).  Ascending
    packet offsets keep each shard's packets in stream order, so per-flow
    order is the global one.  The router's :meth:`ShardRouter.split_chunk`
    and every fork-pool worker reading the shared packet ring select their
    packets with this one function.
    """
    return np.flatnonzero(assignment == shard)


class ShardRouter:
    """Contiguous word-range partitioner.

    Args:
        num_shards: shard count, >= 1 (and <= ``num_words`` — emptier
            shards than words cannot be balanced).
        num_words: size of the L1 word-index space being partitioned.
        place: callable mapping a ``uint64`` key array to word indices —
            normally an :meth:`RCCSketch.place_array`-derived function.
            Use :meth:`for_config` to build one from an engine config.
    """

    def __init__(self, num_shards: int, num_words: int, place) -> None:
        if num_shards < 1:
            raise ConfigurationError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        if num_words < num_shards:
            raise ConfigurationError(
                f"cannot split {num_words} words into {num_shards} shards"
            )
        self.num_shards = num_shards
        self.num_words = num_words
        self._place = place
        #: The last flow table routed and its per-flow shard ids.
        self._last_flows = None
        self._last_flow_shards: "np.ndarray | None" = None
        #: Range boundaries: shard s owns words [bounds[s], bounds[s+1]).
        self.bounds = np.array(
            [round(s * num_words / num_shards) for s in range(num_shards + 1)],
            dtype=np.int64,
        )

    @classmethod
    def for_config(cls, config, num_shards: int) -> "ShardRouter":
        """Build a router matching ``config``'s L1 placement exactly."""
        sketch = l1_sketch(config)

        def place(keys: np.ndarray) -> np.ndarray:
            indices, _offsets = sketch.place_array(keys)
            return indices

        return cls(num_shards, sketch.num_words, place)

    def key_range(self, shard: int) -> "tuple[int, int]":
        """The word-index range ``[lo, hi)`` owned by ``shard``."""
        if not 0 <= shard < self.num_shards:
            raise ConfigurationError(
                f"shard must be in [0, {self.num_shards}), got {shard}"
            )
        return int(self.bounds[shard]), int(self.bounds[shard + 1])

    def shard_of_words(self, word_indices: np.ndarray) -> np.ndarray:
        """Shard id of each word index."""
        return (
            np.searchsorted(self.bounds, word_indices, side="right") - 1
        ).astype(np.int64)

    def shard_of_keys(self, flow_keys: np.ndarray) -> np.ndarray:
        """Shard id of each ``uint64`` flow key."""
        return self.shard_of_words(self._place(flow_keys))

    def assignments(self, trace) -> np.ndarray:
        """Per-packet shard ids for ``trace`` (via its flow table)."""
        return self.flow_shards(trace.flows)[trace.flow_ids]

    def flow_shards(self, flows) -> np.ndarray:
        """Per-flow shard ids for a flow table.

        Every chunk of a stream shares one flow table, so the router
        remembers the last table it routed: the placement hash runs once
        per table, not once per chunk, and nothing is pinned on the table.
        """
        if flows is not self._last_flows:
            self._last_flow_shards = self.shard_of_keys(flows.key64)
            self._last_flows = flows
        return self._last_flow_shards

    def split_chunk(self, chunk) -> "list[tuple]":
        """Route one pipeline chunk: per-shard sub-traces + chunk offsets.

        Returns ``[(sub_trace, offsets), ...]``, one entry per shard, in
        shard order.  ``sub_trace`` holds the shard's packets of this chunk
        in their original (global time) order, sharing the chunk's flow
        table; ``offsets`` are those packets' ascending offsets within the
        chunk (:func:`select_shard`) — what selects their bits out of the
        chunk's slice of the run's one draw.
        """
        from repro.traffic.packet import Trace

        trace = chunk.trace
        assignment = self.flow_shards(trace.flows)[trace.flow_ids]
        parts: "list[tuple]" = []
        for shard in range(self.num_shards):
            index = select_shard(assignment, shard)
            sub = Trace(
                timestamps=trace.timestamps[index],
                flow_ids=trace.flow_ids[index],
                sizes=trace.sizes[index],
                flows=trace.flows,
            )
            parts.append((sub, index))
        return parts
