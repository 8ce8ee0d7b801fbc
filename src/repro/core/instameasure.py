"""InstaMeasure — the single-core measurement engine (Algorithm 1).

Ties the paper's two-layer :class:`FlowRegulator` to a
:class:`WSAFTable`: every packet encodes into the regulator; on L2
saturation the decoded ``(est_pkt, est_byte)`` pair is accumulated into
the WSAF under the flow's ID.  Callers can observe accumulations through
a callback (that is where saturation-based heavy-hitter detection hooks
in).  Deeper regulators are studied at the regulator level
(:class:`~repro.core.multilayer.MultiLayerRegulator`,
``benchmarks/bench_ablation_layers.py``), not through this engine.

Every packet draws two random bit choices, one per layer, and the engine
processes them along one of three equivalent data paths:

* :meth:`InstaMeasure.process_packet` — the literal per-packet API, one call
  per packet, the shape a real pipeline would use.
* :meth:`InstaMeasure.process_trace` with ``engine="scalar"`` — a
  trace-driven loop with hoisted placement hashing and a pre-drawn
  randomness stream.  It produces bit-identical state to the per-packet
  path given the same random bits (tested).
* :meth:`InstaMeasure.process_trace` with ``engine="batched"`` (the
  default via ``"auto"`` whenever ``vector_bits <= 8``) — the chunked
  NumPy/LUT kernel in :mod:`repro.kernels`, bit-identical to the scalar
  loop and several times faster (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.regulator import FlowRegulator, RegulatorStats
from repro.core.wsaf import WSAFTable
from repro.errors import ConfigurationError
from repro.kernels.batched import BatchCounters, process_trace_batched, runs_kernel
from repro.memmodel import AccessAccountant
from repro.traffic.packet import Trace

#: Callback fired after each WSAF accumulation:
#: (flow_key, total_packets, total_bytes, timestamp).
AccumulateCallback = Callable[[int, float, float, float], None]


#: Valid ``InstaMeasureConfig.engine`` values.
ENGINE_CHOICES = ("auto", "batched", "scalar")


def build_wsaf_table(
    config: "InstaMeasureConfig",
    accountant: "AccessAccountant | None" = None,
) -> WSAFTable:
    """The WSAF storage ``config`` asks for.

    Delegates to :func:`repro.core.wsaf_storage.build_wsaf_storage` — the
    backend seam: ``wsaf_backend`` picks flat/tiered/icebuckets storage,
    and a flat table is batch-probed under every engine.
    """
    from repro.core.wsaf_storage import build_wsaf_storage

    return build_wsaf_storage(config, accountant)


@dataclass
class InstaMeasureConfig:
    """Engine parameters (defaults follow Section IV-D, scaled knobs exposed).

    Attributes:
        l1_memory_bytes: L1 sketch size; total regulator memory is 4× this
            for 8-bit vectors (paper: 32 KB L1 → 128 KB total).
        vector_bits / word_bits / saturation_fill: RCC geometry.
        wsaf_entries: WSAF capacity, a power of two (paper: 2^20).
        probe_limit: WSAF probe window.
        gc_timeout: WSAF inactivity timeout in seconds (None disables).
        eviction_policy: WSAF overflow policy (see :class:`WSAFTable`).
        seed: seed for placement hashing and the per-packet bit stream.
        engine: trace-processing engine — ``"auto"`` picks the batched
            kernel whenever its FSM tables fit (``vector_bits <= 8``) and
            the scalar loop otherwise; ``"batched"`` requires the kernel
            (configuration error if unsupported); ``"scalar"`` always runs
            the per-packet Python loop.  All engines are bit-identical.
        chunk_size: packets per batched-kernel chunk (bounds the working
            set of the vectorized stage; irrelevant to the scalar path).
        wsaf_backend: working-set storage algorithm — ``"flat"`` (the
            paper's table, bit-identical to pre-backend behaviour),
            ``"tiered"`` (hot top-K SRAM cache in front of the DRAM
            table; see :mod:`repro.core.wsaf_tiered`), or
            ``"icebuckets"`` (bucket-scaled compressed counters; see
            :mod:`repro.core.wsaf_icebuckets`).  Every backend runs under
            either trace ``engine``; the flat table is the batch-probed
            one under both.
        tier_cache_entries / tier_interval: tiered backend geometry —
            hot-cache capacity and accumulates between promote/demote
            maintenance ticks.
        ice_bucket_slots / ice_counter_bits: compressed backend geometry
            — table slots sharing one scale exponent, and stored bits
            per counter.
    """

    l1_memory_bytes: int = 32 * 1024
    vector_bits: int = 8
    word_bits: int = 32
    saturation_fill: float = 0.7
    wsaf_entries: int = 1 << 20
    probe_limit: int = 16
    gc_timeout: "float | None" = None
    eviction_policy: str = "second-chance"
    seed: int = 0
    engine: str = "auto"
    chunk_size: int = 1 << 20
    wsaf_backend: str = "flat"
    tier_cache_entries: int = 256
    tier_interval: int = 1024
    ice_bucket_slots: int = 64
    ice_counter_bits: int = 16

    def __post_init__(self) -> None:
        """Validate every enumerated/bounded knob in one place.

        Construction is the single choke point all engines, workers, and
        helpers pass through, so invalid configurations fail before any
        state is built (instead of in whichever code path first consults
        the knob).
        """
        if self.engine not in ENGINE_CHOICES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; known: {ENGINE_CHOICES}"
            )
        if self.wsaf_entries < 2:
            raise ConfigurationError(
                f"wsaf_entries must be >= 2, got {self.wsaf_entries}"
            )
        if self.chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        from repro.core.wsaf_storage import WSAF_BACKEND_CHOICES

        if self.wsaf_backend not in WSAF_BACKEND_CHOICES:
            raise ConfigurationError(
                f"unknown wsaf_backend {self.wsaf_backend!r}; "
                f"known: {WSAF_BACKEND_CHOICES}"
            )
        if self.tier_cache_entries < 1:
            raise ConfigurationError(
                f"tier_cache_entries must be >= 1, got {self.tier_cache_entries}"
            )
        if self.tier_interval < 1:
            raise ConfigurationError(
                f"tier_interval must be >= 1, got {self.tier_interval}"
            )
        if self.ice_bucket_slots < 1:
            raise ConfigurationError(
                f"ice_bucket_slots must be >= 1, got {self.ice_bucket_slots}"
            )
        if not 2 <= self.ice_counter_bits <= 32:
            raise ConfigurationError(
                f"ice_counter_bits must be in [2, 32], got {self.ice_counter_bits}"
            )


@dataclass
class MeasurementResult:
    """Outcome of processing a trace through an engine.

    All counters (and ``regulator_stats``) are **per-call deltas**: a
    second ``process_trace`` on the same engine reports only that call's
    packets and insertions, so derived rates like :attr:`python_pps` stay
    consistent with :attr:`elapsed_seconds`.  Cumulative state lives on
    ``engine.regulator.stats`` and the WSAF itself.
    """

    packets: int
    insertions: int
    elapsed_seconds: float
    regulator_stats: RegulatorStats
    wsaf: WSAFTable

    @property
    def regulation_rate(self) -> float:
        """WSAF insertions per processed packet (ips/pps)."""
        return self.insertions / self.packets if self.packets else 0.0

    @property
    def python_pps(self) -> float:
        """Measured pure-Python packet throughput (not the paper's Mpps —
        see the cycle cost model for the modelled figure)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.packets / self.elapsed_seconds


#: Draw granularity for unknown-length streams.  Bits are drawn in
#: fixed-size blocks from one persistent generator and served out in
#: slices, so the choices a packet at stream offset ``k`` sees are a pure
#: function of the seed and ``k`` — independent of how the stream
#: happened to be chunked.  That makes unbounded ingestion
#: chunking-invariant, and it makes ``(generator state at block start,
#: entries consumed)`` a complete resume cursor for mid-flight
#: checkpoints (see :mod:`repro.state.snapshot`).
UNKNOWN_STREAM_BLOCK = 1 << 16


class _BitStream:
    """Per-packet random bit choices for one measurement stream.

    Every slice is a ``(bits1, bits2)`` pair of uint8 arrays — the L1 and
    L2 choice of each packet — and every draw makes the ``bits1`` call
    before the ``bits2`` call.  When the stream's total packet count is
    known up front, the whole sequence is drawn in one call — exactly the
    draw the whole-trace path makes — and handed out in slices, which is
    what makes chunked ingestion bit-identical (NumPy's narrow-dtype
    ``integers`` draws are buffered per call, so N small draws do *not*
    equal one big draw).
    Unknown-length streams draw fixed-size ``UNKNOWN_STREAM_BLOCK``
    blocks from one persistent generator instead: not identical to the
    known-length draw (the layers interleave differently), but a pure
    function of the stream offset, so every chunking of an unbounded
    stream sees the same bits and a checkpoint can resume the stream
    from the block cursor alone (:meth:`unknown_cursor`).

    A sharded run draws the known-length sequence once, in its router,
    and hands every shard engine its packets' bits
    (``ingest(chunk, bits=...)``): those engines own no stream of bits.
    """

    def __init__(self, config, total: "int | None") -> None:
        self._rng = np.random.default_rng(config.seed ^ 0xB17)
        self._vector_bits = config.vector_bits
        self._total = total
        self.offset = 0
        if total is not None:
            self._draw(total)
        else:
            self._bits1 = self._bits2 = None
        #: Generator state captured immediately before the current block
        #: draw (unknown-length streams only; None before the first draw).
        self._block_state = None
        #: Entries of the current block already handed out.
        self._block_used = 0

    def _draw(self, count: int) -> None:
        self._bits1 = self._rng.integers(
            0, self._vector_bits, size=count, dtype=np.uint8
        )
        self._bits2 = self._rng.integers(
            0, self._vector_bits, size=count, dtype=np.uint8
        )

    def take(self, count: int) -> "tuple[np.ndarray, np.ndarray]":
        """The next ``count`` packets' bit choices, advancing the cursor."""
        begin = self.offset
        limit = self._total
        if limit is None:
            self.offset += count
            return self._take_unknown(count)
        if begin + count > limit:
            raise ConfigurationError(
                f"stream overran its declared total of {limit} "
                f"packets at offset {begin} (+{count})"
            )
        end = begin + count
        self.offset += count
        return (self._bits1[begin:end], self._bits2[begin:end])

    def _draw_block(self) -> None:
        # Record the generator state *before* drawing: (state, used) is
        # then the whole resume cursor for an unknown-length stream.
        self._block_state = self._rng.bit_generator.state
        self._draw(UNKNOWN_STREAM_BLOCK)
        self._block_used = 0

    def _take_unknown(self, count: int) -> "tuple[np.ndarray, np.ndarray]":
        """Assemble ``count`` entries from the fixed-size block draws.

        Requests that fit inside the current block come back as views;
        block-crossing requests are stitched into fresh arrays.  Either
        way the entries depend only on the stream offset, never on the
        chunk sizes that consumed it.
        """
        block = UNKNOWN_STREAM_BLOCK
        if self._block_state is not None and self._block_used + count <= block:
            lo = self._block_used
            hi = lo + count
            self._block_used = hi
            return (self._bits1[lo:hi], self._bits2[lo:hi])
        out1 = np.empty(count, dtype=np.uint8)
        out2 = np.empty(count, dtype=np.uint8)
        filled = 0
        while filled < count:
            if self._block_state is None or self._block_used >= block:
                self._draw_block()
            step = min(count - filled, block - self._block_used)
            lo = self._block_used
            hi = lo + step
            out1[filled : filled + step] = self._bits1[lo:hi]
            out2[filled : filled + step] = self._bits2[lo:hi]
            self._block_used = hi
            filled += step
        return (out1, out2)

    def unknown_cursor(self) -> "tuple[dict, int]":
        """``(generator state at block start, entries consumed)``.

        The randomness half of a mid-flight unknown-length snapshot:
        :meth:`seek_unknown` with these values (plus the offset) lands a
        fresh stream on the exact next bit this one would hand out.
        """
        if self._total is not None:
            raise ConfigurationError(
                "unknown_cursor only applies to unknown-length streams"
            )
        if self._block_state is None:
            return self._rng.bit_generator.state, 0
        return self._block_state, self._block_used

    def seek_unknown(self, rng_state: dict, block_used: int, offset: int) -> None:
        """Resume an unknown-length stream at a captured cursor."""
        if self._total is not None:
            raise ConfigurationError(
                "seek_unknown only applies to unknown-length streams"
            )
        if not 0 <= block_used <= UNKNOWN_STREAM_BLOCK:
            raise ConfigurationError(
                f"block cursor {block_used} outside [0, {UNKNOWN_STREAM_BLOCK}]"
            )
        self._rng.bit_generator.state = rng_state
        self._block_state = None
        self._block_used = 0
        self._bits1 = self._bits2 = None
        if block_used:
            self._draw_block()
            self._block_used = block_used
        self.offset = offset


@dataclass
class _StreamState:
    """Bookkeeping for one in-progress ingest stream."""

    #: The stream's own bits; ``None`` for a stream handed its bits with
    #: every chunk (a shard of a sharded run), which has no cursor to
    #: capture mid-flight (``capture_engine``) or to draw from.
    bits: "_BitStream | None"
    packets: int = 0
    insertions: int = 0
    l1_saturations: int = 0
    elapsed: float = 0.0


class InstaMeasure:
    """Single-core InstaMeasure engine."""

    def __init__(
        self,
        config: "InstaMeasureConfig | None" = None,
        accountant: "AccessAccountant | None" = None,
    ) -> None:
        self.config = config or InstaMeasureConfig()
        self.regulator = FlowRegulator(
            self.config.l1_memory_bytes,
            vector_bits=self.config.vector_bits,
            word_bits=self.config.word_bits,
            saturation_fill=self.config.saturation_fill,
            seed=self.config.seed,
            accountant=accountant,
        )
        if self.config.engine == "batched" and not runs_kernel(self.config):
            raise ConfigurationError(
                "engine='batched' requires vector_bits <= 8; "
                "use engine='auto' to fall back"
            )
        self.wsaf = build_wsaf_table(self.config, accountant)
        self._rng = random.Random(self.config.seed ^ 0x5EED)
        self._stream: "_StreamState | None" = None

    # -- per-packet path -----------------------------------------------------

    def process_packet(
        self,
        flow_key: int,
        size: int,
        timestamp: float,
        five_tuple_packed: "int | None" = None,
        bit1: "int | None" = None,
        bit2: "int | None" = None,
        on_accumulate: "AccumulateCallback | None" = None,
    ) -> "tuple[float, float] | None":
        """Process one packet.

        ``bit1``/``bit2`` override the per-packet random bit choices (used
        by tests to pin the randomness stream); by default they are drawn
        from the engine's own RNG.

        Returns:
            The flow's accumulated WSAF ``(packets, bytes)`` if this packet
            caused an accumulation, else ``None``.
        """
        bits = self.config.vector_bits
        if bit1 is None:
            bit1 = self._rng.randrange(bits)
        if bit2 is None:
            bit2 = self._rng.randrange(bits)
        est_pkt = self.regulator.process(flow_key, bit1, bit2)
        if est_pkt is None:
            return None
        est_byte = est_pkt * size
        totals = self.wsaf.accumulate(
            flow_key, est_pkt, est_byte, timestamp, five_tuple_packed
        )
        if on_accumulate is not None:
            on_accumulate(flow_key, totals[0], totals[1], timestamp)
        return totals

    # -- trace path ------------------------------------------------------------

    def process_trace(
        self,
        trace: Trace,
        on_accumulate: "AccumulateCallback | None" = None,
        bits=None,
    ) -> MeasurementResult:
        """Process every packet of ``trace`` in timestamp order.

        Equivalent to calling :meth:`process_packet` per packet; the loop is
        manually specialized (placement hoisted per flow, randomness drawn
        up front, sketch state bound to locals) for pure-Python speed.
        Unless ``config.engine`` says ``"scalar"``, supported
        configurations run the chunked batched kernel
        (:mod:`repro.kernels`) instead — bit-identical, several times
        faster.

        ``bits`` is the streaming-ingest override: a pre-drawn slice of
        the stream's randomness, the ``(bits1, bits2)`` uint8 arrays of
        the two layers.  Callers other than :meth:`ingest` normally leave
        it unset and get the engine's own whole-trace draw: the one a
        known-length stream of this trace's length makes.
        """
        num_packets = trace.num_packets
        if bits is None:
            bits = _BitStream(self.config, num_packets).take(num_packets)
        if runs_kernel(self.config):
            start = time.perf_counter()
            counters = process_trace_batched(
                self, trace, bits, on_accumulate=on_accumulate
            )
            return self._fold_counters(counters, time.perf_counter() - start)
        regulator = self.regulator
        l1 = regulator.l1
        vector_bits = l1.vector_bits

        idx_by_flow, off_by_flow = l1.place_array(trace.flows.key64)
        idx_by_flow = idx_by_flow.tolist()
        off_by_flow = off_by_flow.tolist()
        keys = trace.flows.key64.tolist()
        packed_tuples = trace.flows.packed_tuples()

        bits1 = bits[0].tolist()
        bits2 = bits[1].tolist()

        flow_ids = trace.flow_ids.tolist()
        sizes = trace.sizes.tolist()
        timestamps = trace.timestamps.tolist()

        words1 = l1.words
        l2_words = [sketch.words for sketch in regulator.l2]
        bit_masks = l1._bit_masks
        window_masks = l1._window_masks
        noise_max = l1.noise_max
        decode = l1._decode_table
        accumulate = self.wsaf.accumulate

        packets = 0
        l1_saturations = 0
        insertions = 0
        l2_encoded = [0] * len(l2_words)
        l2_saturated = [0] * len(l2_words)

        start = time.perf_counter()
        for p in range(num_packets):
            flow = flow_ids[p]
            idx = idx_by_flow[flow]
            offset = off_by_flow[flow]
            window = window_masks[offset]
            masks = bit_masks[offset]
            packets += 1

            word = words1[idx] | masks[bits1[p]]
            zeros = vector_bits - (word & window).bit_count()
            if zeros > noise_max:
                words1[idx] = word
                continue
            # L1 saturated: recycle and push one bit into L2[noise].
            words1[idx] = word & ~window
            l1_saturations += 1
            words2 = l2_words[zeros]
            l2_encoded[zeros] += 1
            word2 = words2[idx] | masks[bits2[p]]
            zeros2 = vector_bits - (word2 & window).bit_count()
            if zeros2 > noise_max:
                words2[idx] = word2
                continue
            words2[idx] = word2 & ~window
            l2_saturated[zeros] += 1
            insertions += 1
            est_pkt = decode[zeros] * decode[zeros2]
            timestamp = timestamps[p]
            key = keys[flow]
            totals = accumulate(
                key, est_pkt, est_pkt * sizes[p], timestamp, packed_tuples[flow]
            )
            if on_accumulate is not None:
                on_accumulate(key, totals[0], totals[1], timestamp)
        elapsed = time.perf_counter() - start
        return self._fold_counters(
            BatchCounters(
                packets=packets,
                l1_saturations=l1_saturations,
                insertions=insertions,
                l2_encoded=l2_encoded,
                l2_saturated=l2_saturated,
            ),
            elapsed,
        )

    def _fold_counters(
        self, counters: BatchCounters, elapsed: float
    ) -> MeasurementResult:
        """Fold one FlowRegulator run's counters into the shared stats.

        The scalar loop and the kernel both end here, so both data paths
        leave identical sketch/regulator state behind.  Neither records
        per-access accounting as it goes, so the sketch accesses settle
        in bulk (WSAF accesses were recorded live by ``accumulate``): one
        read+write per packet on L1, plus one per L1 saturation on the
        chosen L2 bank.
        """
        regulator = self.regulator
        l1 = regulator.l1
        stats = regulator.stats
        stats.packets += counters.packets
        stats.l1_saturations += counters.l1_saturations
        stats.insertions += counters.insertions
        l1.packets_encoded += counters.packets
        l1.saturations += counters.l1_saturations
        for noise, sketch in enumerate(regulator.l2):
            sketch.packets_encoded += counters.l2_encoded[noise]
            sketch.saturations += counters.l2_saturated[noise]
        if l1.accountant is not None:
            l1.accountant.record(
                l1.label, reads=counters.packets, writes=counters.packets
            )
            for noise, sketch in enumerate(regulator.l2):
                sketch.accountant.record(
                    sketch.label,
                    reads=counters.l2_encoded[noise],
                    writes=counters.l2_encoded[noise],
                )
        return MeasurementResult(
            packets=counters.packets,
            insertions=counters.insertions,
            elapsed_seconds=elapsed,
            regulator_stats=RegulatorStats(
                packets=counters.packets,
                l1_saturations=counters.l1_saturations,
                insertions=counters.insertions,
            ),
            wsaf=self.wsaf,
        )

    # -- streaming ingestion (pipeline protocol) ---------------------------------

    def begin_stream(self, total: "int | None" = None) -> None:
        """Open an ingest stream explicitly, before the first chunk.

        Normally :meth:`ingest` opens the stream lazily from the first
        chunk's metadata; unknown-length shards and snapshot restore open
        it up front instead.  A known ``total`` draws the stream's whole
        bit sequence here (see :class:`_BitStream`); a shard handed its
        bits is never opened this way.
        """
        if self._stream is not None:
            raise ConfigurationError(
                "a stream is already in progress; finalize() it first"
            )
        self._stream = _StreamState(bits=_BitStream(self.config, total))

    def snapshot(self, key_range: "tuple[int, int] | None" = None):
        """This engine's complete state as a serializable
        :class:`~repro.state.snapshot.MeasurementSnapshot`.

        Captures regulator words/counters, every WSAF record with its
        bookkeeping, and — when a known-length stream is in progress —
        the RNG cursor, so ``InstaMeasure.from_snapshot(engine.snapshot())``
        resumes bit-identically.  See :mod:`repro.state`.
        """
        from repro.state.snapshot import capture_engine

        return capture_engine(self, key_range=key_range)

    @classmethod
    def from_snapshot(
        cls, snapshot, accountant: "AccessAccountant | None" = None
    ) -> "InstaMeasure":
        """Rebuild an engine from :meth:`snapshot` output (exact restore)."""
        from repro.state.snapshot import restore_engine

        return restore_engine(snapshot, accountant=accountant)

    def ingest(
        self,
        chunk,
        on_accumulate: "AccumulateCallback | None" = None,
        bits: "tuple[np.ndarray, np.ndarray] | None" = None,
    ) -> MeasurementResult:
        """Process one chunk of a stream, bit-identical to the whole trace.

        Implements the :class:`repro.pipeline.protocol.StreamingMeasurer`
        protocol.  The first chunk fixes the stream's randomness: when the
        source knows the stream length up front, the full bit sequence is
        drawn once — the exact draw :meth:`process_trace` would make on
        the concatenated trace — and consumed in slices, so regulator and
        WSAF state cross chunk boundaries with the same counters, records,
        and event order as the whole-trace path.

        ``bits`` is the sharded entry point: the chunk's ``(bits1,
        bits2)`` choices, selected by the router out of the run's one
        draw — exactly the bits a single-process run would hand those
        packets.  A stream opened by a chunk handed its bits draws
        nothing and must be handed them for every chunk; it cannot be
        captured mid-flight.
        """
        from repro.pipeline.protocol import chunk_total, chunk_trace

        trace = chunk_trace(chunk)
        if self._stream is None:
            self._stream = _StreamState(
                bits=None
                if bits is not None
                else _BitStream(self.config, chunk_total(chunk))
            )
        stream = self._stream
        count = trace.num_packets
        if bits is None:
            if stream.bits is None:
                raise ConfigurationError(
                    "this stream was handed its bits; hand them for every chunk"
                )
            bits = stream.bits.take(count)
        elif stream.bits is not None:
            raise ConfigurationError(
                "this stream draws its own bits; it cannot be handed any"
            )
        elif len(bits[0]) != count or len(bits[1]) != count:
            raise ConfigurationError(
                f"chunk has {count} packets but was handed "
                f"{len(bits[0])}/{len(bits[1])} bit choices"
            )
        result = self.process_trace(trace, on_accumulate=on_accumulate, bits=bits)
        stream.packets += result.packets
        stream.insertions += result.insertions
        stream.l1_saturations += result.regulator_stats.l1_saturations
        stream.elapsed += result.elapsed_seconds
        return result

    def finalize(self) -> MeasurementResult:
        """End the current stream and return its aggregate result.

        Resets only the stream bookkeeping; sketch and WSAF state stay
        live, so :meth:`estimates` and :meth:`estimates_for` read the
        finished measurement and a new stream continues on warm state.
        """
        stream = self._stream
        self._stream = None
        if stream is None:
            return MeasurementResult(
                packets=0,
                insertions=0,
                elapsed_seconds=0.0,
                regulator_stats=RegulatorStats(),
                wsaf=self.wsaf,
            )
        return MeasurementResult(
            packets=stream.packets,
            insertions=stream.insertions,
            elapsed_seconds=stream.elapsed,
            regulator_stats=RegulatorStats(
                packets=stream.packets,
                l1_saturations=stream.l1_saturations,
                insertions=stream.insertions,
            ),
            wsaf=self.wsaf,
        )

    def estimates(
        self, flow_keys=None
    ) -> "dict[int, tuple[float, float]]":
        """WSAF per-flow ``{key64: (packets, bytes)}`` estimates."""
        return self.wsaf.estimates(flow_keys=flow_keys)

    # -- long-run operation ------------------------------------------------------

    def rotate(
        self, now: float, wsaf_timeout: "float | None" = None
    ) -> "dict[int, tuple[float, float]]":
        """Periodic maintenance for multi-day runs.

        Snapshots the WSAF estimates, bulk-expires entries idle for longer
        than ``wsaf_timeout`` (defaults to the configured ``gc_timeout``),
        and resets the regulator's statistics window (sketch *contents* are
        left alone — retained counts must survive, or flows straddling the
        rotation would lose packets).

        Returns the snapshot taken before expiry, so callers can archive
        per-epoch measurements the way the paper's long campus run reports
        per-interval results.
        """
        snapshot = self.wsaf.estimates()
        timeout = wsaf_timeout if wsaf_timeout is not None else self.config.gc_timeout
        if timeout is not None:
            self.wsaf.expire_older_than(now - timeout)
        self.regulator.stats = RegulatorStats()
        return snapshot

    # -- results ---------------------------------------------------------------

    def estimates_for(
        self, trace: Trace, include_residual: bool = False
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Per-flow (packets, bytes) estimates aligned with ``trace.flows``.

        Flows absent from the WSAF estimate 0.  With ``include_residual``,
        the regulator's retained-but-unflushed residual is added (evaluation
        aid; see :meth:`FlowRegulator.residual_estimate`).
        """
        est_packets, est_bytes = aligned_estimates(self.wsaf, trace)
        if include_residual:
            residual = self.regulator.residual_estimate
            keys = trace.flows.key64.tolist()
            est_packets += np.array([residual(key) for key in keys])
        return est_packets, est_bytes


def aligned_estimates(store, trace: Trace) -> "tuple[np.ndarray, np.ndarray]":
    """Per-flow ``(packets, bytes)`` arrays aligned with ``trace.flows``.

    ``store`` is anything with ``estimates(flow_keys=...)`` returning a
    ``{key64: (packets, bytes)}`` mapping (a WSAF table, a snapshot);
    flows absent from it estimate 0.  A :class:`~repro.core.wsaf.WSAFTable`
    answers with its vectorized ``estimates_arrays`` instead of a
    per-flow dict walk.
    """
    estimates_arrays = getattr(store, "estimates_arrays", None)
    if estimates_arrays is not None:
        return estimates_arrays(trace.flows.key64)
    table = store.estimates(flow_keys=trace.flows.key64)
    est_packets = np.zeros(trace.num_flows)
    est_bytes = np.zeros(trace.num_flows)
    for flow_index, key in enumerate(trace.flows.key64.tolist()):
        record = table.get(key)
        if record is not None:
            est_packets[flow_index], est_bytes[flow_index] = record
    return est_packets, est_bytes


def run_measurement(
    trace: Trace,
    config: "InstaMeasureConfig | None" = None,
    on_accumulate: "AccumulateCallback | None" = None,
) -> "tuple[InstaMeasure, MeasurementResult]":
    """Convenience one-shot: build an engine, process ``trace``, return both."""
    engine = InstaMeasure(config)
    result = engine.process_trace(trace, on_accumulate=on_accumulate)
    return engine, result
