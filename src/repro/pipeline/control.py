"""Closed-loop backpressure control for the ingestion pipeline.

The drivers historically pulled chunks as fast as the source produced
them; when the offered rate exceeded what the measurer could sustain,
the only loss model was the open-loop :class:`~repro.simulate.linkmodel.
MirrorPort` pre-pass — overload silently degraded accuracy with no
policy and no score.  This module closes the loop:

* :class:`LoadSignal` is the per-chunk observation the driver hands the
  controller between chunks: the offered rate on the *stream clock*
  (packets over the span of trace timestamps the chunk covers), the
  measured ingest rate and per-chunk ingest seconds (from the same
  timings :class:`~repro.pipeline.driver.PipelineResult` reports), and
  the staging-queue depth when the source is a
  :class:`~repro.pipeline.prefetch.PrefetchChunkSource`.
* :class:`LoadController` is the policy protocol: ``decide(signal)``
  returns a :class:`ControlDecision`.  Three policies ship —
  :class:`NoLoadController` (``none``: today's behavior, byte-for-byte),
  :class:`ShedController` (``shed``: deterministic seed-stable packet
  sampling down to a target rate), and :class:`DegradeController`
  (``degrade``: switch the running engine to a cheaper mode — larger
  chunk batching, which amortizes per-chunk dispatch overhead and is
  bit-exact by the chunking-invariance guarantee — plus capped thinning
  when batching alone cannot absorb the load, restoring pass-through
  once pressure clears).
* :class:`ChunkGovernor` is the mechanism the driver applies: it builds
  the signal, applies the decision (thin / drop / stage for a coalesced
  batch ingest), and keeps the running
  :class:`ControllerStats` and bounded decision history that
  ``PipelineResult`` / ``ShardedResult`` / ``MeasurementDaemon.stats()``
  surface.

Determinism guarantee for ``shed``
----------------------------------

Shedding decisions depend **only** on the stream clock (trace
timestamps) and the configured target — never on wall-clock timings —
and the packet sampling mask is a pure function of ``(seed, global
packet position)`` via :func:`repro.hashing.mix.hash_u64_array`.  Two
runs over the same trace and offered-rate schedule with the same seed
therefore keep exactly the same packets and produce byte-identical
snapshots, and the mask does not change when the chunk geometry does.

Kept packets are *rebased* onto a dense "kept stream": the chunk a
measurer actually ingests spans ``[kept_offset, kept_offset + kept)``,
so known-length sharded runs that gather randomness by position consume
exactly the bits a single-process shed run hands the same packets.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.mix import hash_u64_array
from repro.pipeline.source import Chunk
from repro.traffic.packet import Trace

#: Policy names `build_load_controller` (and the CLI) accept.
LOAD_POLICY_CHOICES = ("none", "shed", "degrade")


@dataclass(frozen=True)
class LoadSignal:
    """What the driver observes between two chunks.

    Attributes:
        chunk_index: the incoming chunk's stream index.
        offered_packets: packets in the incoming chunk.
        offered_pps: offered rate on the *stream clock* — the chunk's
            packets over the timestamp span it covers (since the
            previous chunk's last packet).  ``inf`` when the span is
            zero.  Deterministic: replaying the same trace yields the
            same signal, which is what keeps ``shed`` reproducible.
        ingested_pps: measured ingest rate so far this run (packets per
            wall-clock second inside ``ingest``); 0 before any chunk.
        queue_depth: chunks staged in the prefetch queue, when the
            source exposes one (else 0).  A persistently full queue
            means ingestion is the bottleneck.
        ingest_seconds: wall-clock seconds the *previous* chunk's
            ingest took (the per-chunk timing ``PipelineResult``
            records); 0 before any chunk.
    """

    chunk_index: int
    offered_packets: int
    offered_pps: float
    ingested_pps: float = 0.0
    queue_depth: int = 0
    ingest_seconds: float = 0.0


@dataclass(frozen=True)
class ControlDecision:
    """A controller's verdict for one chunk.

    ``action`` is ``"pass"`` (ingest as-is), ``"thin"`` (keep a
    deterministic ``keep_fraction`` sample of the chunk's packets), or
    ``"drop"`` (shed the whole chunk).  ``batch_chunks > 1`` asks the
    governor to stage kept chunks and ingest them as one coalesced
    chunk — the degraded "cheaper mode".  ``degraded`` marks decisions
    taken while a controller is in its degraded mode (for stats and
    the restore-when-clear tests).
    """

    action: str = "pass"
    keep_fraction: float = 1.0
    batch_chunks: int = 1
    degraded: bool = False


_PASS = ControlDecision()


@dataclass(frozen=True)
class ControlDecisionRecord:
    """One applied decision, as surfaced on ``PipelineResult.decisions``."""

    chunk_index: int
    action: str
    keep_fraction: float
    offered_packets: int
    kept_packets: int
    offered_pps: float
    batch_chunks: int = 1
    degraded: bool = False


@dataclass
class ControllerStats:
    """Aggregate effect of a controller over one run."""

    policy: str = "none"
    chunks: int = 0
    offered_packets: int = 0
    kept_packets: int = 0
    dropped_packets: int = 0
    thinned_chunks: int = 0
    dropped_chunks: int = 0
    degraded_chunks: int = 0
    batched_ingests: int = 0

    @property
    def keep_rate(self) -> float:
        if self.offered_packets == 0:
            return 1.0
        return self.kept_packets / self.offered_packets

    def as_dict(self) -> "dict":
        return {
            "policy": self.policy,
            "chunks": self.chunks,
            "offered_packets": self.offered_packets,
            "kept_packets": self.kept_packets,
            "dropped_packets": self.dropped_packets,
            "thinned_chunks": self.thinned_chunks,
            "dropped_chunks": self.dropped_chunks,
            "degraded_chunks": self.degraded_chunks,
            "batched_ingests": self.batched_ingests,
            "keep_rate": self.keep_rate,
        }


class LoadController:
    """Policy protocol: map a :class:`LoadSignal` to a :class:`ControlDecision`.

    Implementations carry a ``policy`` name, an optional ``seed`` (the
    governor's sampling seed), and may keep state between calls (the
    degrade controller's mode flag).  ``decide`` must be a function of
    the signal's *deterministic* fields only if the policy wants the
    reproducibility guarantee ``shed`` gives.
    """

    policy: str = "none"
    seed: int = 0

    def decide(self, signal: LoadSignal) -> ControlDecision:
        raise NotImplementedError


class NoLoadController(LoadController):
    """``none``: pass every chunk through untouched (today's behavior)."""

    policy = "none"

    def decide(self, signal: LoadSignal) -> ControlDecision:
        return _PASS


class ShedController(LoadController):
    """``shed``: thin chunks down to ``target_pps`` with seed-stable sampling.

    While the offered rate (stream clock) stays at or below the target,
    chunks pass untouched.  Above it, each packet is kept independently
    with probability ``target_pps / offered_pps`` (floored at
    ``min_keep``), decided by a hash of its global stream position — so
    the kept set is identical across runs, chunk geometries, and
    sharded/single-process execution.  Estimates from a shed run are
    scaled back up by the recorded keep rate (``ControllerStats``
    carries exact counts), the same contract as
    :func:`repro.traffic.replay.thin`.
    """

    policy = "shed"

    def __init__(
        self, target_pps: float, seed: int = 0, min_keep: float = 0.0
    ) -> None:
        if not (target_pps > 0) or not math.isfinite(target_pps):
            raise ConfigurationError(
                f"target_pps must be a positive finite rate, got {target_pps}"
            )
        if not 0.0 <= min_keep <= 1.0:
            raise ConfigurationError(
                f"min_keep must be in [0, 1], got {min_keep}"
            )
        self.target_pps = float(target_pps)
        self.seed = int(seed)
        self.min_keep = float(min_keep)

    def decide(self, signal: LoadSignal) -> ControlDecision:
        if signal.offered_pps <= self.target_pps:
            return _PASS
        if math.isinf(signal.offered_pps):
            keep = self.min_keep
        else:
            keep = max(self.min_keep, self.target_pps / signal.offered_pps)
        if keep <= 0.0:
            return ControlDecision(action="drop", keep_fraction=0.0)
        return ControlDecision(action="thin", keep_fraction=keep)


class DegradeController(LoadController):
    """``degrade``: switch to a cheaper ingest mode under pressure.

    When the offered rate exceeds ``target_pps`` the controller enters
    degraded mode: kept chunks are staged and ingested as one coalesced
    batch of ``batch_chunks`` chunks (bit-exact by the pipeline's
    chunking-invariance guarantee, and cheaper because per-chunk
    dispatch overhead is amortized — ``boost`` is the measured batching
    speedup, so the sustainable budget becomes ``boost * target_pps``),
    and thinning only starts once the offered rate exceeds even that
    boosted budget.  Pass-through resumes after ``cooldown``
    consecutive under-target chunks (hysteresis, so the mode does not
    flap on a single quiet chunk).

    Decisions depend only on stream-clock signals, so degrade runs are
    as reproducible as shed runs.
    """

    policy = "degrade"

    def __init__(
        self,
        target_pps: float,
        batch_chunks: int = 8,
        boost: float = 1.5,
        cooldown: int = 2,
        seed: int = 0,
        min_keep: float = 0.0,
    ) -> None:
        if not (target_pps > 0) or not math.isfinite(target_pps):
            raise ConfigurationError(
                f"target_pps must be a positive finite rate, got {target_pps}"
            )
        if batch_chunks < 1:
            raise ConfigurationError(
                f"batch_chunks must be >= 1, got {batch_chunks}"
            )
        if boost < 1.0 or not math.isfinite(boost):
            raise ConfigurationError(
                f"boost must be a finite factor >= 1, got {boost}"
            )
        if cooldown < 1:
            raise ConfigurationError(f"cooldown must be >= 1, got {cooldown}")
        if not 0.0 <= min_keep <= 1.0:
            raise ConfigurationError(
                f"min_keep must be in [0, 1], got {min_keep}"
            )
        self.target_pps = float(target_pps)
        self.batch_chunks = int(batch_chunks)
        self.boost = float(boost)
        self.cooldown = int(cooldown)
        self.seed = int(seed)
        self.min_keep = float(min_keep)
        self._degraded = False
        self._quiet_chunks = 0

    @property
    def degraded(self) -> bool:
        """Whether the controller is currently in degraded mode."""
        return self._degraded

    def decide(self, signal: LoadSignal) -> ControlDecision:
        if signal.offered_pps > self.target_pps:
            self._degraded = True
            self._quiet_chunks = 0
        elif self._degraded:
            self._quiet_chunks += 1
            if self._quiet_chunks >= self.cooldown:
                self._degraded = False
        if not self._degraded:
            return _PASS
        budget = self.target_pps * self.boost
        if math.isinf(signal.offered_pps):
            keep = self.min_keep
        else:
            keep = min(1.0, max(self.min_keep, budget / signal.offered_pps))
        if keep <= 0.0:
            return ControlDecision(
                action="drop",
                keep_fraction=0.0,
                batch_chunks=self.batch_chunks,
                degraded=True,
            )
        return ControlDecision(
            action="thin" if keep < 1.0 else "pass",
            keep_fraction=keep,
            batch_chunks=self.batch_chunks,
            degraded=True,
        )


def build_load_controller(
    policy: "str | None",
    target_pps: "float | None" = None,
    seed: int = 0,
    batch_chunks: int = 8,
    boost: float = 1.5,
    min_keep: float = 0.0,
) -> "LoadController | None":
    """Build a controller from CLI-shaped knobs.

    ``None`` / ``"none"`` returns ``None`` — the drivers then run their
    historical zero-overhead path.  ``shed`` and ``degrade`` require a
    positive ``target_pps``.
    """
    if policy is None or policy == "none":
        return None
    if policy not in LOAD_POLICY_CHOICES:
        raise ConfigurationError(
            f"unknown load policy {policy!r}; choices: "
            + ", ".join(LOAD_POLICY_CHOICES)
        )
    if target_pps is None:
        raise ConfigurationError(
            f"--load-policy {policy} requires --target-pps"
        )
    if policy == "shed":
        return ShedController(target_pps, seed=seed, min_keep=min_keep)
    return DegradeController(
        target_pps,
        batch_chunks=batch_chunks,
        boost=boost,
        seed=seed,
        min_keep=min_keep,
    )


# -- mechanism: thinning, coalescing, and the governor ------------------------


def thin_mask(begin: int, end: int, keep_fraction: float, seed: int) -> np.ndarray:
    """The deterministic keep mask for global positions ``[begin, end)``.

    A packet is kept iff ``hash(position, seed) < keep_fraction * 2^64``
    — a pure function of the position, so the mask is identical for any
    chunk geometry covering the same span.
    """
    positions = np.arange(begin, end, dtype=np.uint64)
    threshold = np.uint64(min(int(keep_fraction * 2.0**64), 2**64 - 1))
    return hash_u64_array(positions, seed=seed) < threshold


def thin_chunk(
    chunk: Chunk, keep_fraction: float, seed: int, kept_begin: int
) -> "Chunk | None":
    """Deterministically sample ``chunk`` and rebase it onto the kept stream.

    Returns a chunk spanning ``[kept_begin, kept_begin + kept)`` whose
    trace holds only the kept packets, or ``None`` when the mask keeps
    nothing.  ``total_packets`` is preserved (the measurer's randomness
    draw is still sized by the original stream).
    """
    keep = thin_mask(chunk.begin, chunk.end, keep_fraction, seed)
    kept = int(np.count_nonzero(keep))
    if kept == 0:
        return None
    trace = chunk.trace
    sub = Trace(
        timestamps=trace.timestamps[keep],
        flow_ids=trace.flow_ids[keep],
        sizes=trace.sizes[keep],
        flows=trace.flows,
    )
    return Chunk(
        trace=sub,
        index=chunk.index,
        begin=kept_begin,
        end=kept_begin + kept,
        epoch=chunk.epoch,
        total_packets=chunk.total_packets,
    )


def _rebase_chunk(chunk: Chunk, kept_begin: int) -> Chunk:
    """The same packets at a new kept-stream span (trace untouched)."""
    return Chunk(
        trace=chunk.trace,
        index=chunk.index,
        begin=kept_begin,
        end=kept_begin + chunk.num_packets,
        epoch=chunk.epoch,
        total_packets=chunk.total_packets,
        parent=chunk.parent,
    )


def coalesce_chunks(chunks: "list[Chunk]") -> Chunk:
    """Concatenate consecutive kept-stream chunks into one.

    Bit-exact by the chunking-invariance guarantee: ingesting the
    coalesced chunk consumes exactly the bits the chunks would consume
    one at a time.  The chunks must be contiguous on the kept stream
    and share one flow table (the governor guarantees both).
    """
    if len(chunks) == 1:
        return chunks[0]
    first, last = chunks[0], chunks[-1]
    flows = first.trace.flows
    for other in chunks[1:]:
        if other.trace.flows is not flows:
            raise ConfigurationError(
                "cannot coalesce chunks from different flow tables"
            )
    trace = Trace(
        timestamps=np.concatenate([c.trace.timestamps for c in chunks]),
        flow_ids=np.concatenate([c.trace.flow_ids for c in chunks]),
        sizes=np.concatenate([c.trace.sizes for c in chunks]),
        flows=flows,
    )
    return Chunk(
        trace=trace,
        index=first.index,
        begin=first.begin,
        end=last.end,
        epoch=first.epoch,
        total_packets=first.total_packets,
    )


class ChunkGovernor:
    """Apply a controller's decisions to a chunk stream.

    The mechanism behind ``Pipeline.step``, which every run loop —
    single-process, sharded, and the service daemon — goes through:
    builds the :class:`LoadSignal` for each
    incoming chunk, asks the controller, and turns the decision into
    ready-to-ingest chunks — thinning and rebasing onto the dense kept
    stream, staging chunks while a degraded-mode batch fills, and
    flushing the batch whenever the policy returns to per-chunk mode,
    the epoch or flow table changes, or the stream ends.

    Attributes:
        stats: running :class:`ControllerStats` for the pass.
        decisions: the most recent :class:`ControlDecisionRecord` per
            chunk (bounded by ``history`` when given).
    """

    def __init__(
        self, controller: LoadController, history: "int | None" = None
    ) -> None:
        self.controller = controller
        self.seed = int(getattr(controller, "seed", 0))
        self.stats = ControllerStats(
            policy=getattr(controller, "policy", "custom")
        )
        self.decisions: "deque[ControlDecisionRecord]" = deque(maxlen=history)
        self._pending: "list[Chunk]" = []
        self._kept_offset: "int | None" = None
        self._last_stream_time: "float | None" = None

    @property
    def pending_chunks(self) -> int:
        """Chunks staged for the next coalesced batch ingest."""
        return len(self._pending)

    def _signal(
        self,
        chunk: Chunk,
        ingested_pps: float,
        queue_depth: int,
        ingest_seconds: float,
    ) -> LoadSignal:
        packets = chunk.num_packets
        timestamps = chunk.trace.timestamps
        last = float(timestamps[-1])
        if self._last_stream_time is None:
            span = last - float(timestamps[0])
        else:
            span = last - self._last_stream_time
        self._last_stream_time = last
        offered_pps = packets / span if span > 0 else float("inf")
        return LoadSignal(
            chunk_index=chunk.index,
            offered_packets=packets,
            offered_pps=offered_pps,
            ingested_pps=ingested_pps,
            queue_depth=queue_depth,
            ingest_seconds=ingest_seconds,
        )

    def admit(
        self,
        chunk: Chunk,
        ingested_pps: float = 0.0,
        queue_depth: int = 0,
        ingest_seconds: float = 0.0,
    ) -> "list[Chunk]":
        """Decide on one chunk; return the chunks ready to ingest now.

        The result is 0, 1, or 2 chunks: a flushed pending batch (when
        the incoming chunk cannot join it), then the incoming chunk's
        surviving packets (unless staged for a later batch or dropped).
        """
        packets = chunk.num_packets
        if packets == 0:
            return [chunk]
        if self._kept_offset is None:
            # The kept stream starts where the original stream does, so
            # a controller that never sheds leaves chunks untouched.
            self._kept_offset = chunk.begin
        signal = self._signal(chunk, ingested_pps, queue_depth, ingest_seconds)
        decision = self.controller.decide(signal)

        stats = self.stats
        stats.chunks += 1
        stats.offered_packets += packets

        ready: "list[Chunk]" = []
        if self._pending and (
            decision.batch_chunks <= 1
            or chunk.trace.flows is not self._pending[0].trace.flows
            or chunk.epoch != self._pending[0].epoch
        ):
            flushed = self.flush()
            if flushed is not None:
                ready.append(flushed)

        if decision.action == "drop" or (
            decision.action == "thin" and decision.keep_fraction <= 0.0
        ):
            kept_chunk = None
        elif decision.action == "thin" and decision.keep_fraction < 1.0:
            kept_chunk = thin_chunk(
                chunk, decision.keep_fraction, self.seed, self._kept_offset
            )
        elif self._kept_offset == chunk.begin:
            kept_chunk = chunk
        else:
            kept_chunk = _rebase_chunk(chunk, self._kept_offset)
        kept = 0 if kept_chunk is None else kept_chunk.num_packets
        self._kept_offset += kept

        stats.kept_packets += kept
        stats.dropped_packets += packets - kept
        if kept == 0:
            stats.dropped_chunks += 1
        elif kept < packets:
            stats.thinned_chunks += 1
        if decision.degraded:
            stats.degraded_chunks += 1
        self.decisions.append(
            ControlDecisionRecord(
                chunk_index=chunk.index,
                action=decision.action,
                keep_fraction=decision.keep_fraction,
                offered_packets=packets,
                kept_packets=kept,
                offered_pps=signal.offered_pps,
                batch_chunks=decision.batch_chunks,
                degraded=decision.degraded,
            )
        )

        if kept_chunk is not None:
            if decision.batch_chunks > 1:
                self._pending.append(kept_chunk)
                if len(self._pending) >= decision.batch_chunks:
                    flushed = self.flush()
                    if flushed is not None:
                        ready.append(flushed)
            else:
                ready.append(kept_chunk)
        return ready

    def flush(self) -> "Chunk | None":
        """Coalesce and hand back any staged batch (``None`` when empty)."""
        if not self._pending:
            return None
        pending, self._pending = self._pending, []
        if len(pending) > 1:
            self.stats.batched_ingests += 1
        return coalesce_chunks(pending)
