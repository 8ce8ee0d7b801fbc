"""Load shedding for the ingestion pipeline.

Without a controller the drivers pull chunks as fast as the source
produces them; when the offered rate exceeds what the measurer can
sustain, the only loss model is the open-loop :class:`~repro.simulate.
linkmodel.MirrorPort` pre-pass, which drops blindly.  This module gives
the pipeline one policy instead:

* :class:`ShedController` (``shed``) maps a chunk's offered rate on the
  *stream clock* (packets over the span of trace timestamps the chunk
  covers) to a :class:`ControlDecision`: pass the chunk, keep a
  deterministic seed-stable sample of it down to a target rate, or drop
  it.  ``none`` builds no controller at all.
* :class:`ChunkGovernor` is the mechanism the driver applies: it
  measures the offered rate, applies the decision (thin / drop) and
  keeps the running :class:`ControllerStats` and bounded decision
  history that ``PipelineResult`` / ``ShardedResult`` /
  ``MeasurementDaemon.stats()`` surface.

Determinism guarantee
---------------------

Shedding decisions depend **only** on the stream clock (trace
timestamps) and the configured target — never on wall-clock timings —
and the packet sampling mask is a pure function of ``(seed, global
packet position)`` via :func:`repro.hashing.mix.hash_u64_array`.  Two
runs over the same trace and offered-rate schedule with the same seed
therefore keep exactly the same packets and produce byte-identical
snapshots, and the mask does not change when the chunk geometry does.
The driver keeps the stream clock in its run record, which a recovered
daemon resumes from its checkpoint, so recovery keeps the same packets
too.  A thinned chunk keeps its source ``begin``; measurers take their
randomness in stream order, so no run reads a governed chunk's position.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, fields
from numbers import Integral

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.mix import hash_u64_array
from repro.pipeline.source import Chunk
from repro.traffic.packet import Trace

#: Policy names `build_load_controller` (and the CLI) accept.
LOAD_POLICY_CHOICES = ("none", "shed")


@dataclass(frozen=True)
class ControlDecision:
    """A controller's verdict for one chunk.

    ``action`` is ``"pass"`` (ingest as-is), ``"thin"`` (keep a
    deterministic ``keep_fraction`` sample of the chunk's packets), or
    ``"drop"`` (shed the whole chunk).
    """

    action: str = "pass"
    keep_fraction: float = 1.0


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

    @property
    def keep_rate(self) -> float:
        if self.offered_packets == 0:
            return 1.0
        return self.kept_packets / self.offered_packets

    def as_dict(self) -> "dict":
        """The tallies as a JSON-ready dict (the checkpoint manifest form,
        read back by :meth:`from_dict`)."""
        return {
            "policy": self.policy,
            "chunks": self.chunks,
            "offered_packets": self.offered_packets,
            "kept_packets": self.kept_packets,
            "dropped_packets": self.dropped_packets,
            "thinned_chunks": self.thinned_chunks,
            "dropped_chunks": self.dropped_chunks,
            "keep_rate": self.keep_rate,
        }

    @classmethod
    def from_dict(cls, tallies: "dict") -> "ControllerStats":
        """The stats :meth:`as_dict` recorded (``keep_rate`` is derived,
        so it is recomputed rather than read).

        Restored tallies must be ones a run can produce: every count a
        non-negative integer (``True`` or ``2.5`` is not a count), no
        more kept or dropped packets than offered, no more thinned or
        dropped chunks than chunks, and a policy in
        :data:`LOAD_POLICY_CHOICES`; anything else raises
        :class:`ValueError`.
        """
        policy = tallies["policy"]
        if policy not in LOAD_POLICY_CHOICES:
            raise ValueError(f"controller policy {policy!r} is not one of {LOAD_POLICY_CHOICES}")
        counts = {}
        for field in fields(cls):
            if field.name == "policy":
                continue
            value = tallies[field.name]
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 0:
                raise ValueError(
                    f"controller {field.name} {value!r} is not a non-negative integer"
                )
            counts[field.name] = int(value)
        for part, whole in (
            ("kept_packets", "offered_packets"),
            ("dropped_packets", "offered_packets"),
            ("thinned_chunks", "chunks"),
            ("dropped_chunks", "chunks"),
        ):
            if counts[part] > counts[whole]:
                raise ValueError(
                    f"controller {part} {counts[part]} exceeds {whole} {counts[whole]}"
                )
        return cls(policy=policy, **counts)


class ShedController:
    """``shed``: thin chunks down to ``target_pps`` with seed-stable sampling.

    While the offered rate (stream clock) stays at or below the target,
    chunks pass untouched.  Above it, each packet is kept independently
    with probability ``target_pps / offered_pps``, decided by a hash of
    its global stream position — so the kept set is identical across
    runs, chunk geometries, and sharded/single-process execution.  Estimates from a shed run are
    scaled back up by the recorded keep rate (``ControllerStats``
    carries exact counts), the same contract as
    :func:`repro.traffic.replay.thin`.
    """

    policy = "shed"

    def __init__(self, target_pps: float, seed: int = 0) -> None:
        if not (target_pps > 0) or not math.isfinite(target_pps):
            raise ConfigurationError(
                f"target_pps must be a positive finite rate, got {target_pps}"
            )
        self.target_pps = float(target_pps)
        self.seed = int(seed)

    def decide(self, offered_pps: float) -> ControlDecision:
        """The verdict for a chunk offered at ``offered_pps`` (stream
        clock; ``inf`` when the chunk spans no time, which drops it)."""
        if offered_pps <= self.target_pps:
            return _PASS
        keep = 0.0 if math.isinf(offered_pps) else self.target_pps / offered_pps
        if keep <= 0.0:
            return ControlDecision(action="drop", keep_fraction=0.0)
        return ControlDecision(action="thin", keep_fraction=keep)


def build_load_controller(
    policy: "str | None",
    target_pps: "float | None" = None,
    seed: int = 0,
) -> "ShedController | None":
    """Build a controller from CLI-shaped knobs.

    ``None`` / ``"none"`` returns ``None`` — the drivers then run their
    zero-overhead path.  ``shed`` requires a positive ``target_pps``.
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
    return ShedController(target_pps, seed=seed)


# -- mechanism: thinning and the governor --------------------------------------


def thin_mask(begin: int, end: int, keep_fraction: float, seed: int) -> np.ndarray:
    """The deterministic keep mask for global positions ``[begin, end)``.

    A packet is kept iff ``hash(position, seed) < keep_fraction * 2^64``
    — a pure function of the position, so the mask is identical for any
    chunk geometry covering the same span.
    """
    positions = np.arange(begin, end, dtype=np.uint64)
    threshold = np.uint64(min(int(keep_fraction * 2.0**64), 2**64 - 1))
    return hash_u64_array(positions, seed=seed) < threshold


def thin_chunk(chunk: Chunk, keep_fraction: float, seed: int) -> "Chunk | None":
    """Deterministically sample ``chunk``.

    Returns a chunk spanning ``[chunk.begin, chunk.begin + kept)`` whose
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
        begin=chunk.begin,
        end=chunk.begin + kept,
        epoch=chunk.epoch,
        total_packets=chunk.total_packets,
    )


class ChunkGovernor:
    """Apply a controller's decisions to a chunk stream.

    The mechanism behind ``Pipeline.step``, which every run loop —
    single-process, sharded, and the service daemon — goes through:
    measures each incoming chunk's offered rate, asks the controller,
    and turns the decision into the chunk to ingest: the chunk itself
    when it passes, its thinned sample, or nothing.

    Args:
        controller: the policy (a :class:`ShedController`).
        history: bound on :attr:`decisions` (``None`` keeps every one).
        stats: the :class:`ControllerStats` to count into — the driver
            passes its run record's, so a resumed run's tallies cover
            the whole stream; a fresh one when ``None``.

    Attributes:
        stats: running :class:`ControllerStats` for the pass.
        decisions: the most recent :class:`ControlDecisionRecord` per
            chunk (bounded by ``history`` when given).
    """

    def __init__(
        self,
        controller: ShedController,
        history: "int | None" = None,
        stats: "ControllerStats | None" = None,
    ) -> None:
        self.controller = controller
        self.seed = controller.seed
        self.stats = (
            stats if stats is not None else ControllerStats(policy=controller.policy)
        )
        self.decisions: "deque[ControlDecisionRecord]" = deque(maxlen=history)

    def admit(self, chunk: Chunk, since: "float | None" = None) -> "Chunk | None":
        """Decide on one chunk; return what survives of it, ``None``
        when it is shed entirely.

        The chunk's offered rate is its packets over the stream-clock
        span from ``since`` — the timestamp of the last packet offered
        before it, which the driver keeps — to its last packet (over the
        chunk's own span when ``since`` is ``None``); ``inf`` when the
        span is zero.  Deterministic: replaying the same trace measures
        the same rate, which keeps ``shed`` reproducible.
        """
        packets = chunk.num_packets
        if packets == 0:
            return chunk
        timestamps = chunk.trace.timestamps
        span = float(timestamps[-1]) - (
            float(timestamps[0]) if since is None else since
        )
        offered_pps = packets / span if span > 0 else float("inf")
        decision = self.controller.decide(offered_pps)

        if decision.action == "drop":
            kept_chunk = None
        elif decision.keep_fraction < 1.0:
            kept_chunk = thin_chunk(chunk, decision.keep_fraction, self.seed)
        else:
            kept_chunk = chunk
        kept = 0 if kept_chunk is None else kept_chunk.num_packets

        stats = self.stats
        stats.chunks += 1
        stats.offered_packets += packets
        stats.kept_packets += kept
        stats.dropped_packets += packets - kept
        if kept == 0:
            stats.dropped_chunks += 1
        elif kept < packets:
            stats.thinned_chunks += 1
        self.decisions.append(
            ControlDecisionRecord(
                chunk_index=chunk.index,
                action=decision.action,
                keep_fraction=decision.keep_fraction,
                offered_packets=packets,
                kept_packets=kept,
                offered_pps=offered_pps,
            )
        )
        return kept_chunk
