"""Load shedding for the ingestion pipeline.

Without a controller the drivers pull chunks as fast as the source
produces them; when the offered rate exceeds what the measurer can
sustain, the only loss model is the open-loop :class:`~repro.simulate.
linkmodel.MirrorPort` pre-pass, which drops blindly.  This module sheds
a known fraction instead, and its target rate is the whole setting: a
run sheds exactly when it is given a :class:`ShedController`.

:meth:`ShedController.admit` measures a chunk's offered rate on the
*stream clock* (packets over the span of trace timestamps the chunk
covers), and passes the chunk, keeps a deterministic seed-stable sample
of it down to the target rate, or drops it.  It returns what survives
and a :class:`ControlDecisionRecord`; the driver counts the records
into the run's :class:`ControllerStats` and keeps a bounded history of
them, which ``PipelineResult`` / ``ShardedResult`` /
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
randomness in stream order, so no run reads a shed chunk's position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.mix import hash_u64_array
from repro.pipeline.source import Chunk
from repro.traffic.packet import Trace

#: What older checkpoints recorded under the tallies' retired ``policy``
#: key; :meth:`ControllerStats.from_dict` accepts and drops these.
_RECORDED_POLICIES = ("none", "shed")


@dataclass(frozen=True)
class ControlDecisionRecord:
    """One applied decision, as surfaced on ``PipelineResult.decisions``.

    ``action`` is read off ``keep_fraction``: ``"pass"`` (1.0, ingested
    as-is), ``"drop"`` (0.0, shed whole) or ``"thin"`` (a deterministic
    sample of the chunk's packets).
    """

    chunk_index: int
    action: str
    keep_fraction: float
    offered_packets: int
    kept_packets: int
    offered_pps: float


@dataclass
class ControllerStats:
    """Aggregate effect of a controller over one run."""

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

    def count(self, record: ControlDecisionRecord) -> None:
        """Add one applied decision to the tallies."""
        offered, kept = record.offered_packets, record.kept_packets
        self.chunks += 1
        self.offered_packets += offered
        self.kept_packets += kept
        self.dropped_packets += offered - kept
        if kept == 0:
            self.dropped_chunks += 1
        elif kept < offered:
            self.thinned_chunks += 1

    def as_dict(self) -> "dict":
        """The tallies as a JSON-ready dict (the checkpoint manifest form,
        read back by :meth:`from_dict`)."""
        return {
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
        more kept or dropped packets than offered, and no more thinned or
        dropped chunks than chunks; anything else raises
        :class:`ValueError`.  Tallies an older checkpoint wrote may carry
        a ``policy``, which must be ``none`` or ``shed`` and is dropped.
        """
        if "policy" in tallies and tallies["policy"] not in _RECORDED_POLICIES:
            raise ValueError(
                f"controller policy {tallies['policy']!r} is not one of "
                f"{_RECORDED_POLICIES}"
            )
        counts = {}
        for field in fields(cls):
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
        return cls(**counts)


class ShedController:
    """Thin chunks down to ``target_pps`` with seed-stable sampling.

    While the offered rate (stream clock) stays at or below the target,
    chunks pass untouched.  Above it, each packet is kept independently
    with probability ``target_pps / offered_pps``, decided by a hash of
    its global stream position — so the kept set is identical across
    runs, chunk geometries, and sharded/single-process execution.  Estimates from a shed run are
    scaled back up by the recorded keep rate (``ControllerStats``
    carries exact counts), the same contract as
    :func:`repro.traffic.replay.thin`.  The controller keeps no state
    of its own: the driver keeps the stream clock and the tallies, so
    one controller serves any number of runs.
    """

    def __init__(self, target_pps: float, seed: int = 0) -> None:
        if not (target_pps > 0) or not math.isfinite(target_pps):
            raise ConfigurationError(
                f"target_pps must be a positive finite rate, got {target_pps}"
            )
        self.target_pps = float(target_pps)
        self.seed = int(seed)

    def decide(self, offered_pps: float) -> float:
        """The keep fraction for a chunk offered at ``offered_pps``
        (stream clock; ``inf`` when the chunk spans no time, which drops
        it): 1.0 passes, 0.0 drops, anything between thins."""
        if offered_pps <= self.target_pps:
            return 1.0
        return 0.0 if math.isinf(offered_pps) else self.target_pps / offered_pps

    def admit(
        self, chunk: Chunk, since: "float | None" = None
    ) -> "tuple[Chunk | None, ControlDecisionRecord]":
        """Decide on one chunk of at least one packet: ``(kept, record)``,
        where ``kept`` is what survives of the chunk (the chunk itself
        when it passes, ``None`` when it is shed entirely).

        The chunk's offered rate is its packets over the stream-clock
        span from ``since`` — the timestamp of the last packet offered
        before it, which the driver keeps — to its last packet (over the
        chunk's own span when ``since`` is ``None``); ``inf`` when the
        span is zero.  Deterministic: replaying the same trace measures
        the same rate, which keeps shedding reproducible.
        """
        packets = chunk.num_packets
        timestamps = chunk.trace.timestamps
        span = float(timestamps[-1]) - (
            float(timestamps[0]) if since is None else since
        )
        offered_pps = packets / span if span > 0 else float("inf")
        keep = self.decide(offered_pps)
        if keep >= 1.0:
            action, kept_chunk = "pass", chunk
        elif keep <= 0.0:
            action, kept_chunk = "drop", None
        else:
            action, kept_chunk = "thin", thin_chunk(chunk, keep, self.seed)
        record = ControlDecisionRecord(
            chunk_index=chunk.index,
            action=action,
            keep_fraction=keep,
            offered_packets=packets,
            kept_packets=0 if kept_chunk is None else kept_chunk.num_packets,
            offered_pps=offered_pps,
        )
        return kept_chunk, record


# -- mechanism: thinning ------------------------------------------------------


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
