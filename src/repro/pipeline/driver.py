"""The :class:`Pipeline` driver — the repository's one run loop.

Feeds any :class:`~repro.pipeline.protocol.StreamingMeasurer` from any
:class:`~repro.pipeline.source.ChunkSource`, timing each ``ingest`` call,
firing an epoch callback at every epoch boundary (including empty epochs,
so periodic consumers see every tick), and returning the measurer's
finalized result together with per-chunk throughput stats.

The loop comes apart into :meth:`Pipeline.begin` / :meth:`Pipeline.step`
/ :meth:`Pipeline.finish` so a long-lived driver (the service daemon)
can push chunks one at a time — interleaving checkpoints and control
queries between steps — while :meth:`Pipeline.run` remains the one-call
batch form built on exactly those pieces.  How far a run has read its
stream lives in one :class:`RunProgress` record that only
:meth:`Pipeline.step` advances: a checkpoint writes it
(:meth:`RunProgress.as_meta`) and ``begin(source, resume=...)``
continues it, so a recovered run counts the whole stream.  The source
owns the epoch grid (:class:`~repro.pipeline.source.EpochGrid`);
unbounded sources (``total_packets is None``) pick their epoch origin up
once they have seen their first packet.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, SnapshotError
from repro.pipeline.control import ChunkGovernor, ControllerStats, ShedController
from repro.pipeline.protocol import supports_rotate
from repro.pipeline.source import ChunkSource, EpochGrid, as_chunk_source


@dataclass
class ChunkStats:
    """Timing of one ``ingest`` call."""

    index: int
    packets: int
    seconds: float
    epoch: int = 0

    @property
    def pps(self) -> float:
        return self.packets / self.seconds if self.seconds > 0 else 0.0


@dataclass
class EpochRecord:
    """One epoch boundary the driver fired.

    ``end_time`` is the boundary on the stream clock (NaN while the
    origin is unknown), and ``packets_so_far`` counts the packets measured
    over the whole stream up to it.  ``snapshot`` holds what the
    measurer's ``rotate(now)`` returned when the pipeline was built with
    ``rotate=True`` (and the measurer has the hook), else ``None``.
    """

    index: int
    end_time: float
    packets_so_far: int
    snapshot: "object | None" = None


@dataclass
class RunProgress:
    """How far a run has read its stream; :meth:`Pipeline.step` alone
    advances it.

    ``position`` is the stream position after the last chunk stepped,
    ``packets`` the packets the source offered and ``measured_packets``
    those that reached the measurer (fewer when a load controller shed
    some); ``chunks`` counts the chunks stepped, shed ones included.
    ``epoch`` is the epoch the stream is inside, on the grid the source
    cuts: ``epoch_seconds`` wide from the origin ``start_time``.
    ``stream_time`` is the timestamp of the last packet stepped (the load
    controller measures the next chunk's offered rate from it), and
    ``controller`` holds the load controller's tallies (``None`` without
    a controller).  These are the checkpoint manifest's fields
    (:meth:`as_meta`, :meth:`from_meta`).

    ``ingest_packets`` and ``ingest_seconds`` are this process's share —
    the packets its ``ingest`` calls measured and the seconds they took —
    and are not persisted.
    """

    position: int = 0
    packets: int = 0
    measured_packets: int = 0
    chunks: int = 0
    epoch: int = 0
    epoch_seconds: "float | None" = None
    start_time: "float | None" = None
    stream_time: "float | None" = None
    controller: "ControllerStats | None" = None
    ingest_packets: int = 0
    ingest_seconds: float = 0.0

    def as_meta(self) -> "dict":
        """The record as checkpoint manifest fields."""
        return {
            "position": self.position,
            "packets": self.packets,
            "measured_packets": self.measured_packets,
            "chunks": self.chunks,
            "epoch": self.epoch,
            "epoch_seconds": self.epoch_seconds,
            "start_time": self.start_time,
            "stream_time": self.stream_time,
            "controller": (
                self.controller.as_dict() if self.controller is not None else None
            ),
        }

    @classmethod
    def from_meta(cls, meta: "dict") -> "RunProgress":
        """The record a checkpoint manifest holds, checked.

        Counts must be non-negative ints, ``epoch_seconds`` a positive
        finite number or null, the two stream times finite numbers or
        null, and the ``controller`` tallies must decode through
        :meth:`ControllerStats.from_dict`.  With a width and both times
        known, ``epoch`` must be within one of the epoch its grid puts
        ``stream_time`` in (one, because older manifests took it from a
        floor division).  Absent fields take the values a fresh stream
        starts from (``measured_packets`` defaults to ``packets``).
        Anything else raises :class:`~repro.errors.SnapshotError`.
        """

        def count(name: str, default: int = 0) -> int:
            value = meta.get(name, default)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise SnapshotError(
                    f"checkpoint {name} {value!r} is not a non-negative integer"
                )
            return value

        def moment(name: str) -> "float | None":
            value = meta.get(name)
            if value is not None and (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not math.isfinite(value)
            ):
                raise SnapshotError(f"checkpoint {name} {value!r} is not a finite time")
            return value

        controller = meta.get("controller")
        if controller is not None:
            try:
                controller = ControllerStats.from_dict(controller)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise SnapshotError(
                    f"checkpoint controller tallies do not decode: {exc!r}"
                ) from exc
        epoch_seconds = moment("epoch_seconds")
        if epoch_seconds is not None and epoch_seconds <= 0:
            raise SnapshotError(
                f"checkpoint epoch_seconds {epoch_seconds!r} is not positive"
            )
        epoch = count("epoch")
        start_time = moment("start_time")
        stream_time = moment("stream_time")
        if None not in (epoch_seconds, start_time, stream_time):
            try:
                on_grid = EpochGrid(start_time, epoch_seconds).epoch_of(stream_time)
            except ConfigurationError as exc:
                raise SnapshotError(f"checkpoint grid: {exc}") from exc
            if abs(epoch - on_grid) > 1:
                raise SnapshotError(
                    f"checkpoint epoch {epoch} is not its stream time's "
                    f"epoch {on_grid}"
                )
        packets = count("packets")
        return cls(
            position=count("position"),
            packets=packets,
            measured_packets=count("measured_packets", packets),
            chunks=count("chunks"),
            epoch=epoch,
            epoch_seconds=epoch_seconds,
            start_time=start_time,
            stream_time=stream_time,
            controller=controller,
        )

    def check_source(self, source) -> None:
        """Raise :class:`~repro.errors.ConfigurationError` unless the run
        this record counts can go on over ``source``: the source cuts the
        record's epoch width from the record's origin (an unknown width
        or origin on either side matches)."""
        if self.epoch_seconds not in (None, source.epoch_seconds):
            raise ConfigurationError(
                f"the run to resume cut {self.epoch_seconds}-s epochs, "
                f"the source cuts {source.epoch_seconds}"
            )
        if None not in (self.start_time, source.start_time) and (
            self.start_time != source.start_time
        ):
            raise ConfigurationError(
                f"the run to resume numbers epochs from {self.start_time}, "
                f"the source from {source.start_time}"
            )


@dataclass
class PipelineResult:
    """Outcome of one pipeline run.

    ``packets`` counts the packets measured and ``offered_packets`` those
    the source offered, both over the whole stream (a resumed run
    included).  When the pipeline ran with a load controller,
    ``decisions`` holds the controller's per-chunk
    :class:`~repro.pipeline.control.ControlDecisionRecord` entries
    (bounded by the driver's ``history``), and ``controller_stats`` is
    the aggregate :meth:`~repro.pipeline.control.ControllerStats.as_dict`.
    Without a controller ``offered_packets == packets`` and the other
    two stay empty/``None``.  ``elapsed_seconds`` is the time this
    process spent inside ``ingest`` (source slicing excluded), counted
    over every chunk whether or not ``chunks`` kept it, and ``pps`` the
    packets this process measured over it.
    """

    result: object
    measurer: object
    packets: int
    chunks: "list[ChunkStats]" = field(default_factory=list)
    epochs: "list[EpochRecord]" = field(default_factory=list)
    offered_packets: int = 0
    decisions: list = field(default_factory=list)
    controller_stats: "dict | None" = None
    elapsed_seconds: float = 0.0
    pps: float = 0.0


@dataclass
class _RunState:
    """Bookkeeping of one in-progress :meth:`Pipeline.begin` run."""

    source: ChunkSource
    governor: "ChunkGovernor | None" = None
    chunks: "list[ChunkStats]" = field(default_factory=list)
    epochs: "list[EpochRecord]" = field(default_factory=list)


class Pipeline:
    """Drive a streaming measurer over a chunked packet stream.

    Args:
        measurer: any :class:`~repro.pipeline.protocol.StreamingMeasurer`.
        on_epoch: ``callback(record, measurer)`` fired once per epoch the
            source cuts (its ``epoch_seconds``), in order, after the
            epoch's last chunk was ingested (empty epochs fire too).  The
            final partial epoch fires before ``finalize``.
        rotate: call the measurer's optional ``rotate(end_time)`` at each
            boundary and store its snapshot on the
            :class:`EpochRecord` (periodic maintenance for long runs).
        on_accumulate: forwarded to ``ingest`` for measurers that accept
            an accumulation callback (the InstaMeasure engines); leave
            ``None`` for measurers that do not.
        history: keep at most this many :class:`ChunkStats` /
            :class:`EpochRecord` entries (oldest dropped); ``None`` keeps
            everything.  An always-on driver must bound these lists or an
            unbounded run grows without limit — aggregate counters
            (``packets``, ``elapsed_seconds`` etc.) are unaffected by
            trimming.
        controller: an optional
            :class:`~repro.pipeline.control.ShedController`.  When given,
            the driver consults it between chunks: :meth:`step` may thin
            the chunk, or drop it (and then returns ``None``).  ``None``
            keeps the zero-overhead path, bit for bit.

    Attributes:
        progress: the :class:`RunProgress` of the current run, or of the
            last one once it finished or aborted.
    """

    def __init__(
        self,
        measurer,
        on_epoch=None,
        rotate: bool = False,
        on_accumulate=None,
        history: "int | None" = None,
        controller: "ShedController | None" = None,
    ) -> None:
        self.measurer = measurer
        self.on_epoch = on_epoch
        self.rotate = rotate
        self.on_accumulate = on_accumulate
        if history is not None and history < 1:
            raise ConfigurationError("history must be a positive count or None")
        self.history = history
        self.controller = controller
        self.progress = RunProgress()
        self._run: "_RunState | None" = None

    # -- incremental interface -------------------------------------------------

    def begin(self, source, resume: "RunProgress | None" = None) -> None:
        """Open an incremental run over ``source``; feed it with :meth:`step`.

        The source owns the epoch grid: its ``epoch_seconds``, and its
        ``start_time`` once known (an unbounded source learns it from its
        first packet).  ``resume`` continues an earlier run's record in
        place — the recovery path, a checkpoint's
        :meth:`RunProgress.from_meta`: the epoch cadence, the packet and
        chunk counts, the stream clock and the load controller's tallies
        go on from it, and a source that has not seen a packet yet takes
        its epoch origin.  A record of another epoch width or origin than
        the source's raises :class:`~repro.errors.ConfigurationError`
        (:meth:`RunProgress.check_source`) and changes nothing; an
        unknown width or origin takes the source's.
        """
        if self._run is not None:
            raise ConfigurationError(
                "a pipeline run is already in progress; finish() or abort() it"
            )
        progress = resume if resume is not None else RunProgress()
        progress.check_source(source)
        progress.epoch_seconds = source.epoch_seconds
        if progress.start_time is None:
            progress.start_time = source.start_time
        elif source.start_time is None:
            # The re-opened source must grid its epochs as the resumed run did.
            source.start_time = progress.start_time
        governor = None
        if self.controller is None:
            progress.controller = None
        else:
            if progress.controller is None:
                progress.controller = ControllerStats(policy=self.controller.policy)
            governor = ChunkGovernor(
                self.controller, history=self.history, stats=progress.controller
            )
        self.progress = progress
        self._run = _RunState(source=source, governor=governor)

    def step(self, chunk) -> "ChunkStats | None":
        """Ingest one chunk, firing any epoch boundaries it crossed.

        With a load controller the chunk is first run through the
        governor: the returned stats cover the packets it kept, and
        ``None`` means the chunk was shed entirely.
        """
        run = self._run
        if run is None:
            raise ConfigurationError("no run in progress; begin() first")
        progress = self.progress
        if progress.start_time is None:
            progress.start_time = run.source.start_time
        if progress.epoch_seconds is not None:
            while progress.epoch < chunk.epoch:
                self._fire(run)
                progress.epoch += 1
        since = progress.stream_time
        progress.position = chunk.end
        progress.packets += chunk.num_packets
        progress.chunks += 1
        if chunk.num_packets:
            progress.stream_time = float(chunk.trace.timestamps[-1])
        if run.governor is not None:
            chunk = run.governor.admit(chunk, since)
            if chunk is None:
                return None
        return self._ingest(run, chunk)

    def _ingest(self, run: _RunState, chunk) -> ChunkStats:
        """Time one actual ``ingest`` call and record its stats."""
        measurer = self.measurer
        begin = time.perf_counter()
        if self.on_accumulate is not None:
            measurer.ingest(chunk, on_accumulate=self.on_accumulate)
        else:
            measurer.ingest(chunk)
        seconds = time.perf_counter() - begin
        progress = self.progress
        progress.measured_packets += chunk.num_packets
        progress.ingest_packets += chunk.num_packets
        progress.ingest_seconds += seconds
        stats = ChunkStats(
            index=chunk.index,
            packets=chunk.num_packets,
            seconds=seconds,
            epoch=chunk.epoch,
        )
        run.chunks.append(stats)
        self._trim(run.chunks)
        return stats

    def finish(self) -> PipelineResult:
        """Fire the final partial epoch, finalize the measurer, report."""
        run = self._run
        if run is None:
            raise ConfigurationError("no run in progress; begin() first")
        self._run = None
        progress = self.progress
        if progress.epoch_seconds is not None and progress.measured_packets:
            self._fire(run)
        result = self.measurer.finalize()
        return PipelineResult(
            result=result,
            measurer=self.measurer,
            packets=progress.measured_packets,
            chunks=run.chunks,
            epochs=run.epochs,
            offered_packets=progress.packets,
            decisions=(
                list(run.governor.decisions) if run.governor is not None else []
            ),
            controller_stats=(
                progress.controller.as_dict()
                if progress.controller is not None
                else None
            ),
            elapsed_seconds=progress.ingest_seconds,
            pps=(
                progress.ingest_packets / progress.ingest_seconds
                if progress.ingest_seconds > 0
                else 0.0
            ),
        )

    def abort(self) -> None:
        """Discard an in-progress run without finalizing the measurer.

        The error path of :meth:`run` (and of a crashing daemon): the
        measurer keeps whatever state it reached — a later snapshot or
        ``finalize`` still sees it — and so does :attr:`progress`, but the
        driver is ready for a fresh :meth:`begin`.
        """
        self._run = None

    def _fire(self, run: _RunState) -> None:
        progress = self.progress
        index = progress.epoch
        end_time = (
            EpochGrid(progress.start_time, progress.epoch_seconds).end_time(index)
            if progress.start_time is not None
            else math.nan
        )
        snapshot = None
        if self.rotate and supports_rotate(self.measurer):
            snapshot = self.measurer.rotate(end_time)
        record = EpochRecord(
            index=index,
            end_time=end_time,
            packets_so_far=progress.measured_packets,
            snapshot=snapshot,
        )
        run.epochs.append(record)
        self._trim(run.epochs)
        if self.on_epoch is not None:
            self.on_epoch(record, self.measurer)

    def _trim(self, records: list) -> None:
        if self.history is not None and len(records) > self.history:
            del records[: len(records) - self.history]

    # -- batch interface ---------------------------------------------------------

    def run(self, source) -> PipelineResult:
        """Ingest every chunk of ``source`` and finalize.

        ``source`` is a :class:`~repro.pipeline.source.ChunkSource` or a
        bare :class:`~repro.traffic.packet.Trace`, cut into chunks of the
        measurer's configured ``chunk_size`` when it has one
        (:func:`~repro.pipeline.source.as_chunk_source`).
        """
        config = getattr(self.measurer, "config", None)
        source = as_chunk_source(source, getattr(config, "chunk_size", None))
        self.begin(source)
        try:
            for chunk in source:
                self.step(chunk)
        except BaseException:
            self.abort()
            raise
        return self.finish()


def run_pipeline(
    measurer,
    source,
    on_epoch=None,
    rotate: bool = False,
    on_accumulate=None,
    controller: "ShedController | None" = None,
) -> PipelineResult:
    """One-shot convenience: build a :class:`Pipeline` and run it."""
    return Pipeline(
        measurer,
        on_epoch=on_epoch,
        rotate=rotate,
        on_accumulate=on_accumulate,
        controller=controller,
    ).run(source)
