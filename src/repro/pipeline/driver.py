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
batch form built on exactly those pieces.  Unbounded sources
(``total_packets is None``) are first-class: the epoch origin is picked
up lazily once the source has seen its first packet.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.pipeline.control import ChunkGovernor, ShedController
from repro.pipeline.protocol import supports_rotate
from repro.pipeline.source import ChunkSource, as_chunk_source


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

    ``snapshot`` holds what the measurer's ``rotate(now)`` returned when
    the pipeline was built with ``rotate=True`` (and the measurer has the
    hook), else ``None``.
    """

    index: int
    end_time: float
    packets_so_far: int
    snapshot: "object | None" = None


@dataclass
class PipelineResult:
    """Outcome of one pipeline run.

    When the pipeline ran with a load controller, ``offered_packets``
    counts the packets the source offered (``packets`` counts what was
    actually ingested after shedding), ``decisions`` holds the
    controller's per-chunk
    :class:`~repro.pipeline.control.ControlDecisionRecord` entries
    (bounded by the driver's ``history``), and ``controller_stats`` is
    the aggregate :meth:`~repro.pipeline.control.ControllerStats.as_dict`.
    Without a controller ``offered_packets == packets`` and the other
    two stay empty/``None``.
    """

    result: object
    measurer: object
    packets: int
    chunks: "list[ChunkStats]" = field(default_factory=list)
    epochs: "list[EpochRecord]" = field(default_factory=list)
    offered_packets: int = 0
    decisions: list = field(default_factory=list)
    controller_stats: "dict | None" = None

    @property
    def elapsed_seconds(self) -> float:
        """Total time spent inside ``ingest`` (source slicing excluded)."""
        return sum(chunk.seconds for chunk in self.chunks)

    @property
    def pps(self) -> float:
        elapsed = self.elapsed_seconds
        return self.packets / elapsed if elapsed > 0 else 0.0


@dataclass
class _RunState:
    """Bookkeeping of one in-progress :meth:`Pipeline.begin` run."""

    source: "object | None"
    epoch_seconds: "float | None"
    start_time: "float | None"
    current_epoch: int = 0
    packets: int = 0
    offered_packets: int = 0
    ingest_seconds: float = 0.0
    saw_chunk: bool = False
    chunks: "list[ChunkStats]" = field(default_factory=list)
    epochs: "list[EpochRecord]" = field(default_factory=list)
    governor: "ChunkGovernor | None" = None


class Pipeline:
    """Drive a streaming measurer over a chunked packet stream.

    Args:
        measurer: any :class:`~repro.pipeline.protocol.StreamingMeasurer`.
        epoch_seconds: when given (and :meth:`run` receives a bare trace),
            the source splits chunks on epoch boundaries this wide and the
            driver fires ``on_epoch`` at every boundary.  A source that
            already splits on epochs triggers the same callbacks.
        on_epoch: ``callback(record, measurer)`` fired once per epoch, in
            order, after the epoch's last chunk was ingested (empty epochs
            fire too).  The final partial epoch fires before ``finalize``.
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
            (``packets`` etc.) are unaffected by trimming.
        controller: an optional
            :class:`~repro.pipeline.control.ShedController`.  When given,
            the driver consults it between chunks: :meth:`step` may thin
            the chunk, or drop it (and then returns ``None``).  ``None``
            keeps the zero-overhead path, bit for bit.
    """

    def __init__(
        self,
        measurer,
        epoch_seconds: "float | None" = None,
        on_epoch=None,
        rotate: bool = False,
        on_accumulate=None,
        history: "int | None" = None,
        controller: "ShedController | None" = None,
    ) -> None:
        self.measurer = measurer
        self.epoch_seconds = epoch_seconds
        self.on_epoch = on_epoch
        self.rotate = rotate
        self.on_accumulate = on_accumulate
        if history is not None and history < 1:
            raise ConfigurationError("history must be a positive count or None")
        self.history = history
        self.controller = controller
        self._run: "_RunState | None" = None

    # -- incremental interface -------------------------------------------------

    @property
    def active_epoch(self) -> "int | None":
        """Index of the epoch the in-progress run is inside (None between
        runs) — what a checkpoint must record to resume rotation cadence."""
        if self._run is None:
            return None
        return self._run.current_epoch

    def begin(
        self,
        source=None,
        epoch_seconds: "float | None" = None,
        start_time: "float | None" = None,
        first_epoch: int = 0,
        stream_time: "float | None" = None,
        controller_stats: "dict | None" = None,
    ) -> None:
        """Open an incremental run; feed it with :meth:`step`.

        ``source`` (optional) supplies the epoch geometry — its
        ``epoch_seconds`` and ``start_time`` — exactly as :meth:`run`
        would read them; explicit arguments override, which is also how a
        sourceless driver (chunks pushed from elsewhere) declares its
        epochs.  A still-unknown ``start_time`` (unbounded source waiting
        for its first packet) is re-read at the first epoch boundary.
        ``first_epoch`` resumes the epoch counter mid-sequence — the
        recovery path: a daemon restarting from a checkpoint continues
        the rotation cadence instead of re-firing past epochs.
        ``stream_time``, the timestamp of the last packet stepped before
        the checkpoint, resumes the load controller's stream clock the
        same way, so the first chunk after recovery is offered at the
        rate the uninterrupted run measured; ``controller_stats``, the
        checkpointed :attr:`controller_stats`, resumes the controller's
        tallies.
        """
        if self._run is not None:
            raise ConfigurationError(
                "a pipeline run is already in progress; finish() or abort() it"
            )
        if epoch_seconds is None:
            epoch_seconds = (
                source.epoch_seconds if source is not None else self.epoch_seconds
            )
        if start_time is None and source is not None:
            start_time = source.start_time
        self._run = _RunState(
            source=source,
            epoch_seconds=epoch_seconds,
            start_time=start_time,
            current_epoch=first_epoch,
            governor=(
                ChunkGovernor(
                    self.controller,
                    history=self.history,
                    stream_time=stream_time,
                    tallies=controller_stats,
                )
                if self.controller is not None
                else None
            ),
        )

    def step(self, chunk) -> "ChunkStats | None":
        """Ingest one chunk, firing any epoch boundaries it crossed.

        With a load controller the chunk is first run through the
        governor: the returned stats cover the packets it kept, and
        ``None`` means the chunk was shed entirely.
        """
        run = self._run
        if run is None:
            raise ConfigurationError("no run in progress; begin() first")
        if run.epoch_seconds is not None:
            while run.current_epoch < chunk.epoch:
                self._fire(run, run.current_epoch)
                run.current_epoch += 1
        run.offered_packets += chunk.num_packets
        if run.governor is not None:
            chunk = run.governor.admit(chunk)
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
        run.packets += chunk.num_packets
        run.ingest_seconds += seconds
        run.saw_chunk = True
        stats = ChunkStats(
            index=chunk.index,
            packets=chunk.num_packets,
            seconds=seconds,
            epoch=chunk.epoch,
        )
        run.chunks.append(stats)
        self._trim(run.chunks)
        return stats

    @property
    def controller_stats(self) -> "dict | None":
        """Live aggregate controller stats of the in-progress run."""
        run = self._run
        if run is None or run.governor is None:
            return None
        return run.governor.stats.as_dict()

    @property
    def ingested_packets(self) -> int:
        """Packets actually ingested by the in-progress run (0 between
        runs) — differs from the offered count when a controller sheds."""
        run = self._run
        return run.packets if run is not None else 0

    @property
    def run_ingest_seconds(self) -> float:
        """Cumulative wall-clock seconds inside ``ingest`` this run."""
        run = self._run
        return run.ingest_seconds if run is not None else 0.0

    def finish(self) -> PipelineResult:
        """Fire the final partial epoch, finalize the measurer, report."""
        run = self._run
        if run is None:
            raise ConfigurationError("no run in progress; begin() first")
        self._run = None
        if run.epoch_seconds is not None and run.saw_chunk:
            self._fire(run, run.current_epoch)
        result = self.measurer.finalize()
        return PipelineResult(
            result=result,
            measurer=self.measurer,
            packets=run.packets,
            chunks=run.chunks,
            epochs=run.epochs,
            offered_packets=run.offered_packets,
            decisions=(
                list(run.governor.decisions) if run.governor is not None else []
            ),
            controller_stats=(
                run.governor.stats.as_dict()
                if run.governor is not None
                else None
            ),
        )

    def abort(self) -> None:
        """Discard an in-progress run without finalizing the measurer.

        The error path of :meth:`run` (and of a crashing daemon): the
        measurer keeps whatever state it reached — a later snapshot or
        ``finalize`` still sees it — but the driver is ready for a fresh
        :meth:`begin`.
        """
        self._run = None

    def _fire(self, run: _RunState, epoch_index: int) -> None:
        if run.start_time is None and run.source is not None:
            # Unbounded sources learn their origin from the first packet,
            # after begin() already sampled it — re-read now that the
            # stream is flowing.
            run.start_time = run.source.start_time
        end_time = (
            run.start_time + (epoch_index + 1) * run.epoch_seconds
            if run.start_time is not None
            else float(epoch_index + 1)
        )
        snapshot = None
        if self.rotate and supports_rotate(self.measurer):
            snapshot = self.measurer.rotate(end_time)
        record = EpochRecord(
            index=epoch_index,
            end_time=end_time,
            packets_so_far=run.packets,
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

    def run(self, source, chunk_size: "int | None" = None) -> PipelineResult:
        """Ingest every chunk of ``source`` and finalize.

        ``source`` is a :class:`~repro.pipeline.source.ChunkSource` or a
        bare :class:`~repro.traffic.packet.Trace` (sliced with
        ``chunk_size``, defaulting to the measurer's configured
        ``chunk_size`` when it has one).
        """
        if isinstance(source, ChunkSource):
            source = as_chunk_source(source)
        else:
            if chunk_size is None:
                config = getattr(self.measurer, "config", None)
                chunk_size = getattr(config, "chunk_size", None)
            source = as_chunk_source(
                source, chunk_size=chunk_size, epoch_seconds=self.epoch_seconds
            )
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
    chunk_size: "int | None" = None,
    epoch_seconds: "float | None" = None,
    on_epoch=None,
    rotate: bool = False,
    on_accumulate=None,
    controller: "ShedController | None" = None,
) -> PipelineResult:
    """One-shot convenience: build a :class:`Pipeline` and run it."""
    return Pipeline(
        measurer,
        epoch_seconds=epoch_seconds,
        on_epoch=on_epoch,
        rotate=rotate,
        on_accumulate=on_accumulate,
        controller=controller,
    ).run(source, chunk_size=chunk_size)
