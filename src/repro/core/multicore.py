"""Multi-core InstaMeasure (Section IV-C).

A manager core assigns each packet to a worker queue keyed by the population
count of the packet's source IP address (``popcount(srcIP) mod n_workers``),
which gives flow→core affinity for free because a flow's source address
never changes.  Each worker owns an independent FlowRegulator ("we allocate
memory blocks exclusively to each worker core to avoid memory collision");
the WSAF is shared, which is safe because post-regulation insertions are
~1 % of packets.

Execution model: every worker runs against a **private insertion log**
(:class:`_InsertionLog`) instead of the shared table; the manager sorts
all logged events into ``(timestamp, worker, sequence)`` order and
applies them to the WSAF through :meth:`WSAFTable.accumulate_batch`.
Because regulator state is worker-private and the merge order is
deterministic, the result does not depend on worker scheduling, and a
chunked run leaves the same state as a whole-trace run (tested).  The
workers run in-process: this module models the paper's dispatch and
merge, while process-parallel ingestion is
:class:`~repro.pipeline.sharded.ShardedPipeline`'s job.

The *timing* of the system (Fig 9(a)'s Mpps-vs-cores curve and Fig 12(c)'s
utilization series) is produced by feeding the load shares to
:mod:`repro.simulate.costmodel` / :mod:`repro.simulate.engine`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace

import numpy as np

from repro.core.instameasure import (
    AccumulateCallback,
    InstaMeasure,
    InstaMeasureConfig,
    MeasurementResult,
    aligned_estimates,
    build_wsaf_table,
)
from repro.core.wsaf import WSAFTable
from repro.errors import ConfigurationError
from repro.hashing import popcount32
from repro.traffic.packet import Trace


def dispatch_worker(src_ip: int, num_workers: int) -> int:
    """The paper's dispatch rule: popcount of the source IP, mod workers."""
    return popcount32(src_ip) % num_workers


def dispatch_array(src_ips: np.ndarray, num_workers: int) -> np.ndarray:
    """Vectorized :func:`dispatch_worker` over a ``uint32`` array."""
    return (
        np.bitwise_count(src_ips.astype(np.uint32)).astype(np.int64) % num_workers
    )


@dataclass
class MultiCoreResult:
    """Outcome of a multi-core run."""

    num_workers: int
    worker_packets: "list[int]"
    worker_insertions: "list[int]"
    worker_results: "list[MeasurementResult]"
    wsaf: WSAFTable

    @property
    def packets(self) -> int:
        return sum(self.worker_packets)

    @property
    def insertions(self) -> int:
        return sum(self.worker_insertions)

    @property
    def regulation_rate(self) -> float:
        return self.insertions / self.packets if self.packets else 0.0

    @property
    def load_shares(self) -> "list[float]":
        """Fraction of packets each worker received."""
        total = self.packets
        if total == 0:
            return [0.0] * self.num_workers
        return [count / total for count in self.worker_packets]

    @property
    def max_load_share(self) -> float:
        """The busiest worker's share — the bottleneck of parallel scaling.

        With perfect balance this is ``1 / num_workers``; the popcount
        dispatcher over skewed real addresses does worse, which is why the
        paper's Fig 9(a) scaling is sublinear.
        """
        shares = self.load_shares
        return max(shares) if shares else 0.0

    @property
    def parallel_speedup(self) -> float:
        """Throughput multiple over one core implied by the load balance."""
        max_share = self.max_load_share
        return 1.0 / max_share if max_share > 0 else float(self.num_workers)


def _worker_queue(trace: Trace, assignment: np.ndarray, worker_index: int) -> Trace:
    """The sub-trace of packets dispatched to ``worker_index``."""
    mask = assignment == worker_index
    return Trace(
        timestamps=trace.timestamps[mask],
        flow_ids=trace.flow_ids[mask],
        sizes=trace.sizes[mask],
        flows=trace.flows,
    )


class _InsertionLog:
    """Stands in for the shared WSAF while one worker ingests a chunk.

    Records each insertion as a ``(timestamp, worker, sequence, key,
    est_packets, est_bytes, packed_tuple)`` event instead of applying it:
    the first three fields are the manager's global apply order, and
    ``sequence`` continues the worker's count across chunks.  Workers
    ingest without callbacks; the manager fires them when it applies
    the events.
    """

    def __init__(self, worker: int, sequence: int) -> None:
        self.worker = worker
        self.sequence = sequence
        self.events: "list[tuple]" = []

    def accumulate(
        self,
        key: int,
        est_packets: float,
        est_bytes: float,
        timestamp: float,
        five_tuple_packed: "int | None" = None,
    ) -> "tuple[float, float]":
        """Record one insertion event; totals resolve at merge time."""
        order = (timestamp, self.worker, self.sequence)
        self.events.append(order + (key, est_packets, est_bytes, five_tuple_packed))
        self.sequence += 1
        return est_packets, est_bytes

    def accumulate_batch(
        self, events, on_accumulate=None
    ) -> "list[tuple[float, float]]":
        """Record a batch of events (the batched kernel's apply call)."""
        return [self.accumulate(*event) for event in events]


@dataclass
class _MultiCoreStream:
    """Bookkeeping for one in-progress multi-core ingest stream."""

    worker_totals: "list[int | None]"
    #: Logged events not yet applied (see :class:`_InsertionLog`).
    pending: "list[tuple]"
    worker_seq: "list[int]"
    worker_packets: "list[int]"
    on_accumulate: "AccumulateCallback | None" = None


class MultiCoreInstaMeasure:
    """Manager + N workers + shared WSAF.

    Args:
        num_workers: worker core count (the paper evaluates 1-4).
        config: per-worker engine configuration.  ``l1_memory_bytes`` is
            per worker, as in the paper ("the total memory usage is M times
            of the number of worker cores"); ``wsaf_entries`` is the single
            shared table (fixed at 2^20 for all of the paper's experiments).
    """

    def __init__(
        self,
        num_workers: int,
        config: "InstaMeasureConfig | None" = None,
    ) -> None:
        if num_workers < 1:
            raise ConfigurationError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self.config = config or InstaMeasureConfig()
        # A flat shared table is batch-probed: merged event logs arrive
        # as one big batch, which is exactly the shape it is built for.
        self.wsaf = build_wsaf_table(self.config)
        self.workers: "list[InstaMeasure]" = []
        for worker_index in range(num_workers):
            worker_config = replace(
                self.config, seed=self.config.seed + worker_index * 0x9E37
            )
            worker = InstaMeasure(worker_config)
            worker.wsaf = self.wsaf  # all workers accumulate into one table
            self.workers.append(worker)
        self._stream: "_MultiCoreStream | None" = None

    def dispatch(self, trace: Trace) -> np.ndarray:
        """Per-packet worker assignment for ``trace``."""
        worker_by_flow = dispatch_array(trace.flows.src_ip, self.num_workers)
        return worker_by_flow[trace.flow_ids]

    # -- streaming ingestion (pipeline protocol) -----------------------------

    def ingest(
        self, chunk, on_accumulate: "AccumulateCallback | None" = None
    ) -> MultiCoreResult:
        """Dispatch one chunk to the workers' own ingest streams.

        Each worker consumes its slice of the chunk through
        :meth:`InstaMeasure.ingest` (so a worker's bit stream spans its
        whole queue, bit-identical to running the queue in one piece);
        the recorded insertion events are merged in global ``(timestamp,
        worker, sequence)`` order.  Events stamped strictly before the
        chunk's last timestamp are applied to the shared WSAF immediately
        — no later packet can precede them — while events at the boundary
        are held until time advances or :meth:`finalize`, which preserves
        the whole-trace merge order exactly.
        """
        from repro.pipeline.protocol import chunk_trace
        from repro.pipeline.source import Chunk

        trace = chunk_trace(chunk)
        if self._stream is None:
            parent = chunk if isinstance(chunk, Trace) else chunk.parent
            if parent is not None:
                totals = np.bincount(
                    self.dispatch(parent), minlength=self.num_workers
                ).tolist()
            else:
                totals = [None] * self.num_workers
            self._stream = _MultiCoreStream(
                worker_totals=totals,
                pending=[],
                worker_seq=[0] * self.num_workers,
                worker_packets=[0] * self.num_workers,
            )
        stream = self._stream
        if on_accumulate is not None:
            stream.on_accumulate = on_accumulate
        # Dispatch through the chunk's own flow table: streaming sources
        # hand every chunk a different one.
        assignment = self.dispatch(trace)

        chunk_packets: "list[int]" = []
        chunk_results: "list[MeasurementResult]" = []
        for worker_index, worker in enumerate(self.workers):
            queue = _worker_queue(trace, assignment, worker_index)
            chunk_packets.append(queue.num_packets)
            stream.worker_packets[worker_index] += queue.num_packets
            if queue.num_packets == 0:
                # Nothing dispatched here this chunk; the worker's bit
                # stream does not advance, so skipping is exact.
                continue
            sub = Chunk(
                trace=queue,
                index=0,
                begin=0,
                end=queue.num_packets,
                total_packets=stream.worker_totals[worker_index],
            )
            log = _InsertionLog(worker_index, stream.worker_seq[worker_index])
            worker.wsaf = log
            try:
                result = worker.ingest(sub)
            finally:
                worker.wsaf = self.wsaf
            result.wsaf = self.wsaf
            chunk_results.append(result)
            stream.pending.extend(log.events)
            stream.worker_seq[worker_index] = log.sequence
        if trace.num_packets:
            self._apply_pending(stream, horizon=float(trace.timestamps[-1]))
        return MultiCoreResult(
            num_workers=self.num_workers,
            worker_packets=chunk_packets,
            worker_insertions=[
                result.regulator_stats.insertions for result in chunk_results
            ],
            worker_results=chunk_results,
            wsaf=self.wsaf,
        )

    def _apply_pending(
        self, stream: _MultiCoreStream, horizon: "float | None"
    ) -> None:
        """Apply the logged events stamped strictly before ``horizon`` (all
        of them when None) in global order; no later packet can precede
        them, so the rest wait for time to advance."""
        pending = stream.pending
        pending.sort(key=lambda event: event[:3])
        split = (
            len(pending)
            if horizon is None
            else bisect.bisect_left(pending, horizon, key=lambda event: event[0])
        )
        if split:
            self.wsaf.accumulate_batch(
                (
                    (key, est_pkt, est_byte, timestamp, packed)
                    for timestamp, _, _, key, est_pkt, est_byte, packed in (
                        pending[:split]
                    )
                ),
                on_accumulate=stream.on_accumulate,
            )
        stream.pending = pending[split:]

    def finalize(self) -> MultiCoreResult:
        """End the stream: flush held events, aggregate worker results."""
        stream = self._stream
        self._stream = None
        if stream is None:
            return MultiCoreResult(
                num_workers=self.num_workers,
                worker_packets=[0] * self.num_workers,
                worker_insertions=[0] * self.num_workers,
                worker_results=[],
                wsaf=self.wsaf,
            )
        self._apply_pending(stream, horizon=None)
        worker_results = []
        for worker in self.workers:
            result = worker.finalize()
            result.wsaf = self.wsaf
            worker_results.append(result)
        return MultiCoreResult(
            num_workers=self.num_workers,
            worker_packets=stream.worker_packets,
            worker_insertions=[
                result.regulator_stats.insertions for result in worker_results
            ],
            worker_results=worker_results,
            wsaf=self.wsaf,
        )

    def estimates(
        self, flow_keys=None
    ) -> "dict[int, tuple[float, float]]":
        """Shared-WSAF per-flow ``{key64: (packets, bytes)}`` estimates."""
        return self.wsaf.estimates(flow_keys=flow_keys)

    def process_trace(
        self,
        trace: Trace,
        on_accumulate: "AccumulateCallback | None" = None,
    ) -> MultiCoreResult:
        """Process ``trace`` through the dispatcher and all workers.

        Workers consume their queues against private regulators, recording
        WSAF insertion events; the manager merges every log in
        ``(timestamp, worker, sequence)`` order and applies it to the
        shared table, so results do not depend on worker scheduling.  A
        whole trace is a one-chunk stream: same dispatch, same per-worker
        draws, same merge as :meth:`ingest` / :meth:`finalize`.
        """
        self.ingest(trace, on_accumulate=on_accumulate)
        return self.finalize()

    def estimates_for(self, trace: Trace) -> "tuple[np.ndarray, np.ndarray]":
        """Per-flow (packets, bytes) estimates from the shared WSAF."""
        return aligned_estimates(self.wsaf, trace)
