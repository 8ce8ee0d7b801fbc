"""The streaming pipeline: one run loop for every measurer.

Every measurer in the repository — both InstaMeasure engines, the
multi-core manager, and all nine baselines — speaks the
:class:`~repro.pipeline.protocol.StreamingMeasurer` protocol: packets
arrive as bounded chunks through :meth:`ingest`, results come out of
:meth:`finalize`, and current per-flow readings come from
:meth:`estimates`.  A :class:`~repro.pipeline.source.ChunkSource` slices
a trace (or a trace file) into those chunks, and the
:class:`~repro.pipeline.driver.Pipeline` driver feeds any measurer from
any source, firing epoch callbacks at time-window boundaries and
collecting per-chunk throughput stats.

On top of the single-measurer loop, :class:`~repro.pipeline.sharded.
ShardedPipeline` drives the same loop into N flow-key shards (in-process
or forked workers) and merges their serializable snapshots into one
state whose estimates exactly equal a single-process run.

Under overload a :class:`~repro.pipeline.control.ShedController` (the
``shed`` load policy; ``none`` runs without one) can sit between the
source and the measurer: it reads each chunk's offered rate on the
stream clock and thins or drops the chunk down to a target rate, with
deterministic seed-stable sampling so shed runs stay reproducible.  See
docs/STREAMING.md, "Backpressure and load-shedding".

See ``docs/STREAMING.md`` for the protocol contract, including which
measurers are bit-identical between chunked and whole-trace ingestion.
"""

from repro.pipeline.control import (
    ChunkGovernor,
    ControlDecision,
    ControlDecisionRecord,
    ControllerStats,
    LOAD_POLICY_CHOICES,
    ShedController,
    build_load_controller,
    thin_chunk,
    thin_mask,
)
from repro.pipeline.driver import (
    ChunkStats,
    EpochRecord,
    Pipeline,
    PipelineResult,
    RunProgress,
    run_pipeline,
)
from repro.pipeline.protocol import (
    StreamingMeasurer,
    chunk_total,
    chunk_trace,
    supports_rotate,
)
from repro.pipeline.sharded import (
    ShardedPipeline,
    ShardedResult,
    ShardedStreamingMeasurer,
    ShardedStreamResult,
    ShardWorkerPool,
)
from repro.pipeline.source import (
    Chunk,
    ChunkSource,
    EpochGrid,
    FileChunkSource,
    TraceChunkSource,
    as_chunk_source,
)
from repro.pipeline.streaming import (
    PacketRecordChunkSource,
    SocketChunkSource,
    StreamingChunkSource,
)
from repro.traffic.pcaplite import trace_from_records

__all__ = [
    "Chunk",
    "ChunkGovernor",
    "ChunkSource",
    "ChunkStats",
    "ControlDecision",
    "ControlDecisionRecord",
    "ControllerStats",
    "EpochGrid",
    "EpochRecord",
    "LOAD_POLICY_CHOICES",
    "ShedController",
    "build_load_controller",
    "thin_chunk",
    "thin_mask",
    "FileChunkSource",
    "PacketRecordChunkSource",
    "Pipeline",
    "PipelineResult",
    "RunProgress",
    "SocketChunkSource",
    "StreamingChunkSource",
    "ShardWorkerPool",
    "ShardedPipeline",
    "ShardedResult",
    "ShardedStreamResult",
    "ShardedStreamingMeasurer",
    "StreamingMeasurer",
    "TraceChunkSource",
    "as_chunk_source",
    "chunk_total",
    "chunk_trace",
    "run_pipeline",
    "trace_from_records",
    "supports_rotate",
]
