"""The serializable measurement-state layer.

One description of everything an engine accumulates — regulator words,
WSAF records, RNG cursors, eviction/GC bookkeeping — as
:class:`MeasurementSnapshot`, plus the operations the rest of the stack
builds on:

* :func:`capture_engine` / :func:`restore_engine` — exact state transfer
  for both scalar and batched engines, including mid-stream cursors.
* :func:`to_bytes` / :func:`from_bytes` / :func:`save` / :func:`load` —
  a versioned, self-describing wire format.
* :func:`merge` — fold worker snapshots with disjoint key sets into one.
* :class:`ShardRouter` — word-range partitioning for exact process
  sharding (:mod:`repro.pipeline.sharded`).

No module here imports :mod:`repro.core` at import time; live-object
construction happens lazily inside the capture/restore helpers, so the
core engines can depend on this package without a cycle.
"""

from repro.state.codec import (
    FRAME_MAGIC,
    SNAPSHOT_VERSION,
    from_bytes,
    load,
    pack_frame,
    save,
    to_bytes,
    unpack_frame,
)
from repro.state.merge import merge
from repro.state.shard import ShardRouter
from repro.state.snapshot import (
    IceState,
    MeasurementSnapshot,
    RegulatorState,
    SketchState,
    StreamCursor,
    TierState,
    WSAFState,
    capture_engine,
    capture_regulator,
    regulator_sketches,
    restore_engine,
    restore_regulator,
)

__all__ = [
    "FRAME_MAGIC",
    "IceState",
    "MeasurementSnapshot",
    "RegulatorState",
    "SNAPSHOT_VERSION",
    "ShardRouter",
    "SketchState",
    "StreamCursor",
    "TierState",
    "WSAFState",
    "capture_engine",
    "capture_regulator",
    "from_bytes",
    "load",
    "merge",
    "pack_frame",
    "regulator_sketches",
    "restore_engine",
    "restore_regulator",
    "save",
    "to_bytes",
    "unpack_frame",
]
