"""Span recording for the traced benchmark run.

The traced run wraps the public entry points of each layer of the
``repro`` package from the outside: :meth:`Tracer.install_layers`
replaces each attribute listed in :data:`LAYERS` with a thin wrapper that
records a :class:`Span` (name, start, end, parent, thread) around the
original call, and :meth:`Tracer.uninstall` puts every original object
back, so untraced runs execute no tracing code at all.

Spans nest per thread: the innermost open span on the calling thread is
the parent.  A span's *self time* is its duration minus the part of it
that its children cover (:func:`self_times`), so the self times of one
thread's spans add up to the time that thread spent inside any layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time
from collections import defaultdict

#: Layer boundaries the traced run wraps:
#: ``(module, class or None for a module-level function, attribute, span)``.
#: ``__iter__`` entries time each ``next()`` the consumer makes on a chunk
#: source, which is how long the consumer waited for the source.
LAYERS = [
    ("repro.core.rcc", "RCCSketch", "place_array", "hashing.place"),
    ("repro.core.instameasure", "InstaMeasure", "__init__", "setup.engine"),
    ("repro.core.instameasure", "InstaMeasure", "ingest", "core.ingest"),
    ("repro.core.instameasure", "InstaMeasure", "finalize", "core.finalize"),
    ("repro.core.wsaf", "WSAFTable", "accumulate_batch", "wsaf.accumulate"),
    ("repro.kernels.wsaf_batched", "BatchedWSAFTable", "accumulate_batch", "wsaf.accumulate"),
    (
        "repro.kernels.wsaf_batched",
        "BatchedWSAFTable",
        "accumulate_batch_arrays",
        "wsaf.accumulate",
    ),
    ("repro.pipeline.source", "TraceChunkSource", "__iter__", "source.wait"),
    ("repro.pipeline.streaming", "StreamingChunkSource", "__iter__", "source.wait"),
    ("repro.traffic.pcaplite", "PacketRecordReader", "read_block", "traffic.read"),
    ("repro.pipeline.driver", "Pipeline", "step", "driver.step"),
    ("repro.pipeline.driver", "Pipeline", "finish", "driver.finish"),
    ("repro.state.shard", "ShardRouter", "split_chunk", "sharded.route"),
    ("repro.pipeline.sharded", "ShardWorkerPool", "__init__", "sharded.pool_spawn"),
    # Frame preparation has no public entry point; these two helpers are
    # where the parent spends the IPC time that is not pipe writes.
    ("repro.pipeline.sharded", "_ShardFlowSync", "localize", "sharded.localize"),
    ("repro.pipeline.sharded", None, "_fresh_flow_columns", "sharded.flow_columns"),
    ("repro.pipeline.sharded", "ShardWorkerPool", "send", "sharded.send"),
    ("repro.pipeline.sharded", "ShardWorkerPool", "finalize", "sharded.collect"),
    ("repro.pipeline.sharded", None, "pack_frame", "codec.pack"),
    ("repro.pipeline.sharded", None, "from_bytes", "codec.decode"),
    ("repro.pipeline.sharded", None, "merge", "state.merge"),
    ("repro.pipeline.sharded", "ShardedStreamingMeasurer", "__init__", "setup.engine"),
    ("repro.pipeline.sharded", "ShardedStreamingMeasurer", "ingest", "sharded.ingest"),
    ("repro.pipeline.sharded", "ShardedStreamingMeasurer", "estimates", "sharded.estimates"),
    ("repro.pipeline.sharded", "ShardedStreamingMeasurer", "rotate", "daemon.rotate"),
    ("repro.pipeline.sharded", "ShardedStreamingMeasurer", "snapshot_shards", "state.capture"),
    ("repro.service.checkpoint", "CheckpointStore", "save", "checkpoint.save"),
    ("repro.service.daemon", "MeasurementDaemon", "query", "daemon.query"),
]

_DONE = object()


class Span:
    """One timed call: ``parent`` is the enclosing span on the same thread."""

    __slots__ = ("name", "start", "end", "parent", "thread")

    def __init__(self, name, start, end=None, parent=None, thread=""):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread


class Tracer:
    """Records spans in memory and owns the wrappers it installed."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self.counters: "dict[str, float]" = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(
            name,
            0.0,
            parent=stack[-1] if stack else None,
            thread=threading.current_thread().name,
        )
        stack.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def add(self, name: str, value: float) -> None:
        """Add ``value`` to the counter ``name``."""
        with self._lock:
            self.counters[name] += value

    # -- wrappers ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` (a plain function) with a traced wrapper.

        ``after(tracer, result)`` runs once the call returns, outside the
        span.  ``__iter__`` is wrapped per ``next()`` instead of per call.
        """
        original = vars(owner)[attr]
        if not inspect.isfunction(original):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        tracer = self
        if attr == "__iter__":

            def wrapper(source):
                inner = original(source)
                while True:
                    item = tracer.call(name, next, inner, _DONE)
                    if item is _DONE:
                        return
                    yield item

        else:

            def wrapper(*args, **kwargs):
                result = tracer.call(name, original, *args, **kwargs)
                if after is not None:
                    after(tracer, result)
                return result

        setattr(owner, attr, functools.wraps(original)(wrapper))
        self._installed.append((owner, attr, original))

    def install_layers(self) -> None:
        """Wrap every boundary in :data:`LAYERS`."""
        for module_name, class_name, attr, name in LAYERS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            after = _count_checkpoint_bytes if name == "checkpoint.save" else None
            self.wrap(owner, attr, name, after=after)

    def uninstall(self) -> bool:
        """Restore every wrapped attribute; True when all originals are back."""
        installed, self._installed = self._installed, []
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)
        return all(vars(owner)[attr] is original for owner, attr, original in installed)


def _count_checkpoint_bytes(tracer: Tracer, info) -> None:
    tracer.add(
        "checkpoint.bytes", sum(os.path.getsize(path) for path in info.shard_paths)
    )


def _covered(intervals: "list[tuple[float, float]]") -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: "list[Span]") -> "dict[int, float]":
    """``{id(span): self seconds}``: duration minus what children cover."""
    children: "dict[int, list]" = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(
                (max(span.start, span.parent.start), min(span.end, span.parent.end))
            )
    return {
        id(span): (span.end - span.start) - _covered(children[id(span)])
        for span in spans
    }


def totals_by_name(spans: "list[Span]") -> "dict[str, dict[str, float]]":
    """Per span name: ``self`` seconds, ``total`` (inclusive) seconds, ``calls``."""
    own = self_times(spans)
    totals: "dict[str, dict[str, float]]" = defaultdict(
        lambda: {"self": 0.0, "total": 0.0, "calls": 0}
    )
    for span in spans:
        entry = totals[span.name]
        entry["self"] += own[id(span)]
        entry["total"] += span.end - span.start
        entry["calls"] += 1
    return dict(totals)


def coverage(spans: "list[Span]", begin: float, end: float, skip_threads=()) -> float:
    """Share of ``[begin, end]`` that span self times account for.

    Counts spans that lie inside the window on every thread except those
    whose name starts with one of ``skip_threads`` (query-serving threads
    run beside the ingest path, not on it).
    """
    inside = [
        span
        for span in spans
        if span.start >= begin
        and span.end <= end
        and not span.thread.startswith(tuple(skip_threads))
    ]
    own = self_times(inside)
    return sum(own.values()) / (end - begin) if end > begin else 0.0
