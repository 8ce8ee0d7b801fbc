"""The :class:`StreamingMeasurer` protocol.

A streaming measurer consumes packets in bounded chunks and can be asked
for per-flow readings at any point.  The contract:

* ``ingest(chunk)`` — consume one :class:`~repro.pipeline.source.Chunk`
  (or a bare :class:`~repro.traffic.packet.Trace`, treated as a
  single-chunk stream).  Chunks of one stream arrive in timestamp order
  and never overlap.
* ``finalize()`` — end the stream and return the measurer's natural
  result object (a :class:`~repro.core.instameasure.MeasurementResult`,
  a stats dataclass, or the measurer itself for plain sketches).  The
  measurer's accumulated *measurement* state survives — only the
  per-stream bookkeeping resets, so a new stream can start.
* ``estimates(flow_keys=None)`` — current per-flow readings as
  ``{key64: (packets, bytes)}``.  Measurers that do not track bytes
  report ``0.0`` bytes.  Enumerable stores (flow caches, WSAF) may be
  called with ``flow_keys=None``; pure sketches cannot enumerate and
  require an explicit key array.

One optional capability is discovered by :func:`supports_rotate`
rather than demanded by the protocol: ``rotate(now)`` — epoch
maintenance (snapshot + expiry), fired by the driver at epoch
boundaries when asked.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.traffic.packet import Trace


@runtime_checkable
class StreamingMeasurer(Protocol):
    """Structural type of every measurer the Pipeline driver can feed."""

    def ingest(self, chunk) -> object:
        """Consume one chunk (or a bare trace) of the current stream."""

    def finalize(self) -> object:
        """End the stream; measurement state survives for reads."""

    def estimates(self, flow_keys=None) -> "dict[int, tuple[float, float]]":
        """Current per-flow ``{key64: (packets, bytes)}`` readings."""


def supports_rotate(measurer) -> bool:
    """Whether ``measurer`` implements the optional ``rotate(now)`` hook."""
    return callable(getattr(measurer, "rotate", None))


def chunk_trace(chunk) -> Trace:
    """The packet trace inside ``chunk`` (accepts a bare ``Trace`` too)."""
    if isinstance(chunk, Trace):
        return chunk
    return chunk.trace


def chunk_total(chunk) -> "int | None":
    """Total packets of the stream ``chunk`` belongs to, if known.

    A bare trace is its own complete stream; a
    :class:`~repro.pipeline.source.Chunk` carries the source's total
    (``None`` for unbounded sources).  Knowing the total up front is what
    lets RNG-driven measurers pre-draw their whole randomness stream and
    stay bit-identical to a whole-trace run.
    """
    if isinstance(chunk, Trace):
        return chunk.num_packets
    return chunk.total_packets
