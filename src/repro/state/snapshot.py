"""Serializable measurement state — the one description of engine state.

Everything an InstaMeasure engine accumulates while measuring — regulator
word arrays and counters, WSAF records and eviction/GC bookkeeping, and
the RNG cursor of an in-progress ingest stream — is captured here as a
:class:`MeasurementSnapshot`: a plain dataclass tree whose bulk payloads
are NumPy columns.  Snapshots are the unit of state transfer across the
stack: process-sharded ingestion ships them between workers and the
manager (:mod:`repro.pipeline.sharded`), :func:`repro.state.merge.merge`
folds many of them into one, and :mod:`repro.state.codec` round-trips
them to bytes/files with a versioned, self-describing header.

Capture/restore is exact for both WSAF backing stores: a snapshot taken
from a scalar :class:`~repro.core.wsaf.WSAFTable` restores bit-identically
into a batched one and vice versa (the stores are state-identical by
contract).  An engine with an in-progress *known-length* ingest stream is
also exact: the stream's randomness is a deterministic function of
``(seed, total)`` and the cursor offset, so restore re-draws and seeks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from repro.errors import SnapshotError

#: Mask extracting the low 64 bits of a packed 104-bit 5-tuple.
_LOW64 = (1 << 64) - 1

#: ``MeasurementSnapshot.kind`` for single-engine captures.
KIND_INSTAMEASURE = "instameasure"


def pack_tuple_columns(tuples) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Split packed 104-bit 5-tuples into (lo, hi, present) columns.

    ``tuples`` is a sequence of ``int | None``; the 104-bit values exceed
    any fixed-width dtype, so they ship as two ``uint64`` halves plus a
    presence mask (``None`` entries are real — mice inserted through the
    scalar per-packet API may carry no tuple).
    """
    n = len(tuples)
    lo = np.zeros(n, dtype=np.uint64)
    hi = np.zeros(n, dtype=np.uint64)
    present = np.zeros(n, dtype=bool)
    for i, value in enumerate(tuples):
        if value is None:
            continue
        present[i] = True
        lo[i] = value & _LOW64
        hi[i] = value >> 64
    return lo, hi, present


def unpack_tuple_columns(lo, hi, present) -> "list[int | None]":
    """Inverse of :func:`pack_tuple_columns`."""
    values: "list[int | None]" = []
    for low, high, here in zip(lo.tolist(), hi.tolist(), present.tolist()):
        values.append((high << 64) | low if here else None)
    return values


@dataclass
class SketchState:
    """One RCC sketch's transferable state."""

    words: np.ndarray  # uint64, one per sketch word
    packets_encoded: int
    saturations: int

    def copy(self) -> "SketchState":
        return SketchState(
            words=self.words.copy(),
            packets_encoded=self.packets_encoded,
            saturations=self.saturations,
        )


@dataclass
class RegulatorState:
    """A regulator's sketches (deterministic order) plus its statistics."""

    sketches: "list[SketchState]"
    packets: int
    l1_saturations: int
    insertions: int

    def copy(self) -> "RegulatorState":
        return RegulatorState(
            sketches=[sketch.copy() for sketch in self.sketches],
            packets=self.packets,
            l1_saturations=self.l1_saturations,
            insertions=self.insertions,
        )


@dataclass
class TierState:
    """The hot-cache tier of a tiered WSAF backend.

    Cache records ship as parallel columns in key order; ``heat_keys`` /
    ``heat_counts`` carry the current interval's recent hit/miss counts
    (a key's tier membership — in ``keys`` or not — decides which side it
    restores to), and ``op_count`` pins the maintenance-tick phase, so a
    mid-interval capture round-trips bit-exactly.
    """

    cache_entries: int
    tier_interval: int
    op_count: int
    cache_updates: int
    promotions: int
    demotions: int
    keys: np.ndarray  # uint64, sorted
    packets: np.ndarray  # float64
    bytes: np.ndarray  # float64
    timestamps: np.ndarray  # float64
    chance: np.ndarray  # bool
    tuple_lo: np.ndarray  # uint64
    tuple_hi: np.ndarray  # uint64
    tuple_present: np.ndarray  # bool
    heat_keys: np.ndarray  # uint64, sorted
    heat_counts: np.ndarray  # int64

    @property
    def num_records(self) -> int:
        return len(self.keys)

    def tuples(self) -> "list[int | None]":
        return unpack_tuple_columns(
            self.tuple_lo, self.tuple_hi, self.tuple_present
        )


@dataclass
class IceState:
    """The per-bucket scale exponents of a compressed-counter backend.

    The main WSAF columns already hold the *dequantized* counter values
    (exact in float64), so the integer counters recompute from them; the
    scales are the only extra state a bit-exact restore needs.
    """

    bucket_slots: int
    counter_bits: int
    upscales: int
    scale_packets: np.ndarray  # int64, one per bucket
    scale_bytes: np.ndarray  # int64, one per bucket


@dataclass
class WSAFState:
    """A WSAF table's records and bookkeeping, as parallel columns.

    ``slots`` holds each record's table slot, or ``-1`` when the slot is
    unknown (merged snapshots with colliding placements); restore places
    slot-exact records directly and probe-places the rest.

    ``tier`` / ``ice`` are optional backend sections: a tiered backend's
    hot cache and a compressed backend's bucket scales.  Snapshots from
    the flat backend (and all merged snapshots — merging flattens) carry
    neither, and every consumer treats their absence as "plain flat
    records".  The top-level counters are always the *facade* totals
    (``size`` includes cached records; ``updates`` includes cache hits).
    """

    num_entries: int
    probe_limit: int
    eviction_policy: str
    size: int
    insertions: int
    updates: int
    evictions: int
    gc_reclaimed: int
    rejected: int
    slots: np.ndarray  # int64; -1 = placement unknown
    keys: np.ndarray  # uint64
    packets: np.ndarray  # float64
    bytes: np.ndarray  # float64
    timestamps: np.ndarray  # float64
    chance: np.ndarray  # bool
    tuple_lo: np.ndarray  # uint64
    tuple_hi: np.ndarray  # uint64
    tuple_present: np.ndarray  # bool
    tier: "TierState | None" = None
    ice: "IceState | None" = None

    @property
    def num_records(self) -> int:
        return len(self.keys)

    def tuples(self) -> "list[int | None]":
        """The packed 5-tuples, re-widened to Python ints."""
        return unpack_tuple_columns(
            self.tuple_lo, self.tuple_hi, self.tuple_present
        )


@dataclass
class StreamCursor:
    """RNG/bookkeeping cursor of an in-progress ingest stream.

    ``total`` is the *global* stream length the randomness was drawn for,
    or ``None`` for an unbounded stream; ``offset`` counts packets already
    consumed.

    Unbounded streams (``total is None``) draw their randomness in
    fixed-size blocks; ``rng_state`` is the generator state at the start
    of the current block, ``block_used`` how many of its ``block_size``
    entries were already consumed.  Together with ``offset`` that pins
    the exact next bit the stream hands out — the mechanism behind the
    service daemon's mid-flight checkpoints.
    """

    offset: int
    total: "int | None"
    packets: int
    insertions: int
    l1_saturations: int
    elapsed: float
    rng_state: "dict | None" = None
    block_used: int = 0
    block_size: int = 0


@dataclass
class MeasurementSnapshot:
    """The complete serializable state of one measurement engine.

    Attributes:
        kind: snapshot flavor (:data:`KIND_INSTAMEASURE`).
        config: the engine's :class:`~repro.core.instameasure.
            InstaMeasureConfig` as a plain dict (restore rebuilds from it).
        regulator: regulator word arrays and counters.
        wsaf: WSAF records and bookkeeping.
        stream: cursor of an in-progress ingest stream, or ``None`` when
            the engine is between streams.
        key_range: the L1 word-index range ``[lo, hi)`` this snapshot
            covers under sharded ingestion, or ``None`` for a full run.
        shards_merged: how many worker snapshots were folded in (1 for a
            direct capture).
    """

    kind: str
    config: "dict"
    regulator: RegulatorState
    wsaf: WSAFState
    stream: "StreamCursor | None" = None
    key_range: "tuple[int, int] | None" = None
    shards_merged: int = 1
    extra: "dict" = field(default_factory=dict)

    def estimates(self, flow_keys=None) -> "dict[int, tuple[float, float]]":
        """Per-flow ``{key64: (packets, bytes)}`` straight off the columns.

        Same mapping a live table restored from this snapshot would
        report, without materializing the table.  Record order follows
        the capture (slot order for direct captures).
        """
        table = {
            key: (packets, bytes_)
            for key, packets, bytes_ in zip(
                self.wsaf.keys.tolist(),
                self.wsaf.packets.tolist(),
                self.wsaf.bytes.tolist(),
            )
        }
        if self.wsaf.tier is not None:
            # Tiered captures keep hot-cache records in their own section;
            # the tiers are exclusive, so this is a disjoint union.
            tier = self.wsaf.tier
            for key, packets, bytes_ in zip(
                tier.keys.tolist(),
                tier.packets.tolist(),
                tier.bytes.tolist(),
            ):
                table[key] = (packets, bytes_)
        if flow_keys is None:
            return table
        found: "dict[int, tuple[float, float]]" = {}
        for key in flow_keys:
            key = int(key)
            if key in table:
                found[key] = table[key]
        return found

    def restore(self, accountant=None):
        """Materialize a live :class:`~repro.core.instameasure.InstaMeasure`."""
        return restore_engine(self, accountant=accountant)


# -- regulator capture/restore ---------------------------------------------


def regulator_sketches(regulator) -> "list":
    """Every RCC sketch of a ``FlowRegulator``: ``[l1, *l2]``, the L2
    banks in noise-level order."""
    return [regulator.l1, *regulator.l2]


def capture_regulator(regulator) -> RegulatorState:
    """Snapshot ``regulator``'s words and cumulative counters."""
    stats = regulator.stats
    return RegulatorState(
        sketches=[
            SketchState(
                words=sketch.words_array(),
                packets_encoded=sketch.packets_encoded,
                saturations=sketch.saturations,
            )
            for sketch in regulator_sketches(regulator)
        ],
        packets=stats.packets,
        l1_saturations=stats.l1_saturations,
        insertions=stats.insertions,
    )


def restore_regulator(regulator, state: RegulatorState) -> None:
    """Install ``state`` into a live regulator of matching geometry."""
    sketches = regulator_sketches(regulator)
    if len(sketches) != len(state.sketches):
        raise SnapshotError(
            f"regulator has {len(sketches)} sketches; snapshot carries "
            f"{len(state.sketches)}"
        )
    for sketch, saved in zip(sketches, state.sketches):
        sketch.set_words_array(saved.words)
        sketch.packets_encoded = saved.packets_encoded
        sketch.saturations = saved.saturations
    stats = regulator.stats
    stats.packets = state.packets
    stats.l1_saturations = state.l1_saturations
    stats.insertions = state.insertions


# -- engine capture/restore -------------------------------------------------


def capture_engine(engine, key_range=None) -> MeasurementSnapshot:
    """Snapshot a live :class:`~repro.core.instameasure.InstaMeasure`.

    In-progress streams are captured mid-flight: known-length streams as
    a plain offset into the up-front draw, unknown-length streams as the
    block-draw RNG cursor (see :class:`StreamCursor`).  The one exclusion
    is a stream that was handed its bits (a shard of a sharded run) —
    its own cursor describes nothing it consumed, so capture raises
    :class:`SnapshotError`; finalize such a stream first.
    """
    from dataclasses import asdict

    stream_state = getattr(engine, "_stream", None)
    cursor = None
    if stream_state is not None:
        bits = stream_state.bits
        if bits is None:
            raise SnapshotError(
                "cannot snapshot a stream mid-flight after it was handed "
                "its bits: its cursor describes nothing it consumed; "
                "finalize() first"
            )
        if bits._total is None:
            from repro.core.instameasure import UNKNOWN_STREAM_BLOCK

            rng_state, block_used = bits.unknown_cursor()
            cursor = StreamCursor(
                offset=bits.offset,
                total=None,
                packets=stream_state.packets,
                insertions=stream_state.insertions,
                l1_saturations=stream_state.l1_saturations,
                elapsed=stream_state.elapsed,
                rng_state=rng_state,
                block_used=block_used,
                block_size=UNKNOWN_STREAM_BLOCK,
            )
        else:
            cursor = StreamCursor(
                offset=bits.offset,
                total=bits._total,
                packets=stream_state.packets,
                insertions=stream_state.insertions,
                l1_saturations=stream_state.l1_saturations,
                elapsed=stream_state.elapsed,
            )
    return MeasurementSnapshot(
        kind=KIND_INSTAMEASURE,
        config=asdict(engine.config),
        regulator=capture_regulator(engine.regulator),
        wsaf=engine.wsaf.export_state(),
        stream=cursor,
        key_range=None if key_range is None else (key_range[0], key_range[1]),
    )


#: Config keys older snapshots carry for knobs the engine no longer has.
#: ``regulator_replay`` chose between bit-identical contested-stretch
#: replays and ``wsaf_engine`` between state-identical WSAF column
#: layouts, so dropping either on restore never changes the restored
#: state.  ``num_layers`` was the regulator depth: the engine runs only
#: the paper's two layers, so a snapshot taken at depth 2 drops the key
#: and one taken at any other depth cannot be restored.
RETIRED_CONFIG_KEYS = frozenset({"regulator_replay", "wsaf_engine", "num_layers"})

#: The one regulator depth the engine runs (the retired ``num_layers``).
ENGINE_LAYERS = 2


def snapshot_config(snapshot: MeasurementSnapshot):
    """The :class:`~repro.core.instameasure.InstaMeasureConfig` a
    snapshot's embedded config dict describes.

    Every restore path builds its config here.  Retired keys are dropped
    (a ``num_layers`` other than 2 is a :class:`SnapshotError`); any
    other key the config does not know raises :class:`SnapshotError`
    instead of escaping the dataclass constructor as a ``TypeError``.
    """
    from repro.core.instameasure import InstaMeasureConfig

    if not isinstance(snapshot.config, dict):
        raise SnapshotError(
            f"snapshot config must be a mapping, got "
            f"{type(snapshot.config).__name__}"
        )
    layers = snapshot.config.get("num_layers", ENGINE_LAYERS)
    if layers != ENGINE_LAYERS:
        raise SnapshotError(
            f"snapshot config has num_layers {layers!r}; the engine runs "
            f"only the {ENGINE_LAYERS}-layer FlowRegulator"
        )
    known = {spec.name for spec in fields(InstaMeasureConfig)}
    config = {
        key: value
        for key, value in snapshot.config.items()
        if key not in RETIRED_CONFIG_KEYS
    }
    unknown = sorted(set(config) - known)
    if unknown:
        raise SnapshotError(f"snapshot config has unknown keys {unknown}")
    return InstaMeasureConfig(**config)


def _cursor_count(cursor: StreamCursor, name: str, upper: "int | None") -> int:
    """``cursor.<name>`` as an int in ``[0, upper]`` (unbounded above when
    ``upper`` is None), or a :class:`SnapshotError`."""
    value = getattr(cursor, name)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise SnapshotError(f"stream cursor {name} {value!r} is not an integer")
    if value < 0 or (upper is not None and value > upper):
        bound = "" if upper is None else f", {upper}"
        raise SnapshotError(f"stream cursor {name} {value} lies outside [0{bound}]")
    return int(value)


def restore_engine(snapshot: MeasurementSnapshot, accountant=None):
    """Rebuild a live engine from ``snapshot``, bit-identical to capture.

    The engine is constructed from the snapshot's embedded config, then
    regulator words/counters, WSAF records, and (when present) the ingest
    stream's RNG cursor are installed.  A restored mid-stream engine
    continues ingesting exactly where the captured one stopped.  A cursor
    the stream could not resume from — a negative total, an offset
    outside ``[0, total]``, a block cursor outside its block, an RNG
    state the generator refuses — raises :class:`SnapshotError`.  A
    known-length cursor's ``total`` is trusted as given: restore redraws
    the whole stream's randomness up front.
    """
    from repro.core.instameasure import InstaMeasure

    if snapshot.kind != KIND_INSTAMEASURE:
        raise SnapshotError(
            f"cannot restore snapshot kind {snapshot.kind!r} into an engine"
        )
    engine = InstaMeasure(snapshot_config(snapshot), accountant)
    restore_regulator(engine.regulator, snapshot.regulator)
    engine.wsaf.load_state(snapshot.wsaf)
    cursor = snapshot.stream
    if cursor is not None:
        total = None if cursor.total is None else _cursor_count(cursor, "total", None)
        offset = _cursor_count(cursor, "offset", total)
        if total is None:
            from repro.core.instameasure import UNKNOWN_STREAM_BLOCK

            if cursor.rng_state is None:
                raise SnapshotError(
                    "unknown-length stream cursor is missing its RNG state"
                )
            if cursor.block_size != UNKNOWN_STREAM_BLOCK:
                raise SnapshotError(
                    f"snapshot drew unknown-stream blocks of "
                    f"{cursor.block_size} entries but this build uses "
                    f"{UNKNOWN_STREAM_BLOCK}; the cursor cannot be replayed"
                )
            block_used = _cursor_count(cursor, "block_used", UNKNOWN_STREAM_BLOCK)
            engine.begin_stream()
            stream = engine._stream
            try:
                stream.bits.seek_unknown(cursor.rng_state, block_used, offset)
            except (TypeError, ValueError, KeyError, OverflowError) as exc:
                raise SnapshotError(
                    f"stream cursor RNG state is unusable: {exc!r}"
                ) from exc
        else:
            engine.begin_stream(total=total)
            stream = engine._stream
            stream.bits.offset = offset
        stream.packets = cursor.packets
        stream.insertions = cursor.insertions
        stream.l1_saturations = cursor.l1_saturations
        stream.elapsed = cursor.elapsed
    return engine
