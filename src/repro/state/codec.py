"""Bytes/file codec for :class:`~repro.state.snapshot.MeasurementSnapshot`.

Wire layout (little-endian)::

    8 bytes   magic  b"IMSNAP\\x00\\x01"
    8 bytes   header length H (uint64)
    H bytes   JSON header (UTF-8)
    ...       raw column payloads, concatenated in manifest order

The JSON header is self-describing: a format ``version``, the snapshot's
``kind``/``config``/scalar counters, and a column ``manifest`` listing
every NumPy payload's name, dtype, and element count.  Decoders reject
unknown versions, truncated payloads and any malformed header or
manifest with :class:`~repro.errors.SnapshotError` — a snapshot is either
read back exactly or not at all.  All column dtypes are fixed-width and
endian-pinned (``<u8``/``<f8``/``|b1``), so files transfer across hosts.
"""

from __future__ import annotations

import json

import numpy as np

from repro.errors import SnapshotError
from repro.state.snapshot import (
    IceState,
    MeasurementSnapshot,
    RegulatorState,
    SketchState,
    StreamCursor,
    TierState,
    WSAFState,
)

#: File magic; the trailing byte pair doubles as a container revision.
MAGIC = b"IMSNAP\x00\x01"

#: Header schema version; bump on any incompatible layout change.
#: Optional WSAF backend sections (``tier``/``ice``) are an *additive*
#: extension of version 1: their absence is a plain flat snapshot, their
#: names are declared in the header's ``wsaf.sections`` list, and a
#: decoder that meets a section name it does not know refuses the file
#: rather than silently dropping state.
SNAPSHOT_VERSION = 1

#: WSAF backend sections this decoder understands.
_KNOWN_WSAF_SECTIONS = ("tier", "ice")


def _wire_dtype(array: np.ndarray) -> str:
    """The endian-pinned, fixed-width wire dtype for ``array``."""
    kind = array.dtype.kind
    if kind == "u":
        return "<u8"
    if kind == "i":
        return "<i8"
    if kind == "f":
        return "<f8"
    if kind == "b":
        return "|b1"
    raise SnapshotError(f"cannot serialize column dtype {array.dtype}")


def _columns_of(snapshot: MeasurementSnapshot) -> "list[tuple[str, np.ndarray]]":
    """Every NumPy payload of ``snapshot``, in canonical manifest order."""
    columns: "list[tuple[str, np.ndarray]]" = []
    for index, sketch in enumerate(snapshot.regulator.sketches):
        columns.append((f"regulator.{index}.words", sketch.words))
    wsaf = snapshot.wsaf
    columns.extend(
        [
            ("wsaf.slots", wsaf.slots),
            ("wsaf.keys", wsaf.keys),
            ("wsaf.packets", wsaf.packets),
            ("wsaf.bytes", wsaf.bytes),
            ("wsaf.timestamps", wsaf.timestamps),
            ("wsaf.chance", wsaf.chance),
            ("wsaf.tuple_lo", wsaf.tuple_lo),
            ("wsaf.tuple_hi", wsaf.tuple_hi),
            ("wsaf.tuple_present", wsaf.tuple_present),
        ]
    )
    if wsaf.tier is not None:
        tier = wsaf.tier
        columns.extend(
            [
                ("wsaf.tier.keys", tier.keys),
                ("wsaf.tier.packets", tier.packets),
                ("wsaf.tier.bytes", tier.bytes),
                ("wsaf.tier.timestamps", tier.timestamps),
                ("wsaf.tier.chance", tier.chance),
                ("wsaf.tier.tuple_lo", tier.tuple_lo),
                ("wsaf.tier.tuple_hi", tier.tuple_hi),
                ("wsaf.tier.tuple_present", tier.tuple_present),
                ("wsaf.tier.heat_keys", tier.heat_keys),
                ("wsaf.tier.heat_counts", tier.heat_counts),
            ]
        )
    if wsaf.ice is not None:
        columns.extend(
            [
                ("wsaf.ice.scale_packets", wsaf.ice.scale_packets),
                ("wsaf.ice.scale_bytes", wsaf.ice.scale_bytes),
            ]
        )
    return columns


def _stream_header(stream) -> "dict | None":
    """JSON header entry for an in-progress stream cursor.

    The block-draw keys are emitted only for unbounded cursors, so
    known-length snapshots serialize byte-for-byte as they did before
    the service refactor (golden files stay valid).  ``has_positions``
    is always false: it flagged a retired positioned-stream column, and
    stays in the header so cursors keep their bytes.
    """
    if stream is None:
        return None
    header = {
        "offset": stream.offset,
        "total": stream.total,
        "has_positions": False,
        "packets": stream.packets,
        "insertions": stream.insertions,
        "l1_saturations": stream.l1_saturations,
        "elapsed": stream.elapsed,
    }
    if stream.rng_state is not None:
        header["rng_state"] = stream.rng_state
        header["block_used"] = stream.block_used
        header["block_size"] = stream.block_size
    return header


def to_bytes(snapshot: MeasurementSnapshot) -> bytes:
    """Serialize ``snapshot`` to a self-describing byte string."""
    columns = _columns_of(snapshot)
    manifest = []
    payloads = []
    for name, array in columns:
        wire = _wire_dtype(array)
        manifest.append({"name": name, "dtype": wire, "count": int(len(array))})
        payloads.append(np.ascontiguousarray(array, dtype=wire).tobytes())

    wsaf = snapshot.wsaf
    stream = snapshot.stream
    header = {
        "version": SNAPSHOT_VERSION,
        "kind": snapshot.kind,
        "config": snapshot.config,
        "regulator": {
            "packets": snapshot.regulator.packets,
            "l1_saturations": snapshot.regulator.l1_saturations,
            "insertions": snapshot.regulator.insertions,
            "sketches": [
                {
                    "packets_encoded": sketch.packets_encoded,
                    "saturations": sketch.saturations,
                }
                for sketch in snapshot.regulator.sketches
            ],
        },
        "wsaf": {
            "num_entries": wsaf.num_entries,
            "probe_limit": wsaf.probe_limit,
            "eviction_policy": wsaf.eviction_policy,
            "size": wsaf.size,
            "insertions": wsaf.insertions,
            "updates": wsaf.updates,
            "evictions": wsaf.evictions,
            "gc_reclaimed": wsaf.gc_reclaimed,
            "rejected": wsaf.rejected,
        },
        "stream": _stream_header(stream),
        "key_range": (
            None if snapshot.key_range is None else list(snapshot.key_range)
        ),
        "shards_merged": snapshot.shards_merged,
        "extra": snapshot.extra,
        "manifest": manifest,
    }
    # Backend sections are declared only when present, so a flat snapshot's
    # header (and the files of every pre-backend build) stays section-free.
    sections = []
    if wsaf.tier is not None:
        sections.append("tier")
        header["wsaf"]["tier"] = {
            "cache_entries": wsaf.tier.cache_entries,
            "tier_interval": wsaf.tier.tier_interval,
            "op_count": wsaf.tier.op_count,
            "cache_updates": wsaf.tier.cache_updates,
            "promotions": wsaf.tier.promotions,
            "demotions": wsaf.tier.demotions,
        }
    if wsaf.ice is not None:
        sections.append("ice")
        header["wsaf"]["ice"] = {
            "bucket_slots": wsaf.ice.bucket_slots,
            "counter_bits": wsaf.ice.counter_bits,
            "upscales": wsaf.ice.upscales,
        }
    if sections:
        header["wsaf"]["sections"] = sections
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    parts = [MAGIC, len(header_bytes).to_bytes(8, "little"), header_bytes]
    parts.extend(payloads)
    return b"".join(parts)


#: Column dtype kinds either decoder accepts: unsigned, signed, float, bool.
_COLUMN_KINDS = "uifb"


def _read_header(data: bytes, magic: bytes, what: str) -> "tuple[dict, int]":
    """The JSON header object after ``magic``, and where its columns start."""
    if len(data) < len(magic) + 8 or data[: len(magic)] != magic:
        raise SnapshotError(f"not an {what} (bad magic)")
    header_begin = len(magic) + 8
    header_len = int.from_bytes(data[len(magic) : header_begin], "little")
    header_end = header_begin + header_len
    if header_end > len(data):
        raise SnapshotError(f"truncated {what} header")
    try:
        header = json.loads(data[header_begin:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"corrupt {what} header: {exc}") from exc
    if not isinstance(header, dict):
        raise SnapshotError(
            f"{what} header must be an object, got {type(header).__name__}"
        )
    return header, header_end


def _read_columns(
    data: bytes, offset: int, manifest, what: str
) -> "dict[str, np.ndarray]":
    """Decode the columns ``manifest`` lists, which must fill ``data``.

    Every entry needs a string name, a numeric or boolean dtype and a
    non-negative integer count; anything else is a :class:`SnapshotError`.
    """
    if not isinstance(manifest, list):
        raise SnapshotError(f"{what} header has no column manifest")
    columns: "dict[str, np.ndarray]" = {}
    for entry in manifest:
        if not isinstance(entry, dict):
            raise SnapshotError(f"malformed {what} manifest entry {entry!r}")
        name = entry.get("name")
        count = entry.get("count")
        wire = entry.get("dtype")
        if not isinstance(name, str):
            raise SnapshotError(f"{what} column name {name!r} is not a string")
        if type(count) is not int or count < 0:
            raise SnapshotError(f"{what} column {name!r} has bad count {count!r}")
        try:
            # Strings only: np.dtype(None) would silently read as float64.
            dtype = np.dtype(wire) if isinstance(wire, str) else None
        except (TypeError, ValueError):
            dtype = None
        if dtype is None or dtype.kind not in _COLUMN_KINDS:
            raise SnapshotError(
                f"{what} column {name!r} has unsupported dtype {wire!r}"
            )
        nbytes = dtype.itemsize * count
        if offset + nbytes > len(data):
            raise SnapshotError(f"truncated {what} payload at column {name!r}")
        columns[name] = np.frombuffer(
            data, dtype=dtype, count=count, offset=offset
        ).copy()
        offset += nbytes
    if offset != len(data):
        raise SnapshotError(
            f"{len(data) - offset} trailing bytes after the last {what} column"
        )
    return columns


def from_bytes(data: bytes) -> MeasurementSnapshot:
    """Decode :func:`to_bytes` output; reject foreign or damaged input.

    Every way the bytes can be wrong — magic, lengths, the manifest, a
    missing or mistyped header field, a record column whose length is
    not its section's record count or whose dtype is of the wrong kind —
    raises :class:`SnapshotError`.
    """
    header, header_end = _read_header(data, MAGIC, "IMSNAP snapshot")
    version = header.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {version!r} is not supported "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    columns = _read_columns(data, header_end, header.get("manifest"), "snapshot")
    try:
        return _snapshot_from(header, columns)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise SnapshotError(f"malformed snapshot header: {exc!r}") from exc


#: The per-record columns of a WSAF section (and of its tier section),
#: each as long as the section's ``keys``, with the dtype kind it holds.
_RECORD_COLUMNS = {
    "keys": "u",
    "packets": "f",
    "bytes": "f",
    "timestamps": "f",
    "chance": "b",
    "tuple_lo": "u",
    "tuple_hi": "u",
    "tuple_present": "b",
}


def _check_columns(columns, prefix: str, kinds: dict, count: int) -> None:
    """Raise SnapshotError unless each ``prefix.name`` column holds
    ``count`` entries of dtype kind ``kinds[name]``."""
    for name, kind in kinds.items():
        column = columns[f"{prefix}.{name}"]
        if column.dtype.kind != kind or len(column) != count:
            raise SnapshotError(
                f"snapshot column {prefix}.{name} holds {len(column)} "
                f"{column.dtype} entries; it needs {count} of kind {kind!r}"
            )


def _snapshot_from(
    header: dict, columns: "dict[str, np.ndarray]"
) -> MeasurementSnapshot:
    """Assemble a snapshot from its decoded header and columns."""
    sketch_meta = header["regulator"]["sketches"]
    sketches = []
    for index, meta in enumerate(sketch_meta):
        words = columns[f"regulator.{index}.words"]
        _check_columns(columns, f"regulator.{index}", {"words": "u"}, len(words))
        sketches.append(
            SketchState(
                words=words,
                packets_encoded=meta["packets_encoded"],
                saturations=meta["saturations"],
            )
        )
    regulator = RegulatorState(
        sketches=sketches,
        packets=header["regulator"]["packets"],
        l1_saturations=header["regulator"]["l1_saturations"],
        insertions=header["regulator"]["insertions"],
    )

    wsaf_meta = header["wsaf"]
    sections = wsaf_meta.get("sections", [])
    unknown = [name for name in sections if name not in _KNOWN_WSAF_SECTIONS]
    if unknown:
        raise SnapshotError(
            f"snapshot carries unknown WSAF section(s) {unknown!r}; "
            f"this build reads {list(_KNOWN_WSAF_SECTIONS)!r}"
        )
    tier = None
    if "tier" in sections:
        tier_meta = wsaf_meta.get("tier")
        if tier_meta is None:
            raise SnapshotError(
                "snapshot declares a 'tier' section but carries no tier header"
            )
        tier = TierState(
            cache_entries=tier_meta["cache_entries"],
            tier_interval=tier_meta["tier_interval"],
            op_count=tier_meta["op_count"],
            cache_updates=tier_meta["cache_updates"],
            promotions=tier_meta["promotions"],
            demotions=tier_meta["demotions"],
            keys=columns["wsaf.tier.keys"],
            packets=columns["wsaf.tier.packets"],
            bytes=columns["wsaf.tier.bytes"],
            timestamps=columns["wsaf.tier.timestamps"],
            chance=columns["wsaf.tier.chance"],
            tuple_lo=columns["wsaf.tier.tuple_lo"],
            tuple_hi=columns["wsaf.tier.tuple_hi"],
            tuple_present=columns["wsaf.tier.tuple_present"],
            heat_keys=columns["wsaf.tier.heat_keys"],
            heat_counts=columns["wsaf.tier.heat_counts"],
        )
    ice = None
    if "ice" in sections:
        ice_meta = wsaf_meta.get("ice")
        if ice_meta is None:
            raise SnapshotError(
                "snapshot declares an 'ice' section but carries no ice header"
            )
        ice = IceState(
            bucket_slots=ice_meta["bucket_slots"],
            counter_bits=ice_meta["counter_bits"],
            upscales=ice_meta["upscales"],
            scale_packets=columns["wsaf.ice.scale_packets"],
            scale_bytes=columns["wsaf.ice.scale_bytes"],
        )
    wsaf = WSAFState(
        num_entries=wsaf_meta["num_entries"],
        probe_limit=wsaf_meta["probe_limit"],
        eviction_policy=wsaf_meta["eviction_policy"],
        size=wsaf_meta["size"],
        insertions=wsaf_meta["insertions"],
        updates=wsaf_meta["updates"],
        evictions=wsaf_meta["evictions"],
        gc_reclaimed=wsaf_meta["gc_reclaimed"],
        rejected=wsaf_meta["rejected"],
        slots=columns["wsaf.slots"].astype(np.int64),
        keys=columns["wsaf.keys"],
        packets=columns["wsaf.packets"],
        bytes=columns["wsaf.bytes"],
        timestamps=columns["wsaf.timestamps"],
        chance=columns["wsaf.chance"],
        tuple_lo=columns["wsaf.tuple_lo"],
        tuple_hi=columns["wsaf.tuple_hi"],
        tuple_present=columns["wsaf.tuple_present"],
        tier=tier,
        ice=ice,
    )

    _check_columns(
        columns, "wsaf", {"slots": "i", **_RECORD_COLUMNS}, wsaf.num_records
    )
    if tier is not None:
        _check_columns(columns, "wsaf.tier", _RECORD_COLUMNS, tier.num_records)
        _check_columns(
            columns,
            "wsaf.tier",
            {"heat_keys": "u", "heat_counts": "i"},
            len(tier.heat_keys),
        )
    if ice is not None:
        _check_columns(
            columns,
            "wsaf.ice",
            {"scale_packets": "i", "scale_bytes": "i"},
            len(ice.scale_packets),
        )

    stream_meta = header["stream"]
    stream = None
    if stream_meta is not None:
        if stream_meta["has_positions"]:
            raise SnapshotError(
                "snapshot carries a positioned stream cursor, which this "
                "build no longer restores"
            )
        stream = StreamCursor(
            offset=stream_meta["offset"],
            total=stream_meta["total"],
            packets=stream_meta["packets"],
            insertions=stream_meta["insertions"],
            l1_saturations=stream_meta["l1_saturations"],
            elapsed=stream_meta["elapsed"],
            rng_state=stream_meta.get("rng_state"),
            block_used=stream_meta.get("block_used", 0),
            block_size=stream_meta.get("block_size", 0),
        )

    key_range = header.get("key_range")
    return MeasurementSnapshot(
        kind=header["kind"],
        config=header["config"],
        regulator=regulator,
        wsaf=wsaf,
        stream=stream,
        key_range=None if key_range is None else (key_range[0], key_range[1]),
        shards_merged=header.get("shards_merged", 1),
        extra=header.get("extra", {}),
    )


# -- incremental payload framing ---------------------------------------------
#
# The sharded worker pool talks to its long-lived workers over pipes:
# flow tables, slot descriptors and releases, snapshots at finalize.
# Those messages are not snapshots — they are small, frequent, and
# latency-sensitive — so they get their own framing: the same
# magic + JSON-header + raw-columns layout as IMSNAP, but columns keep
# their *native* dtypes (uint64 flow keys or a snapshot's uint8 bytes
# ship as-is instead of being widened to the archival 8-byte wire types).

#: Frame magic; distinct from :data:`MAGIC` so a frame can never be
#: mistaken for a persisted snapshot (or vice versa).
FRAME_MAGIC = b"IMFRM\x00\x01"


def _frame_dtype(array: np.ndarray) -> "tuple[str, np.ndarray]":
    """``array``'s little-endian wire dtype string and wire-ready data."""
    dtype = array.dtype
    if dtype.kind not in "uifb":
        raise SnapshotError(f"cannot frame column dtype {dtype}")
    wire = dtype.newbyteorder("<") if dtype.byteorder == ">" else dtype
    return wire.str, np.ascontiguousarray(array, dtype=wire)


def pack_frame(meta: "dict", columns: "dict[str, np.ndarray]") -> bytes:
    """Serialize one IPC frame: JSON ``meta`` plus named NumPy columns."""
    manifest = []
    payloads = []
    for name, array in columns.items():
        wire, data = _frame_dtype(np.asarray(array))
        manifest.append({"name": name, "dtype": wire, "count": int(data.size)})
        # The join below is the one copy: no per-column tobytes().
        payloads.append(memoryview(data))
    header = {"meta": meta, "manifest": manifest}
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    parts = [FRAME_MAGIC, len(header_bytes).to_bytes(8, "little"), header_bytes]
    parts.extend(payloads)
    return b"".join(parts)


def unpack_frame(data: bytes) -> "tuple[dict, dict[str, np.ndarray]]":
    """Decode :func:`pack_frame` output into ``(meta, columns)``."""
    header, header_end = _read_header(data, FRAME_MAGIC, "IPC frame")
    if not isinstance(header.get("meta"), dict):
        raise SnapshotError("IPC frame header has no meta object")
    columns = _read_columns(data, header_end, header.get("manifest"), "frame")
    return header["meta"], columns


def save(snapshot: MeasurementSnapshot, path) -> None:
    """Write ``snapshot`` to ``path`` (see :func:`to_bytes`)."""
    with open(path, "wb") as handle:
        handle.write(to_bytes(snapshot))


def load(path) -> MeasurementSnapshot:
    """Read a snapshot written by :func:`save`."""
    with open(path, "rb") as handle:
        return from_bytes(handle.read())
