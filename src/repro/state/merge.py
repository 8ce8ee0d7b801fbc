"""Merging measurement state: the disjoint snapshot merge.

:func:`merge` folds N finalized
:class:`~repro.state.snapshot.MeasurementSnapshot` objects with
*disjoint* key sets (no flow key appears in two snapshots — the sharded
pipeline's case) into one: records concatenate and the regulator word
arrays OR together; because every input evolved its own words under the
same seed over a disjoint word range, the OR is exact.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.errors import SnapshotError
from repro.state.snapshot import (
    MeasurementSnapshot,
    RegulatorState,
    SketchState,
    WSAFState,
)

#: Config fields that must match across merged snapshots: everything that
#: determines sketch geometry, placement, or WSAF policy.  Fields that only
#: affect execution strategy (engine/chunk_size/replay knobs) may differ.
#: Each field carries the default it takes when absent from a snapshot's
#: config dict, so snapshots written before a knob existed merge cleanly
#: with current ones (absent compares equal to the default).  The retired
#: ``num_layers`` works the other way round: older snapshots record the
#: depth, current ones omit it, and an absent depth is the engine's 2.
_GEOMETRY_FIELDS = {
    "l1_memory_bytes": None,
    "num_layers": 2,
    "vector_bits": None,
    "word_bits": None,
    "saturation_fill": None,
    "wsaf_entries": None,
    "probe_limit": None,
    "gc_timeout": None,
    "eviction_policy": None,
    "wsaf_backend": "flat",
    "tier_cache_entries": 256,
    "tier_interval": 1024,
    "ice_bucket_slots": 64,
    "ice_counter_bits": 16,
}


def _check_compatible(snapshots) -> None:
    first = snapshots[0]
    for other in snapshots[1:]:
        if other.kind != first.kind:
            raise SnapshotError(
                f"cannot merge snapshot kinds {first.kind!r} and {other.kind!r}"
            )
        for name, default in _GEOMETRY_FIELDS.items():
            if other.config.get(name, default) != first.config.get(
                name, default
            ):
                raise SnapshotError(
                    f"cannot merge snapshots with different {name}: "
                    f"{first.config.get(name, default)!r} vs "
                    f"{other.config.get(name, default)!r}"
                )
        if other.config.get("seed") != first.config.get("seed"):
            raise SnapshotError(
                "disjoint-range merge requires a shared placement seed: "
                f"{first.config.get('seed')!r} vs {other.config.get('seed')!r}"
            )
        if len(other.regulator.sketches) != len(first.regulator.sketches):
            raise SnapshotError("snapshots disagree on regulator sketch count")
        if other.stream is not None or first.stream is not None:
            raise SnapshotError(
                "cannot merge snapshots with in-progress streams; "
                "finalize before merging"
            )


def _merge_regulators(snapshots) -> RegulatorState:
    """OR the word arrays, sum the counters.

    Exact for disjoint word ranges under a shared seed: each word has at
    most one writer.
    """
    first = snapshots[0].regulator
    sketches = []
    for index in range(len(first.sketches)):
        words = first.sketches[index].words.copy()
        encoded = first.sketches[index].packets_encoded
        saturations = first.sketches[index].saturations
        for other in snapshots[1:]:
            saved = other.regulator.sketches[index]
            if len(saved.words) != len(words):
                raise SnapshotError(
                    f"sketch {index} word counts differ: "
                    f"{len(words)} vs {len(saved.words)}"
                )
            words |= saved.words
            encoded += saved.packets_encoded
            saturations += saved.saturations
        sketches.append(
            SketchState(
                words=words, packets_encoded=encoded, saturations=saturations
            )
        )
    return RegulatorState(
        sketches=sketches,
        packets=sum(snap.regulator.packets for snap in snapshots),
        l1_saturations=sum(
            snap.regulator.l1_saturations for snap in snapshots
        ),
        insertions=sum(snap.regulator.insertions for snap in snapshots),
    )


def _flatten_wsaf(state: WSAFState) -> WSAFState:
    """Fold a backend's sections into plain flat columns.

    A tiered shard's hot-cache records concatenate after its table
    records with slot ``-1`` (they never had table slots); tiers are
    exclusive, so no key duplicates.  A compressed shard's scale section
    simply drops — the main columns already hold the dequantized values,
    and a restore into a compressed backend re-quantizes them
    (estimate-equivalent within one quantization step).  Merged snapshots
    therefore never carry sections.
    """
    if state.tier is None and state.ice is None:
        return state
    tier = state.tier
    if tier is None or tier.num_records == 0:
        return replace(state, tier=None, ice=None)
    return replace(
        state,
        tier=None,
        ice=None,
        slots=np.concatenate(
            [state.slots, np.full(tier.num_records, -1, dtype=np.int64)]
        ),
        keys=np.concatenate([state.keys, tier.keys]),
        packets=np.concatenate([state.packets, tier.packets]),
        bytes=np.concatenate([state.bytes, tier.bytes]),
        timestamps=np.concatenate([state.timestamps, tier.timestamps]),
        chance=np.concatenate([state.chance, tier.chance]),
        tuple_lo=np.concatenate([state.tuple_lo, tier.tuple_lo]),
        tuple_hi=np.concatenate([state.tuple_hi, tier.tuple_hi]),
        tuple_present=np.concatenate(
            [state.tuple_present, tier.tuple_present]
        ),
    )


def _concat_wsaf(snapshots) -> WSAFState:
    """Disjoint merge: concatenate records, sum counters, keep slots."""
    states = [_flatten_wsaf(snap.wsaf) for snap in snapshots]
    slots = np.concatenate([state.slots for state in states])
    # Two shards can legitimately claim one slot (their keys hash apart
    # but probe together); such records lose their exact placement and
    # re-probe at restore time.
    values, counts = np.unique(slots[slots >= 0], return_counts=True)
    contested = values[counts > 1]
    if contested.size:
        slots = np.where(np.isin(slots, contested), -1, slots)
    return WSAFState(
        num_entries=states[0].num_entries,
        probe_limit=states[0].probe_limit,
        eviction_policy=states[0].eviction_policy,
        size=sum(state.size for state in states),
        insertions=sum(state.insertions for state in states),
        updates=sum(state.updates for state in states),
        evictions=sum(state.evictions for state in states),
        gc_reclaimed=sum(state.gc_reclaimed for state in states),
        rejected=sum(state.rejected for state in states),
        slots=slots,
        keys=np.concatenate([state.keys for state in states]),
        packets=np.concatenate([state.packets for state in states]),
        bytes=np.concatenate([state.bytes for state in states]),
        timestamps=np.concatenate([state.timestamps for state in states]),
        chance=np.concatenate([state.chance for state in states]),
        tuple_lo=np.concatenate([state.tuple_lo for state in states]),
        tuple_hi=np.concatenate([state.tuple_hi for state in states]),
        tuple_present=np.concatenate([state.tuple_present for state in states]),
    )


def _merged_key_range(snapshots) -> "tuple[int, int] | None":
    ranges = [snap.key_range for snap in snapshots]
    if any(r is None for r in ranges):
        return None
    return (min(r[0] for r in ranges), max(r[1] for r in ranges))


def merge(snapshots) -> MeasurementSnapshot:
    """Fold finalized snapshots with disjoint key sets into one.

    Args:
        snapshots: a non-empty sequence of compatible snapshots (same
            kind, same sketch/WSAF geometry and seed, no in-progress
            streams) in which no flow key appears twice; shared keys
            raise :class:`~repro.errors.SnapshotError`.

    The merged snapshot's ``estimates()`` are exactly the union of the
    inputs'.  Its ``restore()`` places slot-exact records directly and
    re-probes the rest.
    """
    snapshots = list(snapshots)
    if not snapshots:
        raise SnapshotError("cannot merge zero snapshots")
    _check_compatible(snapshots)

    all_keys = np.concatenate(
        [
            (
                np.concatenate([snap.wsaf.keys, snap.wsaf.tier.keys])
                if snap.wsaf.tier is not None
                else snap.wsaf.keys
            )
            for snap in snapshots
        ]
    )
    # Sort plus adjacent compare: a plain np.unique takes NumPy's (>= 2.3)
    # hash path, which is ~60x slower on a million random 64-bit keys.
    all_keys.sort()
    if np.any(all_keys[1:] == all_keys[:-1]):
        raise SnapshotError("cannot merge snapshots that share flow keys")

    return MeasurementSnapshot(
        kind=snapshots[0].kind,
        config=dict(snapshots[0].config),
        regulator=_merge_regulators(snapshots),
        wsaf=_concat_wsaf(snapshots),
        stream=None,
        key_range=_merged_key_range(snapshots),
        shards_merged=sum(snap.shards_merged for snap in snapshots),
    )
