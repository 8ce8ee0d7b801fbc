"""WSAF — the In-DRAM Working Set of Active Flows (Section III-B).

An open-addressing hash table of flow records, sized in powers of two and
probed with the paper's quadratic sequence ``h(k, i) = hash(k) + 0.5·i +
0.5·i² mod m``.  Triangular-number probing on a power-of-two table visits
every slot exactly once over ``i ∈ [0, m)`` (property-tested), which is why
the paper calls out these "specific parameters … for probing all table
positions in [0, m-1] to achieve a high load factor".

Because mice flows leak through the FlowRegulator probabilistically, the
table evicts under pressure with a *probe-limit second-chance* policy:
probing stops after ``probe_limit`` slots; if neither the key nor a free
slot was found, entries in the probe window that have a second-chance bit
get it cleared and are spared, and the smallest unspared entry (a mouse) is
evicted.  Expired entries are garbage-collected opportunistically during
probing, as the paper describes ("when a new flow is inserted, and an empty
slot is searched by hash chaining, garbage collection is performed").

Each record mirrors the paper's 33-byte layout: flow-ID hash, packet
counter, byte counter, timestamp, and the 104-bit 5-tuple.  Every table
(and every backend built on one) keeps them in the same column store: a
NumPy column per field, which sweeps and snapshots read whole, and a
memoryview of each column, which the per-event operations index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.memmodel import AccessAccountant

#: Bytes per table entry in the paper's layout (Section IV-D).
ENTRY_BYTES = 33


@dataclass
class WSAFEntry:
    """A materialized view of one WSAF record."""

    key: int
    packets: float
    bytes: float
    last_update: float
    five_tuple_packed: "int | None"


class WSAFTable:
    """The working set of active flows.

    Args:
        num_entries: table capacity; must be a power of two.
        probe_limit: maximum probed slots per operation (the paper's probe
            limit).
        gc_timeout: seconds of inactivity after which an entry may be
            reclaimed during probing; ``None`` disables garbage collection.
        accountant: optional memory-access accountant (the WSAF is the
            structure whose DRAM accesses the FlowRegulator exists to
            reduce, so experiments cost it explicitly).
        eviction_policy: what to do when the probe window is full —
            ``"second-chance"`` (the paper's design: spare recently-updated
            entries once, then evict the smallest mouse), ``"min"`` (always
            evict the smallest, no second chances), or ``"reject"`` (never
            evict; drop the incoming estimate).  The non-default policies
            exist for the ablation study.
    """

    EVICTION_POLICIES = ("second-chance", "min", "reject")

    def __init__(
        self,
        num_entries: int = 1 << 20,
        probe_limit: int = 16,
        gc_timeout: "float | None" = None,
        accountant: "AccessAccountant | None" = None,
        eviction_policy: str = "second-chance",
    ) -> None:
        if num_entries < 2 or num_entries & (num_entries - 1):
            raise ConfigurationError(
                f"num_entries must be a power of two >= 2, got {num_entries}"
            )
        if probe_limit < 1:
            raise ConfigurationError(f"probe_limit must be >= 1, got {probe_limit}")
        if gc_timeout is not None and gc_timeout <= 0:
            raise ConfigurationError("gc_timeout must be positive or None")
        if eviction_policy not in self.EVICTION_POLICIES:
            raise ConfigurationError(
                f"unknown eviction_policy {eviction_policy!r}; "
                f"known: {self.EVICTION_POLICIES}"
            )
        self.eviction_policy = eviction_policy
        self.num_entries = num_entries
        self.probe_limit = min(probe_limit, num_entries)
        self.gc_timeout = gc_timeout
        self.accountant = accountant
        self._mask = num_entries - 1

        # One NumPy column per record field; key 0 in an unoccupied slot
        # is the empty marker.  The packed 5-tuple is a 104-bit int (or
        # None), which no fixed-width dtype holds, so it stays a list.
        n = num_entries
        self._occupied = np.zeros(n, dtype=bool)
        self._keys = np.zeros(n, dtype=np.uint64)
        self._packets = np.zeros(n, dtype=np.float64)
        self._bytes = np.zeros(n, dtype=np.float64)
        self._timestamps = np.zeros(n, dtype=np.float64)
        self._chance = np.zeros(n, dtype=bool)
        self._tuples: "list[int | None]" = [None] * n
        # The per-event operations index the same buffers through
        # memoryviews, whose items are plain Python bools, ints and
        # floats: cheaper per event than NumPy scalars.
        self._occupied_mv = memoryview(self._occupied)
        self._keys_mv = memoryview(self._keys)
        self._packets_mv = memoryview(self._packets)
        self._bytes_mv = memoryview(self._bytes)
        self._timestamps_mv = memoryview(self._timestamps)
        self._chance_mv = memoryview(self._chance)
        #: Triangular probe offsets (i + i²)/2 for the whole window.
        self._tri = np.array(
            [(i + i * i) >> 1 for i in range(self.probe_limit)], dtype=np.uint64
        )

        self.size = 0
        self.insertions = 0
        self.updates = 0
        self.evictions = 0
        self.gc_reclaimed = 0
        self.rejected = 0

    # -- probing -----------------------------------------------------------

    def probe_sequence(self, key: int, length: "int | None" = None) -> Iterator[int]:
        """Slot indices visited for ``key``: h + (i + i²)/2 mod m."""
        length = self.probe_limit if length is None else length
        base = key & self._mask
        for i in range(length):
            yield (base + ((i + i * i) >> 1)) & self._mask

    def _probe_windows(self, keys: np.ndarray) -> np.ndarray:
        """The ``(len(keys), probe_limit)`` slot matrix of ``keys``' windows."""
        mask64 = np.uint64(self._mask)
        return (((keys & mask64)[:, None] + self._tri[None, :]) & mask64).astype(
            np.intp
        )

    def _expired(self, slot: int, now: float) -> bool:
        return (
            self.gc_timeout is not None
            and now - self._timestamps_mv[slot] > self.gc_timeout
        )

    # -- operations ----------------------------------------------------------

    def accumulate(
        self,
        key: int,
        est_packets: float,
        est_bytes: float,
        timestamp: float,
        five_tuple_packed: "int | None" = None,
    ) -> "tuple[float, float]":
        """Add a decoded estimate to ``key``'s record, inserting if needed.

        This is the paper's ``ACC_WSAF(f, est_pkt, est_byte)`` (Algorithm 1
        line 16).  Returns the flow's accumulated ``(packets, bytes)`` after
        the update, which heavy-hitter detection thresholds against.
        """
        # The probe walk is inlined (identical to probe_sequence) — this is
        # the hottest shared path of both engines.
        mask = self._mask
        base = key & mask
        occupied = self._occupied_mv
        keys = self._keys_mv
        probes = 0
        first_free = -1
        for i in range(self.probe_limit):
            slot = (base + ((i + i * i) >> 1)) & mask
            probes += 1
            if occupied[slot]:
                if keys[slot] == key:
                    if self.accountant is not None:
                        self.accountant.record("wsaf", reads=probes, writes=1)
                    total_packets = self._packets_mv[slot] + est_packets
                    total_bytes = self._bytes_mv[slot] + est_bytes
                    self._packets_mv[slot] = total_packets
                    self._bytes_mv[slot] = total_bytes
                    self._timestamps_mv[slot] = timestamp
                    self._chance_mv[slot] = True
                    self.updates += 1
                    return total_packets, total_bytes
                if first_free < 0 and self._expired(slot, timestamp):
                    # Opportunistic garbage collection during hash chaining.
                    self._clear(slot)
                    self.gc_reclaimed += 1
                    first_free = slot
            elif first_free < 0:
                first_free = slot

        if first_free < 0:
            first_free = self._find_victim(key, timestamp)
        if first_free < 0:
            # Pathological: every window entry is a heavier flow that just
            # received its second chance.  Drop the estimate (counted).
            self.rejected += 1
            if self.accountant is not None:
                self.accountant.record("wsaf", reads=probes)
            return 0.0, 0.0

        if self.accountant is not None:
            self.accountant.record("wsaf", reads=probes, writes=1)
        self._occupied_mv[first_free] = True
        self._keys_mv[first_free] = key
        self._packets_mv[first_free] = est_packets
        self._bytes_mv[first_free] = est_bytes
        self._timestamps_mv[first_free] = timestamp
        self._chance_mv[first_free] = True
        self._tuples[first_free] = five_tuple_packed
        self.size += 1
        self.insertions += 1
        return est_packets, est_bytes

    def accumulate_batch(
        self,
        events,
        on_accumulate=None,
    ) -> "list[tuple[float, float]]":
        """Apply many :meth:`accumulate` events in order.

        ``events`` is an iterable of ``(key, est_packets, est_bytes,
        timestamp, five_tuple_packed)`` tuples — the shape the batched
        kernel and the multi-core manager produce.  ``on_accumulate``, if
        given, is fired after each event with ``(key, total_packets,
        total_bytes, timestamp)``.  Returns the per-event running totals.
        """
        accumulate = self.accumulate
        totals: "list[tuple[float, float]]" = []
        for key, est_packets, est_bytes, timestamp, five_tuple_packed in events:
            result = accumulate(
                key, est_packets, est_bytes, timestamp, five_tuple_packed
            )
            if on_accumulate is not None:
                on_accumulate(key, result[0], result[1], timestamp)
            totals.append(result)
        return totals

    def _find_victim(self, key: int, now: float) -> int:
        """Free a slot in ``key``'s probe window per the eviction policy.

        Expired entries are always reclaimed first (garbage collection).
        Under ``second-chance``, entries whose chance bit is set are spared
        once (bit cleared); if every entry was spared, the insert is
        rejected (returns -1) and will win a slot on a later attempt once
        chance bits have decayed.  Under ``min``, the smallest entry is
        evicted unconditionally.  Under ``reject``, nothing is evicted.
        """
        chance = self._chance_mv
        packets = self._packets_mv
        victim = -1
        victim_packets = float("inf")
        for slot in self.probe_sequence(key):
            if self._expired(slot, now):
                self._clear(slot)
                self.gc_reclaimed += 1
                return slot
            if self.eviction_policy == "reject":
                continue
            if self.eviction_policy == "second-chance" and chance[slot]:
                chance[slot] = False
                continue
            if packets[slot] < victim_packets:
                victim = slot
                victim_packets = packets[slot]
        if victim >= 0:
            self._clear(victim)
            self.evictions += 1
        return victim

    def _write(
        self,
        slot: int,
        key: int,
        packets: float,
        bytes_: float,
        timestamp: float,
        chance: bool,
        five_tuple_packed: "int | None",
    ) -> None:
        """Fill the free ``slot`` with a whole record."""
        self._occupied_mv[slot] = True
        self._keys_mv[slot] = key
        self._packets_mv[slot] = packets
        self._bytes_mv[slot] = bytes_
        self._timestamps_mv[slot] = timestamp
        self._chance_mv[slot] = chance
        self._tuples[slot] = five_tuple_packed
        self.size += 1

    def _clear(self, slot: int) -> None:
        self._occupied_mv[slot] = False
        self._keys_mv[slot] = 0
        self._packets_mv[slot] = 0.0
        self._bytes_mv[slot] = 0.0
        self._timestamps_mv[slot] = 0.0
        self._chance_mv[slot] = False
        self._tuples[slot] = None
        self.size -= 1

    def _entry(self, slot: int) -> WSAFEntry:
        """The record in the occupied ``slot``."""
        return WSAFEntry(
            key=self._keys_mv[slot],
            packets=self._packets_mv[slot],
            bytes=self._bytes_mv[slot],
            last_update=self._timestamps_mv[slot],
            five_tuple_packed=self._tuples[slot],
        )

    def lookup(self, key: int) -> "WSAFEntry | None":
        """The record for ``key``, or ``None`` if absent."""
        for slot in self.probe_sequence(key):
            if self._occupied_mv[slot] and self._keys_mv[slot] == key:
                return self._entry(slot)
        return None

    def remove(self, key: int) -> "WSAFEntry | None":
        """Take ``key``'s record out of the table, returning it (or ``None``).

        The tiered backend's promotion primitive: a flow moving into the
        hot cache must leave the backing table so the two tiers stay
        disjoint.  The removal is *not* an eviction — no counter moves —
        and costs one probe walk plus one write when the key is found.
        """
        probes = 0
        for slot in self.probe_sequence(key):
            probes += 1
            if self._occupied_mv[slot] and self._keys_mv[slot] == key:
                entry = self._entry(slot)
                self._clear(slot)
                if self.accountant is not None:
                    self.accountant.record("wsaf", reads=probes, writes=1)
                return entry
        if self.accountant is not None:
            self.accountant.record("wsaf", reads=probes)
        return None

    def place_record(
        self,
        key: int,
        packets: float,
        bytes_: float,
        timestamp: float,
        chance: bool,
        five_tuple_packed: "int | None",
        now: float,
    ) -> bool:
        """Insert a fully-formed record without event counters.

        The inverse of :meth:`remove` — the tiered backend's demotion
        primitive (and a building block for restores): the record already
        exists logically, so ``insertions``/``updates`` must not move.
        Probes the normal window (reclaiming expired entries on the way);
        a full window falls back to the eviction policy, which *does*
        count — evicting a resident mouse for a demoted flow is a real
        eviction.  Returns ``False`` (counted in ``rejected``) when the
        policy yields no slot and the record is dropped.
        """
        probes = 0
        free = -1
        for slot in self.probe_sequence(key):
            probes += 1
            if not self._occupied_mv[slot]:
                free = slot
                break
            if self._expired(slot, now):
                self._clear(slot)
                self.gc_reclaimed += 1
                free = slot
                break
        if free < 0:
            free = self._find_victim(key, now)
        if self.accountant is not None:
            self.accountant.record(
                "wsaf", reads=probes, writes=1 if free >= 0 else 0
            )
        if free < 0:
            self.rejected += 1
            return False
        self._write(
            free, key, packets, bytes_, timestamp, chance, five_tuple_packed
        )
        return True

    def entries(self) -> Iterator[WSAFEntry]:
        """All occupied records, in table order."""
        for slot in np.flatnonzero(self._occupied).tolist():
            yield self._entry(slot)

    def estimates(
        self, flow_keys=None
    ) -> "dict[int, tuple[float, float]]":
        """Mapping of flow key → (packets, bytes).

        With ``flow_keys`` (an iterable of keys), only those keys are
        probed — O(len(flow_keys) · probe_limit) instead of a full-table
        snapshot — and keys absent from the table are omitted.  Detection
        apps polling a watch list every window tick use the filtered form.
        """
        if flow_keys is None:
            slots = np.flatnonzero(self._occupied)
            keys = self._keys[slots]
        else:
            query, rows, slots = self._find(flow_keys)
            keys = query[rows]
        return dict(
            zip(
                keys.tolist(),
                zip(self._packets[slots].tolist(), self._bytes[slots].tolist()),
            )
        )

    def estimates_arrays(
        self, flow_keys
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Per-flow (packets, bytes) float arrays aligned with ``flow_keys``.

        Missing flows read 0.0 — the array form of :meth:`estimates`, with
        no intermediate dict for callers that want columns back.
        """
        query, rows, slots = self._find(flow_keys)
        est_packets = np.zeros(query.size)
        est_bytes = np.zeros(query.size)
        est_packets[rows] = self._packets[slots]
        est_bytes[rows] = self._bytes[slots]
        return est_packets, est_bytes

    def _find(self, flow_keys) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """``(query, rows, slots)``: ``flow_keys`` as a uint64 array, the
        rows of it the table holds, and the slot holding each."""
        query = np.asarray(
            flow_keys if isinstance(flow_keys, np.ndarray) else list(flow_keys),
            dtype=np.uint64,
        )
        slots = self._probe_windows(query)
        found = self._occupied[slots] & (self._keys[slots] == query[:, None])
        rows = np.flatnonzero(found.any(axis=1))
        return query, rows, slots[rows, found[rows].argmax(axis=1)]

    # -- state transfer --------------------------------------------------------

    def export_state(self):
        """The table's records and counters as a serializable
        :class:`~repro.state.snapshot.WSAFState` (columns in slot order).

        The occupied slots come straight off the occupancy column and
        every numeric column gathers in one fancy index; only the 5-tuple
        list (104-bit Python ints) walks a loop.
        """
        from repro.state.snapshot import WSAFState, pack_tuple_columns

        slots = np.flatnonzero(self._occupied)
        lo, hi, present = pack_tuple_columns(
            [self._tuples[s] for s in slots.tolist()]
        )
        return WSAFState(
            num_entries=self.num_entries,
            probe_limit=self.probe_limit,
            eviction_policy=self.eviction_policy,
            size=self.size,
            insertions=self.insertions,
            updates=self.updates,
            evictions=self.evictions,
            gc_reclaimed=self.gc_reclaimed,
            rejected=self.rejected,
            slots=slots.astype(np.int64),
            keys=self._keys[slots],
            packets=self._packets[slots],
            bytes=self._bytes[slots],
            timestamps=self._timestamps[slots],
            chance=self._chance[slots],
            tuple_lo=lo,
            tuple_hi=hi,
            tuple_present=present,
        )

    def _probe_place(self, key: int) -> int:
        """First free slot of ``key``'s full-length probe sequence.

        Restore-time placement for records whose exact slot is unknown
        (merged snapshots, capacity changes, flushed cache tiers); raises
        when the table is completely full along the sequence.
        """
        from repro.errors import SnapshotError

        for probe in self.probe_sequence(key, length=self.num_entries):
            if not self._occupied_mv[probe]:
                return probe
        raise SnapshotError(f"no free slot for restored key {key:#x}")

    def load_state(self, state) -> None:
        """Replace the table's contents from an :meth:`export_state` snapshot.

        Policy and probe geometry must match (they shape every future
        probe); capacity may differ — records keep their exact slot when
        it is valid and free, and re-probe into the first free slot of
        their full-length probe sequence otherwise (merged snapshots mark
        contested placements slot ``-1``).  Counters restore wholesale.

        A snapshot taken from a tiered backend carries its hot-cache
        records in a ``tier`` section; loading one here flushes those
        records into the table (probe-placed — they never had slots), so
        a flat restore of a tiered capture loses no counts.
        """
        from repro.errors import SnapshotError

        if state.probe_limit != self.probe_limit:
            raise SnapshotError(
                f"snapshot probe_limit {state.probe_limit} != table "
                f"probe_limit {self.probe_limit}"
            )
        if state.eviction_policy != self.eviction_policy:
            raise SnapshotError(
                f"snapshot eviction_policy {state.eviction_policy!r} != "
                f"table eviction_policy {self.eviction_policy!r}"
            )
        tier = getattr(state, "tier", None)
        tier_records = 0 if tier is None else tier.num_records
        if state.num_records + tier_records > self.num_entries:
            raise SnapshotError(
                f"snapshot holds {state.num_records + tier_records} records; "
                f"table capacity is {self.num_entries}"
            )
        for slot in np.flatnonzero(self._occupied).tolist():
            self._clear(slot)
        exact = state.num_entries == self.num_entries
        occupied = self._occupied_mv
        for slot, (key, *record) in zip(
            state.slots.tolist(), _records(state), strict=True
        ):
            if not (exact and 0 <= slot < self.num_entries) or occupied[slot]:
                slot = self._probe_place(key)
            self._write(slot, key, *record)
        if tier is not None:
            for key, *record in _records(tier):
                self._write(self._probe_place(key), key, *record)
        self.insertions = state.insertions
        self.updates = state.updates
        self.evictions = state.evictions
        self.gc_reclaimed = state.gc_reclaimed
        self.rejected = state.rejected

    # -- lifecycle -------------------------------------------------------------

    def expire_older_than(self, cutoff: float) -> int:
        """Bulk-reclaim entries last updated before ``cutoff``.

        The opportunistic probe-time GC only touches slots it happens to
        walk; long-running deployments (the 113-hour campus run) can sweep
        periodically with this instead.  Returns the number reclaimed.
        """
        slots = np.flatnonzero(self._occupied)
        stale = slots[self._timestamps[slots] < cutoff]
        for slot in stale.tolist():
            self._clear(slot)
        self.gc_reclaimed += len(stale)
        return len(stale)

    def active_entries(self, now: float, window: float) -> Iterator[WSAFEntry]:
        """Records updated within the last ``window`` seconds.

        The "working set of *active* flows" view: what a TE or detection
        application should consider live at time ``now``.
        """
        if window <= 0:
            raise ConfigurationError("window must be positive")
        for entry in self.entries():
            if now - entry.last_update <= window:
                yield entry

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return self.size

    @property
    def load_factor(self) -> float:
        return self.size / self.num_entries

    def memory_bytes(self) -> int:
        """DRAM footprint under the paper's 33-byte entry layout."""
        return self.num_entries * ENTRY_BYTES

    def counter_memory_bytes(self) -> int:
        """Bytes the per-entry packet+byte counters occupy (two 64-bit
        counters of the 33-byte layout; compressed backends shrink this)."""
        return self.num_entries * 16


def _records(columns) -> Iterator[tuple]:
    """``(key, packets, bytes, timestamp, chance, five_tuple_packed)`` per
    record of a snapshot's columns (a :class:`~repro.state.snapshot.
    WSAFState` or its tier section), as Python values."""
    return zip(
        columns.keys.tolist(),
        columns.packets.tolist(),
        columns.bytes.tolist(),
        columns.timestamps.tolist(),
        columns.chance.tolist(),
        columns.tuples(),
        strict=True,
    )
