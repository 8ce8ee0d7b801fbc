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
counter, byte counter, timestamp, and the 104-bit 5-tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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

        # ``_occupied`` answers per-slot probes; ``_occupied_slots`` mirrors
        # it as a set so snapshots/sweeps are O(size), not O(num_entries).
        self._occupied_slots: "set[int]" = set()
        self._allocate_columns()

        self.size = 0
        self.insertions = 0
        self.updates = 0
        self.evictions = 0
        self.gc_reclaimed = 0
        self.rejected = 0

    def _allocate_columns(self) -> None:
        """Build the empty per-slot record columns.

        Parallel Python lists here; key 0 in an unoccupied slot is the
        empty marker.  Array-backed subclasses override this with their
        own storage, so no table builds its columns twice.
        """
        n = self.num_entries
        self._occupied = [False] * n
        self._keys = [0] * n
        self._packets = [0.0] * n
        self._bytes = [0.0] * n
        self._timestamps = [0.0] * n
        self._chance = [False] * n
        self._tuples: "list[int | None]" = [None] * n

    # -- probing -----------------------------------------------------------

    def probe_sequence(self, key: int, length: "int | None" = None) -> Iterator[int]:
        """Slot indices visited for ``key``: h + (i + i²)/2 mod m."""
        length = self.probe_limit if length is None else length
        base = key & self._mask
        for i in range(length):
            yield (base + ((i + i * i) >> 1)) & self._mask

    def _expired(self, slot: int, now: float) -> bool:
        return (
            self.gc_timeout is not None
            and now - self._timestamps[slot] > self.gc_timeout
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
        occupied = self._occupied
        keys = self._keys
        probes = 0
        first_free = -1
        for i in range(self.probe_limit):
            slot = (base + ((i + i * i) >> 1)) & mask
            probes += 1
            if occupied[slot]:
                if keys[slot] == key:
                    if self.accountant is not None:
                        self.accountant.record("wsaf", reads=probes, writes=1)
                    self._packets[slot] += est_packets
                    self._bytes[slot] += est_bytes
                    self._timestamps[slot] = timestamp
                    self._chance[slot] = True
                    self.updates += 1
                    return self._packets[slot], self._bytes[slot]
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
        self._occupied[first_free] = True
        self._occupied_slots.add(first_free)
        self._keys[first_free] = key
        self._packets[first_free] = est_packets
        self._bytes[first_free] = est_bytes
        self._timestamps[first_free] = timestamp
        self._chance[first_free] = True
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
        victim = -1
        victim_packets = float("inf")
        for slot in self.probe_sequence(key):
            if self._expired(slot, now):
                self._clear(slot)
                self.gc_reclaimed += 1
                return slot
            if self.eviction_policy == "reject":
                continue
            if self.eviction_policy == "second-chance" and self._chance[slot]:
                self._chance[slot] = False
                continue
            if self._packets[slot] < victim_packets:
                victim = slot
                victim_packets = self._packets[slot]
        if victim >= 0:
            self._clear(victim)
            self.evictions += 1
        return victim

    def _clear(self, slot: int) -> None:
        self._occupied[slot] = False
        self._occupied_slots.discard(slot)
        self._keys[slot] = 0
        self._packets[slot] = 0.0
        self._bytes[slot] = 0.0
        self._timestamps[slot] = 0.0
        self._chance[slot] = False
        self._tuples[slot] = None
        self.size -= 1

    def lookup(self, key: int) -> "WSAFEntry | None":
        """The record for ``key``, or ``None`` if absent."""
        for slot in self.probe_sequence(key):
            if self._occupied[slot] and self._keys[slot] == key:
                return WSAFEntry(
                    key=key,
                    packets=self._packets[slot],
                    bytes=self._bytes[slot],
                    last_update=self._timestamps[slot],
                    five_tuple_packed=self._tuples[slot],
                )
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
            if self._occupied[slot] and self._keys[slot] == key:
                entry = WSAFEntry(
                    key=key,
                    packets=self._packets[slot],
                    bytes=self._bytes[slot],
                    last_update=self._timestamps[slot],
                    five_tuple_packed=self._tuples[slot],
                )
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
            if not self._occupied[slot]:
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
        self._occupied[free] = True
        self._occupied_slots.add(free)
        self._keys[free] = key
        self._packets[free] = packets
        self._bytes[free] = bytes_
        self._timestamps[free] = timestamp
        self._chance[free] = chance
        self._tuples[free] = five_tuple_packed
        self.size += 1
        return True

    def entries(self) -> Iterator[WSAFEntry]:
        """All occupied records, in table order (O(size), not O(capacity))."""
        for slot in sorted(self._occupied_slots):
            yield WSAFEntry(
                key=self._keys[slot],
                packets=self._packets[slot],
                bytes=self._bytes[slot],
                last_update=self._timestamps[slot],
                five_tuple_packed=self._tuples[slot],
            )

    def estimates(
        self, flow_keys=None
    ) -> "dict[int, tuple[float, float]]":
        """Mapping of flow key → (packets, bytes).

        With ``flow_keys`` (an iterable of keys), only those keys are
        probed — O(len(flow_keys) · probe_limit) instead of a full-table
        snapshot — and keys absent from the table are omitted.  Detection
        apps polling a watch list every window tick use the filtered form.
        """
        if flow_keys is not None:
            found: "dict[int, tuple[float, float]]" = {}
            occupied = self._occupied
            keys = self._keys
            for key in flow_keys:
                key = int(key)
                for slot in self.probe_sequence(key):
                    if occupied[slot] and keys[slot] == key:
                        found[key] = (self._packets[slot], self._bytes[slot])
                        break
            return found
        return {
            self._keys[slot]: (self._packets[slot], self._bytes[slot])
            for slot in sorted(self._occupied_slots)
        }

    # -- state transfer --------------------------------------------------------

    def export_state(self):
        """The table's records and counters as a serializable
        :class:`~repro.state.snapshot.WSAFState` (columns in slot order)."""
        import numpy as np

        from repro.state.snapshot import WSAFState, pack_tuple_columns

        slots = sorted(self._occupied_slots)
        n = len(slots)
        lo, hi, present = pack_tuple_columns([self._tuples[s] for s in slots])
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
            slots=np.array(slots, dtype=np.int64),
            keys=np.fromiter(
                (self._keys[s] for s in slots), dtype=np.uint64, count=n
            ),
            packets=np.fromiter(
                (self._packets[s] for s in slots), dtype=np.float64, count=n
            ),
            bytes=np.fromiter(
                (self._bytes[s] for s in slots), dtype=np.float64, count=n
            ),
            timestamps=np.fromiter(
                (self._timestamps[s] for s in slots), dtype=np.float64, count=n
            ),
            chance=np.fromiter(
                (self._chance[s] for s in slots), dtype=bool, count=n
            ),
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
            if not self._occupied[probe]:
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
        for slot in sorted(self._occupied_slots):
            self._clear(slot)
        exact = state.num_entries == self.num_entries
        tuples = state.tuples()
        for i, (slot, key) in enumerate(
            zip(state.slots.tolist(), state.keys.tolist())
        ):
            if not (exact and 0 <= slot < self.num_entries) or self._occupied[slot]:
                slot = self._probe_place(key)
            self._occupied[slot] = True
            self._occupied_slots.add(slot)
            self._keys[slot] = key
            self._packets[slot] = float(state.packets[i])
            self._bytes[slot] = float(state.bytes[i])
            self._timestamps[slot] = float(state.timestamps[i])
            self._chance[slot] = bool(state.chance[i])
            self._tuples[slot] = tuples[i]
        if tier_records:
            tier_tuples = tier.tuples()
            for i, key in enumerate(tier.keys.tolist()):
                slot = self._probe_place(key)
                self._occupied[slot] = True
                self._occupied_slots.add(slot)
                self._keys[slot] = key
                self._packets[slot] = float(tier.packets[i])
                self._bytes[slot] = float(tier.bytes[i])
                self._timestamps[slot] = float(tier.timestamps[i])
                self._chance[slot] = bool(tier.chance[i])
                self._tuples[slot] = tier_tuples[i]
        self.size = state.num_records + tier_records
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
        reclaimed = 0
        for slot in sorted(self._occupied_slots):
            if self._timestamps[slot] < cutoff:
                self._clear(slot)
                reclaimed += 1
        self.gc_reclaimed += reclaimed
        return reclaimed

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
