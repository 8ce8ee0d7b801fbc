"""Batch-probed, array-backed WSAF (the In-DRAM table, vectorized).

:class:`BatchedWSAFTable` keeps the scalar :class:`~repro.core.wsaf.WSAFTable`
semantics — same probe sequence, same eviction policies, same opportunistic
GC, same counters — but stores the columns as NumPy arrays and applies
delegated update batches with **cohort-based batch probing**:

1. Sort the batch stably by flow key, so all updates of one flow form a
   *cohort* that costs one probe plus one add-chain.
2. Compute every cohort's full probe window at once — a ``(cohorts,
   probe_limit)`` slot matrix from the triangular-number sequence — and
   resolve hits and first-free slots with array gathers.
3. Classify cohorts: *pure hits* (key present) and *pure inserts* (key
   absent, empty slot in window) commit vectorized; anything that could
   take the eviction/GC path — no free slot, an expired entry in the
   window, two cohorts racing for one insert slot — falls back to the
   inherited scalar logic.
4. A conflict fixpoint demotes any pure cohort whose probe window
   intersects a scalar cohort's window, so the scalar path sees exactly
   the intermediate states it would have seen in event order.  After the
   fixpoint, pure windows and scalar windows are disjoint, which makes
   the two groups commute; within the pure group, hit updates and
   first-free inserts are mutually non-interfering (a free slot earlier
   in another cohort's window would have *been* that cohort's target).

Per-event running totals are reproduced with a sequential add loop over
within-cohort positions (vectorized **across** cohorts), because float
addition is not associative and the contract is bit-identical results.

The scalar fallback is exercised constantly by the equivalence suite
(``tests/test_wsaf_batched.py``) — under adversarial same-window cohorts
and tiny tables everything demotes, and the result must still match the
scalar table slot for slot.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from repro.core.wsaf import WSAFTable

#: Below this many events the NumPy staging costs more than it saves, and
#: a batch takes the per-event branch.  Measured on a recorded stream of
#: delegated events at 2**16 and 2**20 entries (docs/PERFORMANCE.md, "WSAF
#: batch cutoff"): without a GC timeout the branches tie at 80-88 events
#: and batch probing wins from 96 on (9 of 10 runs at 96, every run
#: above); with one, the per-event branch wins through 128.
_SCALAR_CUTOFF = 96


class _BatchPlan:
    """Mutable staging state for one cohort-batched accumulate pass.

    Built by :meth:`BatchedWSAFTable._build_batch_plan`; the conflict
    fixpoint shrinks ``pure_hit``/``pure_ins`` (growing ``scalar_set``) in
    place.
    """


class BatchedWSAFTable(WSAFTable):
    """A :class:`WSAFTable` with NumPy columns and batched accumulation.

    State-identical to the scalar table for every operation; only the
    execution strategy of :meth:`accumulate_batch` (and the storage of the
    columns) differs.  Scalar entry points (:meth:`accumulate`,
    :meth:`lookup`, sweeps) are inherited and operate on the array columns
    element-wise.
    """

    def _allocate_columns(self) -> None:
        """Struct-of-arrays columns instead of the scalar table's lists.

        The packed 5-tuple stays a Python list: it is a 104-bit integer
        (or None), which no fixed-width dtype holds.
        """
        n = self.num_entries
        self._occupied = np.zeros(n, dtype=bool)
        self._keys = np.zeros(n, dtype=np.uint64)
        self._packets = np.zeros(n, dtype=np.float64)
        self._bytes = np.zeros(n, dtype=np.float64)
        self._timestamps = np.zeros(n, dtype=np.float64)
        self._chance = np.zeros(n, dtype=bool)
        self._tuples = [None] * n
        #: Triangular probe offsets (i + i²)/2 for the whole window.
        self._tri = np.array(
            [(i + i * i) >> 1 for i in range(self.probe_limit)], dtype=np.uint64
        )

    # -- batched accumulation ----------------------------------------------

    def accumulate_batch(
        self,
        events,
        on_accumulate=None,
    ) -> "list[tuple[float, float]]":
        """Apply many accumulate events, cohort-batched.

        Same contract as :meth:`WSAFTable.accumulate_batch` — same final
        table state, same counters, same per-event running totals, same
        callback order — resolved with vectorized probing wherever event
        order provably cannot matter.
        """
        events = events if isinstance(events, list) else list(events)
        n = len(events)
        if n < _SCALAR_CUTOFF:
            return super().accumulate_batch(events, on_accumulate)

        keys = np.fromiter((e[0] for e in events), dtype=np.uint64, count=n)
        pkts = np.fromiter((e[1] for e in events), dtype=np.float64, count=n)
        byts = np.fromiter((e[2] for e in events), dtype=np.float64, count=n)
        stamps = np.fromiter((e[3] for e in events), dtype=np.float64, count=n)
        tuples = [e[4] for e in events]
        return self.accumulate_batch_arrays(
            keys, pkts, byts, stamps, tuples, on_accumulate
        )

    def accumulate_batch_arrays(
        self,
        keys,
        packets,
        bytes_,
        timestamps,
        tuples,
        on_accumulate=None,
        collect_totals: bool = True,
    ) -> "list[tuple[float, float]] | None":
        """Column-array form of :meth:`accumulate_batch`.

        ``keys``/``packets``/``bytes_``/``timestamps`` are parallel arrays
        (one entry per event, original order); ``tuples`` is the matching
        sequence of packed 5-tuples.  This is the delegated kernel's entry
        point — it hands its decoded estimates over without a Python
        tuple-list round trip.  With ``collect_totals=False`` the per-event
        totals list is not materialised and ``None`` is returned (the
        callback, if any, still fires with the exact running totals).
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        pkts = np.ascontiguousarray(packets, dtype=np.float64)
        byts = np.ascontiguousarray(bytes_, dtype=np.float64)
        stamps = np.ascontiguousarray(timestamps, dtype=np.float64)
        n = len(keys)
        if n < _SCALAR_CUTOFF:
            accumulate = self.accumulate
            totals = []
            for key, est_p, est_b, stamp, packed in zip(
                keys.tolist(),
                pkts.tolist(),
                byts.tolist(),
                stamps.tolist(),
                tuples,
            ):
                total = accumulate(key, est_p, est_b, stamp, packed)
                totals.append(total)
                if on_accumulate is not None:
                    on_accumulate(key, total[0], total[1], stamp)
            return totals if collect_totals else None

        plan = self._build_batch_plan(keys, pkts, byts, stamps)
        self._conflict_fixpoint(plan)

        counts = plan.counts
        run_starts = plan.run_starts
        totals_packets = np.empty(n, dtype=np.float64)
        totals_bytes = np.empty(n, dtype=np.float64)
        resolved = plan.pure_hit | plan.pure_ins
        res = np.flatnonzero(resolved)

        if res.size:
            res_slot = np.where(plan.pure_hit, plan.hit_slot, plan.ins_target)[
                res
            ]
            sorted_tot_p = np.empty(n, dtype=np.float64)
            sorted_tot_b = np.empty(n, dtype=np.float64)
            running_packets, running_bytes = self._resolved_chains(
                plan, res, res_slot, sorted_tot_p, sorted_tot_b
            )

            sorted_stamps = plan.sorted_stamps
            last_pos = run_starts + counts - 1
            hit_of_res = plan.pure_hit[res]
            ins_of_res = ~hit_of_res

            hit_cohorts = res[hit_of_res]
            hit_slots = res_slot[hit_of_res]
            self._packets[hit_slots] = running_packets[hit_of_res]
            self._bytes[hit_slots] = running_bytes[hit_of_res]
            self._timestamps[hit_slots] = sorted_stamps[last_pos[hit_cohorts]]
            self._chance[hit_slots] = True
            hit_events = int(counts[hit_cohorts].sum())
            self.updates += hit_events

            ins_cohorts = res[ins_of_res]
            ins_slots = res_slot[ins_of_res]
            self._occupied[ins_slots] = True
            self._keys[ins_slots] = plan.ukeys[ins_cohorts]
            self._packets[ins_slots] = running_packets[ins_of_res]
            self._bytes[ins_slots] = running_bytes[ins_of_res]
            self._timestamps[ins_slots] = sorted_stamps[last_pos[ins_cohorts]]
            self._chance[ins_slots] = True
            first_event = plan.order[run_starts[ins_cohorts]]
            for slot, event_index in zip(
                ins_slots.tolist(), first_event.tolist()
            ):
                self._tuples[slot] = tuples[event_index]
                self._occupied_slots.add(slot)
            self.size += len(ins_cohorts)
            self.insertions += len(ins_cohorts)
            follow_ups = counts[ins_cohorts] - 1
            self.updates += int(follow_ups.sum())

            if self.accountant is not None:
                # Hits probe to the hit round; an insert's first event
                # walks the whole window, its follow-ups hit at the target.
                reads = int(
                    (
                        counts[hit_cohorts]
                        * (plan.hit_round[hit_cohorts] + 1)
                    ).sum()
                )
                reads += len(ins_cohorts) * self.probe_limit
                reads += int(
                    (follow_ups * (plan.free_round[ins_cohorts] + 1)).sum()
                )
                writes = hit_events + len(ins_cohorts) + int(follow_ups.sum())
                self.accountant.record("wsaf", reads=reads, writes=writes)

            member_res = np.repeat(resolved, counts)
            original_idx = plan.order[member_res]
            totals_packets[original_idx] = sorted_tot_p[member_res]
            totals_bytes[original_idx] = sorted_tot_b[member_res]

        if plan.scalar_set.any():
            # Order-sensitive leftovers replay through the scalar
            # accumulate, in original event order; their windows are
            # disjoint from every vectorized cohort's, so interleaving
            # with the vectorized commits is immaterial.
            member_scalar = np.repeat(plan.scalar_set, plan.counts)
            scalar_accumulate = self.accumulate
            for i in np.sort(plan.order[member_scalar]).tolist():
                total_p, total_b = scalar_accumulate(
                    int(keys[i]),
                    float(pkts[i]),
                    float(byts[i]),
                    float(stamps[i]),
                    tuples[i],
                )
                totals_packets[i] = total_p
                totals_bytes[i] = total_b

        if on_accumulate is not None:
            for key, stamp, total_p, total_b in zip(
                keys.tolist(),
                stamps.tolist(),
                totals_packets.tolist(),
                totals_bytes.tolist(),
            ):
                on_accumulate(key, total_p, total_b, stamp)
        if not collect_totals:
            return None
        return list(zip(totals_packets.tolist(), totals_bytes.tolist()))

    # -- batch staging -------------------------------------------------------

    def _build_batch_plan(self, keys, pkts, byts, stamps) -> _BatchPlan:
        """Stage a batch: cohorts, probe windows, and the pure/scalar split.

        Everything downstream — the conflict fixpoint, chain evaluation,
        the commit — reads from the returned plan.  The classification here is
        exactly the scalar-equivalence argument from the module docstring,
        including the contested-insert-target demotion.
        """
        n = len(keys)
        # Cohorts: stable sort keeps each flow's events in original order.
        order = np.argsort(keys, kind="stable")
        skeys = keys[order]
        run_starts = np.flatnonzero(
            np.concatenate(([True], skeys[1:] != skeys[:-1]))
        )
        counts = np.diff(np.append(run_starts, n))
        ukeys = skeys[run_starts]
        num_cohorts = len(ukeys)

        mask64 = np.uint64(self._mask)
        slots = (
            ((ukeys & mask64)[:, None] + self._tri[None, :]) & mask64
        ).astype(np.intp)
        occ = self._occupied[slots]
        hit_matrix = occ & (self._keys[slots] == ukeys[:, None])
        hit_any = hit_matrix.any(axis=1)
        hit_round = np.where(hit_any, hit_matrix.argmax(axis=1), 0)
        free_matrix = ~occ
        free_any = free_matrix.any(axis=1)
        free_round = np.where(free_any, free_matrix.argmax(axis=1), 0)

        sorted_stamps = stamps[order]
        if self.gc_timeout is None:
            gc_risk = np.zeros(num_cohorts, dtype=bool)
        else:
            # Conservative: an entry expired at the cohort's latest event
            # is the only way probe-time GC could fire for any of them
            # (timestamps only grow, so expiry at an earlier event implies
            # expiry at the latest).
            cohort_max_ts = np.maximum.reduceat(sorted_stamps, run_starts)
            gc_risk = (
                occ
                & (
                    cohort_max_ts[:, None] - self._timestamps[slots]
                    > self.gc_timeout
                )
            ).any(axis=1)

        pure_hit = hit_any & ~gc_risk
        pure_ins = (~hit_any) & (~gc_risk) & free_any
        scalar_set = ~(pure_hit | pure_ins)

        cohort_rows = np.arange(num_cohorts)
        ins_target = slots[cohort_rows, free_round]
        hit_slot = slots[cohort_rows, hit_round]

        # Two cohorts racing for the same first-free slot must apply in
        # event order: demote every contender to the scalar path.
        if pure_ins.any():
            targets = ins_target[pure_ins]
            unique_targets, target_counts = np.unique(
                targets, return_counts=True
            )
            contested = unique_targets[target_counts > 1]
            if contested.size:
                demote = pure_ins & np.isin(ins_target, contested)
                scalar_set |= demote
                pure_ins &= ~demote

        plan = _BatchPlan()
        plan.n = n
        plan.order = order
        plan.run_starts = run_starts
        plan.counts = counts
        plan.ukeys = ukeys
        plan.slots = slots
        plan.hit_round = hit_round
        plan.free_round = free_round
        plan.hit_slot = hit_slot
        plan.ins_target = ins_target
        plan.pure_hit = pure_hit
        plan.pure_ins = pure_ins
        plan.scalar_set = scalar_set
        plan.sorted_pkts = pkts[order]
        plan.sorted_byts = byts[order]
        plan.sorted_stamps = sorted_stamps
        return plan

    def _conflict_fixpoint(self, plan: _BatchPlan) -> None:
        """Demote pure cohorts whose windows intersect scalar windows.

        Scalar cohorts may read/write anything inside their probe windows
        (eviction scans, GC reclaims, victim writes), so a pure cohort
        overlapping such a window is order-sensitive and demotes — which
        adds *its* window to the conflict set, possibly cascading.
        """
        if plan.scalar_set.any() and (
            plan.pure_hit.any() or plan.pure_ins.any()
        ):
            conflict = np.zeros(self.num_entries, dtype=bool)
            pending = plan.scalar_set
            while True:
                conflict[plan.slots[pending].ravel()] = True
                demote = (plan.pure_hit | plan.pure_ins) & conflict[
                    plan.slots
                ].any(axis=1)
                if not demote.any():
                    break
                plan.pure_hit &= ~demote
                plan.pure_ins &= ~demote
                plan.scalar_set |= demote
                pending = demote

    def _resolved_chains(
        self, plan: _BatchPlan, res, res_slot, sorted_tot_p, sorted_tot_b
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Evaluate the resolved cohorts' add chains.

        Fills ``sorted_tot_p``/``sorted_tot_b`` (per-event running totals,
        at sorted positions) for every resolved member and returns the
        final ``(packets, bytes)`` per resolved cohort, aligned with
        ``res``.
        """
        # Per-event running totals, bit-identical to sequential adds:
        # float addition is non-associative, so the add chains must run
        # in within-cohort order.  Lay the resolved cohorts out as rows
        # of a zero-padded (cohorts x max_count) matrix and accumulate
        # along the rows — padding zeros leave the running value
        # unchanged (x + 0.0 == x for the non-negative totals here), so
        # one ``np.add.accumulate`` reproduces every chain exactly.
        # (Empty insert targets hold 0.0, so the gathered base is right
        # for both hits and inserts.)
        sorted_pkts = plan.sorted_pkts
        sorted_byts = plan.sorted_byts
        running_packets = self._packets[res_slot].copy()
        running_bytes = self._bytes[res_slot].copy()
        starts_res = plan.run_starts[res]
        counts_res = plan.counts[res]
        max_count = int(counts_res.max())
        budget = max(16 * plan.n, 1 << 16)

        def matrix_chains(sub: "np.ndarray") -> None:
            starts_sub = starts_res[sub]
            counts_sub = counts_res[sub]
            width = int(counts_sub.max())
            row_of = np.repeat(np.arange(sub.size), counts_sub)
            within = np.arange(len(row_of)) - np.repeat(
                np.cumsum(counts_sub) - counts_sub, counts_sub
            )
            member_idx = np.repeat(starts_sub, counts_sub) + within
            chain_p = np.zeros((sub.size, width), dtype=np.float64)
            chain_b = np.zeros((sub.size, width), dtype=np.float64)
            chain_p[row_of, within] = sorted_pkts[member_idx]
            chain_b[row_of, within] = sorted_byts[member_idx]
            chain_p[:, 0] += running_packets[sub]
            chain_b[:, 0] += running_bytes[sub]
            np.add.accumulate(chain_p, axis=1, out=chain_p)
            np.add.accumulate(chain_b, axis=1, out=chain_b)
            sorted_tot_p[member_idx] = chain_p[row_of, within]
            sorted_tot_b[member_idx] = chain_b[row_of, within]
            rows = np.arange(sub.size)
            running_packets[sub] = chain_p[rows, counts_sub - 1]
            running_bytes[sub] = chain_b[rows, counts_sub - 1]

        if res.size * max_count <= budget:
            matrix_chains(np.arange(res.size))
        else:
            # A heavy-tailed batch: a few giant cohorts would blow the
            # matrix up.  Evaluate those chains in plain Python —
            # ``itertools.accumulate`` over C doubles runs the identical
            # add sequence, and a cohort's members are contiguous in the
            # sorted layout, so the totals land as one slice store — and
            # keep the one-shot matrix for the bulk of small cohorts.
            cutoff = max(budget // res.size, 8)
            giant = counts_res > cutoff
            small = np.flatnonzero(~giant)
            if small.size:
                matrix_chains(small)
            pkts_list = sorted_pkts.tolist()
            byts_list = sorted_byts.tolist()
            for j in np.flatnonzero(giant).tolist():
                start = int(starts_res[j])
                end = start + int(counts_res[j])
                chain = list(
                    accumulate(
                        pkts_list[start:end],
                        initial=float(running_packets[j]),
                    )
                )[1:]
                sorted_tot_p[start:end] = chain
                running_packets[j] = chain[-1]
                chain = list(
                    accumulate(
                        byts_list[start:end],
                        initial=float(running_bytes[j]),
                    )
                )[1:]
                sorted_tot_b[start:end] = chain
                running_bytes[j] = chain[-1]
        return running_packets, running_bytes

    # -- snapshots ----------------------------------------------------------

    def estimates(
        self, flow_keys=None
    ) -> "dict[int, tuple[float, float]]":
        """Vectorized :meth:`WSAFTable.estimates` (same mapping, native
        Python keys/values)."""
        if flow_keys is None:
            occupied_slots = np.flatnonzero(self._occupied)
            return {
                key: (packets, bytes_)
                for key, packets, bytes_ in zip(
                    self._keys[occupied_slots].tolist(),
                    self._packets[occupied_slots].tolist(),
                    self._bytes[occupied_slots].tolist(),
                )
            }
        query = np.asarray(
            flow_keys
            if isinstance(flow_keys, np.ndarray)
            else list(flow_keys),
            dtype=np.uint64,
        )
        if query.size == 0:
            return {}
        mask64 = np.uint64(self._mask)
        slots = (
            ((query & mask64)[:, None] + self._tri[None, :]) & mask64
        ).astype(np.intp)
        found = self._occupied[slots] & (self._keys[slots] == query[:, None])
        rows = np.flatnonzero(found.any(axis=1))
        hit_slots = slots[rows, found[rows].argmax(axis=1)]
        return {
            key: (packets, bytes_)
            for key, packets, bytes_ in zip(
                query[rows].tolist(),
                self._packets[hit_slots].tolist(),
                self._bytes[hit_slots].tolist(),
            )
        }

    def estimates_arrays(
        self, flow_keys
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Per-flow (packets, bytes) float arrays aligned with ``flow_keys``.

        Missing flows read 0.0 — the array form of :meth:`estimates`, with
        no intermediate dict for callers that want columns back.
        """
        query = np.asarray(
            flow_keys
            if isinstance(flow_keys, np.ndarray)
            else list(flow_keys),
            dtype=np.uint64,
        )
        est_packets = np.zeros(query.size)
        est_bytes = np.zeros(query.size)
        if query.size == 0:
            return est_packets, est_bytes
        mask64 = np.uint64(self._mask)
        slots = (
            ((query & mask64)[:, None] + self._tri[None, :]) & mask64
        ).astype(np.intp)
        found = self._occupied[slots] & (self._keys[slots] == query[:, None])
        rows = np.flatnonzero(found.any(axis=1))
        hit_slots = slots[rows, found[rows].argmax(axis=1)]
        est_packets[rows] = self._packets[hit_slots]
        est_bytes[rows] = self._bytes[hit_slots]
        return est_packets, est_bytes

    # -- state transfer ------------------------------------------------------

    def export_state(self):
        """Array-gather :meth:`WSAFTable.export_state` (identical snapshot).

        The occupied slots come straight off the boolean column and every
        numeric column gathers in one fancy index; only the 5-tuple list
        (104-bit Python ints) walks a loop.
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
            keys=self._keys[slots].copy(),
            packets=self._packets[slots].copy(),
            bytes=self._bytes[slots].copy(),
            timestamps=self._timestamps[slots].copy(),
            chance=self._chance[slots].copy(),
            tuple_lo=lo,
            tuple_hi=hi,
            tuple_present=present,
        )
