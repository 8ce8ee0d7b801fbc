"""The batched fast path: chunked, table-driven trace processing.

A bit-identical re-expression of the scalar ``InstaMeasure.process_trace``
loop, built on two structural facts about the engine's regulator, the
paper's two-layer FlowRegulator:

* **Per-word independence.**  L1 and every L2 bank share placement, so the
  regulator state a packet touches is fully determined by its flow's
  ``(word index, bit offset)``.  Packets can therefore be processed grouped
  by word (stably, preserving each word's internal packet order) instead of
  globally in trace order.  Only WSAF accumulation couples words, and that
  coupling is restored by applying decoded insertion events sorted by
  original packet position.
* **FSM compilation.**  A counting window holds one of ``2**vector_bits``
  states, so layer transitions compile into small lookup tables
  (:mod:`repro.kernels.luts`) indexed by interned byte values, and the
  contested replay advances four packets per lookup (one packet per
  lookup below a four-bit saturation threshold).

Pipeline per chunk (:func:`process_trace_batched`): vectorized gathers
(placement, pre-drawn bit choices) → stable sort by word → vectorized
word-level and per-stretch saturation screens → FSM-table replay of the
stretches that can actually saturate → insertion events handed to the
WSAF in packet order, as one batch per chunk.

The kernel consumes the same ``(bits1, bits2)`` choices the scalar loop
does (one engine-side draw, see ``InstaMeasure.process_trace``), so every
sketch word, counter, and WSAF record comes out identical — the
equivalence suite in ``tests/test_kernels.py`` asserts this across
seeds, chunk sizes, policies, geometries, and every WSAF backend.
Nothing chunk-dependent is cached between calls: every production path
(CLI runs, shard workers, the service daemon) sees each chunk once, so
layouts and derived streams are built per call and dropped with it.
What persists is per geometry — the NumPy lookup arrays
(:func:`_geometry_arrays`) — or per flow table: the flows' placement
(:func:`_placement`), hashed once however many chunks share the table
and dropped with it.  A call reads and writes back only the L1 words its
chunk touches, so a small chunk over a large sketch or table costs what
the chunk costs.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.kernels.luts import SENTINEL, geometry_tables

#: Default packets per kernel chunk (one chunk for most lab traces).
DEFAULT_CHUNK_SIZE = 1 << 20


@dataclass
class BatchCounters:
    """Counters a batched run hands back for folding into shared stats."""

    packets: int = 0
    l1_saturations: int = 0
    insertions: int = 0
    #: Packets encoded into each L2 bank (indexed by L1 noise level).
    l2_encoded: "list[int]" = field(default_factory=list)
    #: Saturations observed in each L2 bank.
    l2_saturated: "list[int]" = field(default_factory=list)


def runs_kernel(config) -> bool:
    """Whether an engine built from ``config`` runs the batched kernel.

    The kernel needs ``vector_bits <= 8`` (window states must fit the
    byte-indexed FSM tables), and runs unless ``engine="scalar"`` asks
    for the per-packet oracle.  The engine dispatches on this predicate.
    """
    return config.engine != "scalar" and config.vector_bits <= 8


_GEOMETRY_ARRAYS: "dict[tuple[int, int], tuple[np.ndarray, ...]]" = {}


def _geometry_arrays(l1) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """``(bit values, window masks, decode table)`` of ``l1``'s geometry
    as read-only NumPy arrays, built once per ``(word_bits, vector_bits)``."""
    key = (l1.word_bits, l1.vector_bits)
    arrays = _GEOMETRY_ARRAYS.get(key)
    if arrays is None:
        arrays = (
            np.left_shift(
                np.uint8(1), np.arange(l1.vector_bits, dtype=np.uint8)
            ),
            np.array(l1._window_masks, dtype=np.uint64),
            np.array(l1._decode_table, dtype=np.float64),
        )
        for array in arrays:
            array.flags.writeable = False
        _GEOMETRY_ARRAYS[key] = arrays
    return arrays


#: Each flow table's placed ``(key64, words, offsets)`` columns per
#: placement (seeds and geometry), dropped with the table.
_PLACEMENTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _placement(flows, l1) -> "tuple[np.ndarray, np.ndarray]":
    """``(word, offset)`` of every flow of ``flows`` under ``l1``'s
    placement, hashed once per table and placement.

    Every chunk cut from one read, every call on a worker's directory,
    and every shard engine handed the same table reads the columns the
    first call placed.  An entry holds the key column it placed and is
    placed again when the table's ``key64`` is another array.
    """
    key64 = flows.key64
    placement = (l1.num_words, l1.word_bits, l1._place_seed_idx, l1._place_seed_off)
    placed = _PLACEMENTS.setdefault(flows, {})
    entry = placed.get(placement)
    if entry is None or entry[0] is not key64:
        idx_by_flow, off_by_flow = l1.place_array(key64)
        word_dtype = np.uint16 if l1.num_words <= (1 << 16) else np.uint32
        entry = (key64, idx_by_flow.astype(word_dtype), off_by_flow.astype(np.uint8))
        for column in entry[1:]:
            column.flags.writeable = False
        placed[placement] = entry
    return entry[1], entry[2]


def _chunk_layouts(trace, l1, chunk_size: int):
    """Yield one word-sorted layout per ``chunk_size`` slice of ``trace``.

    A layout holds the chunk's stable sort order by word, its stretch
    boundaries (one stretch per ``(word, offset)`` run), the per-stretch
    word/offset headers, and the grouping of stretches into *word runs*
    — one per distinct word the chunk touches, the unit of the kernel's
    vectorized word-level screen and of its L1 gather.  Everything
    is NumPy; the contested replay converts what it needs to lists only
    for chunks where some stretch can saturate.  The flows' placement
    comes from the table's memo (:func:`_placement`).
    """
    idx_by_flow, off_by_flow = _placement(trace.flows, l1)
    flow_ids = trace.flow_ids
    order_dtype = np.int32 if trace.num_packets <= (1 << 31) - 1 else np.int64

    for begin in range(0, trace.num_packets, chunk_size):
        end = min(begin + chunk_size, trace.num_packets)
        chunk_flows = flow_ids[begin:end]
        chunk_words = idx_by_flow[chunk_flows]
        order = np.argsort(chunk_words, kind="stable")
        sorted_words = chunk_words[order]
        sorted_offsets = off_by_flow[chunk_flows[order]]
        # One key per (word, offset); offsets fit 6 bits (word_bits <= 64).
        stretch_key = (sorted_words.astype(np.int64) << 6) | sorted_offsets
        span = end - begin
        if span > 1:
            reduce_starts = np.flatnonzero(
                np.concatenate(([True], stretch_key[1:] != stretch_key[:-1]))
            )
        else:
            reduce_starts = np.zeros(1, dtype=np.int64)
        head_offsets = sorted_offsets[reduce_starts]
        stretch_words = sorted_words[reduce_starts].astype(np.int64)
        # Stretches sorted by (word, offset) group same-word stretches into
        # contiguous word runs.
        if len(stretch_words) > 1:
            word_run_starts = np.flatnonzero(
                np.concatenate(([True], stretch_words[1:] != stretch_words[:-1]))
            )
        else:
            word_run_starts = np.zeros(1, dtype=np.int64)
        word_run_lengths = np.diff(
            np.append(word_run_starts, len(stretch_words))
        )
        yield dict(
            # Global packet positions, chunk-sorted; int32 for gathers.
            order=(order + begin).astype(order_dtype),
            span=span,
            reduce_starts=reduce_starts,
            words_arr=stretch_words,
            offsets_arr=head_offsets.astype(np.uint64),
            word_run_starts=word_run_starts,
            word_run_lengths=word_run_lengths,
            word_run_heads=stretch_words[word_run_starts],
        )


def _quad_stream_list(sorted_b1) -> "list[int]":
    """Aligned 4-packet bit codes as boxed ints for the scalar quad loop.

    A list indexes ~2x faster than a memoryview in the replay loop; it is
    only built for chunks where some stretch fails the saturation screen,
    and only for geometries with a quad table.
    """
    nq = len(sorted_b1) >> 2
    q16 = sorted_b1[: 4 * nq : 4].astype(np.uint16)
    q16 = q16 | (sorted_b1[1 : 4 * nq : 4].astype(np.uint16) << 3)
    q16 = q16 | (sorted_b1[2 : 4 * nq : 4].astype(np.uint16) << 6)
    q16 = q16 | (sorted_b1[3 : 4 * nq : 4].astype(np.uint16) << 9)
    return q16.tolist()


def _delegate_chunk_events(
    event_pos,
    event_z,
    event_z2,
    order,
    flow_ids,
    key64,
    timestamps,
    sizes,
    packed_tuples,
    decode_np,
    wsaf,
    wsaf_arrays,
    on_accumulate,
) -> None:
    """Apply one chunk's saturation events to the WSAF in packet order.

    ``event_pos`` holds chunk-sorted stream positions; global coupling is
    restored by mapping through ``order`` and re-sorting by original packet
    position (chunks are contiguous, so chunk order composes to trace
    order).  The batch-probed flat table takes the column-array form
    (``accumulate_batch_arrays``); every other table (the tiered and
    ICE-Buckets backends) gets the equivalent ``accumulate_batch`` call.
    """
    positions = order[event_pos]
    rank = np.argsort(positions, kind="stable")
    positions = positions[rank]
    event_flows = flow_ids[positions]
    noise1 = event_z[rank]
    noise2 = event_z2[rank]
    est_pkt = decode_np[noise1] * decode_np[noise2]
    est_byte = est_pkt * sizes[positions]
    event_stamps = timestamps[positions]
    event_keys = key64[event_flows]
    event_tuples = [packed_tuples[f] for f in event_flows.tolist()]
    if wsaf_arrays is not None:
        wsaf_arrays(
            event_keys,
            est_pkt,
            est_byte,
            event_stamps,
            event_tuples,
            on_accumulate,
            collect_totals=False,
        )
    else:
        wsaf.accumulate_batch(
            list(
                zip(
                    event_keys.tolist(),
                    est_pkt.tolist(),
                    est_byte.tolist(),
                    event_stamps.tolist(),
                    event_tuples,
                )
            ),
            on_accumulate=on_accumulate,
        )


def process_trace_batched(
    engine,
    trace,
    bits,
    on_accumulate=None,
    chunk_size: "int | None" = None,
) -> BatchCounters:
    """Process ``trace`` through ``engine``'s regulator and WSAF, batched.

    Mutates the engine's sketch words and WSAF exactly as the scalar loop
    would and returns the run's :class:`BatchCounters` (the caller folds
    them into the shared stats/accounting objects).  ``bits`` holds the
    packets' ``(bits1, bits2)`` uint8 bit choices, the same arrays the
    scalar loop would consume: the engine draws them once per trace, or
    slices them out of its ingest stream's one draw, so chunked runs
    replay the exact whole-trace randomness.  ``chunk_size`` defaults to
    the engine config's value.

    Each step below preserves bit-identity with the scalar loop:

    * **Word-level screen.**  Windows of different flows in one word may
      overlap (offsets are arbitrary), so per-stretch outcomes are coupled
      through shared bits — but ``word | OR(all stretch bits)`` is a
      monotone upper bound on every intermediate word state.  If *every*
      stretch's window stays below the saturation threshold even against
      that bound, no packet anywhere in the word can saturate, the word's
      final value *is* the bound, and the whole word run commits with zero
      Python-loop iterations.
    * **Screening rounds.**  Words that fail the bound take a vectorized
      screen-and-commit loop instead of a per-stretch Python sweep: each
      round screens every pending word's *next* stretch against its live
      word state (words are mutually independent and each word contributes
      one stretch per round, so passing candidates commit as one array
      scatter).  Only stretches whose live screen fails — the ones that
      can truly saturate — drop into the FSM replay.
    * **Quad FSM steps.**  With ``saturation_bits >= 4`` a four-packet
      block saturates at most once (a recycled window plus three more
      packets cannot reach the threshold again), so the replay advances
      four packets per lookup through :func:`~repro.kernels.luts.quad_tables`.
      Narrower thresholds have no quad table; the same replay then steps
      every packet of the stretch through the single-packet table.
    * **Inline constant-noise L2 step.**  A window that saturates from a
      post-reset state grows at most one bit per packet from zero, so it
      holds exactly ``saturation_bits`` set bits at the saturating packet
      and its noise level is the constant ``vector_bits -
      saturation_bits``, whatever the threshold.  The replay therefore
      keeps that one L2 bank's window in a local for the whole stretch;
      only a stretch's *first* saturation — seeded by the inherited word
      state, which can carry extra bits committed by overlapping offsets
      — can deviate, and it read-modify-writes its own bank directly.
    * **Batch delegation.**  Decoded estimates reach the WSAF once per
      chunk, in original packet order (:func:`_delegate_chunk_events`),
      instead of one Python ``accumulate`` call per event.
    """
    regulator = engine.regulator
    l1 = regulator.l1
    vector_bits = l1.vector_bits
    word_bits = l1.word_bits
    sat_bits = l1.saturation_bits
    if chunk_size is None:
        chunk_size = getattr(engine.config, "chunk_size", DEFAULT_CHUNK_SIZE)

    counters = BatchCounters(
        packets=trace.num_packets,
        l2_encoded=[0] * len(regulator.l2),
        l2_saturated=[0] * len(regulator.l2),
    )
    if trace.num_packets == 0:
        return counters

    step1, step_quad = geometry_tables(vector_bits, sat_bits)

    bit_values, window_masks_np, decode_np = _geometry_arrays(l1)
    bits1, bits2 = bits
    code_all = bits1 + np.uint8(vector_bits) * bits2

    window_masks = l1._window_masks
    words = l1.words
    l2_words = [sketch.words for sketch in regulator.l2]
    word_mask = (1 << word_bits) - 1
    window_all = (1 << vector_bits) - 1
    l2_encoded = counters.l2_encoded
    l2_saturated = counters.l2_saturated

    flow_ids = trace.flow_ids
    key64 = trace.flows.key64
    timestamps = trace.timestamps
    sizes = trace.sizes
    packed_tuples = trace.flows.packed_tuples()
    wsaf = engine.wsaf
    wsaf_arrays = getattr(wsaf, "accumulate_batch_arrays", None)

    l1_saturations = 0
    insertions = 0

    for layout in _chunk_layouts(trace, l1, chunk_size):
        order = layout["order"]
        sorted_code = code_all[order]
        if vector_bits & (vector_bits - 1) == 0:
            sorted_b1 = sorted_code & np.uint8(vector_bits - 1)
        else:
            sorted_b1 = sorted_code % np.uint8(vector_bits)
        bit_stream = bit_values[sorted_b1]
        # Pre-rotate each stretch's OR mask into word position so screening
        # a stretch is a plain OR plus one masked popcount.
        or_heads = np.bitwise_or.reduceat(bit_stream, layout["reduce_starts"])
        offsets_arr = layout["offsets_arr"]
        or64 = or_heads.astype(np.uint64)
        # Right-shift count masked to the word size: offset 0 then shifts
        # by 0 (both halves equal the unrotated mask), never by word_bits.
        inv_shifts = (np.uint64(word_bits) - offsets_arr) & np.uint64(
            word_bits - 1
        )
        rotated_or_np = ((or64 << offsets_arr) | (or64 >> inv_shifts)) & np.uint64(
            word_mask
        )
        stretch_windows = window_masks_np[offsets_arr.astype(np.intp)]

        word_run_starts = layout["word_run_starts"]
        word_run_lengths = layout["word_run_lengths"]
        # The L1 words this chunk touches, indexed by word run.  The screen,
        # the rounds and the L1 side of the replay work on these; the L2
        # banks stay indexed by global word.  Only these go back.
        run_heads = layout["word_run_heads"].tolist()
        run_words = np.array([words[w] for w in run_heads], dtype=np.uint64)
        upper = run_words | np.bitwise_or.reduceat(rotated_or_np, word_run_starts)
        stretch_ok = (
            np.bitwise_count(np.repeat(upper, word_run_lengths) & stretch_windows)
            < sat_bits
        )
        word_ok = np.logical_and.reduceat(stretch_ok, word_run_starts)
        run_words[word_ok] = upper[word_ok]

        event_pos: "list[int]" = []
        event_z: "list[int]" = []
        event_z2: "list[int]" = []
        noise_z = vector_bits - sat_bits

        if not word_ok.all():
            starts_l = layout["reduce_starts"].tolist()
            ends_l = starts_l[1:] + [layout["span"]]
            words_l = layout["words_arr"].tolist()
            offs_l = offsets_arr.tolist()

            quad_stream = (
                None if step_quad is None else _quad_stream_list(sorted_b1)
            )
            b1s = sorted_b1.tobytes()
            b2s = (sorted_code // np.uint8(vector_bits)).tobytes()

            def replay(
                sid,
                run,
                s1=step1,
                sq=step_quad,
                qs=quad_stream,
                sen=SENTINEL,
                b1l=b1s,
                b2l=b2s,
                words_l=words_l,
                offs_l=offs_l,
                starts_l=starts_l,
                ends_l=ends_l,
                run_words=run_words,
                window_masks=window_masks,
                word_bits=word_bits,
                window_all=window_all,
                word_mask=word_mask,
                noise_z=noise_z,
                bank2=l2_words[vector_bits - sat_bits],
                l2_words=l2_words,
                l2_encoded=l2_encoded,
                eap=event_pos.append,
                ezap=event_z.append,
                ez2ap=event_z2.append,
            ):
                # Replay one screen-failed stretch (of word run ``run``)
                # through the quad FSM with the L2 step folded inline;
                # with no quad table (saturation_bits < 4) every packet
                # takes the trailing single-packet loop instead.
                # Chain saturations all carry noise_z — the window
                # regrew from zero — so a single local (st2) holds the
                # noise_z bank's window for the whole stretch and the
                # common saturation handler is one table step.  L1
                # reads and writes ``run_words[run]``; the L2 banks
                # take the global word ``w``.  Only the stretch's first
                # saturation (inherited word state) can deviate; it
                # read-modify-writes its own bank directly.  (Keyword
                # defaults bind every table and column into fast
                # locals — this runs tens of thousands of times per
                # trace.)
                w = words_l[sid]
                off = offs_l[sid]
                a = starts_l[sid]
                b = ends_l[sid]
                word = int(run_words[run])
                window = window_masks[off]
                inv = word_bits - off
                state = ((word >> off) | (word << inv)) & window_all
                rest = word & ~window
                st2 = -1
                rest2 = 0
                ns = 0
                nf = 0
                while a & 3 and a < b:  # align to the quad stream
                    nxt = s1[state][b1l[a]]
                    if nxt < sen:
                        state = nxt
                    else:
                        ns += 1
                        z = nxt - sen
                        if st2 < 0:
                            bw2 = bank2[w]
                            st2 = ((bw2 >> off) | (bw2 << inv)) & window_all
                            rest2 = bw2 & ~window
                        if z == noise_z:
                            nxt2 = s1[st2][b2l[a]]
                            if nxt2 < sen:
                                st2 = nxt2
                            else:
                                eap(a)
                                ezap(z)
                                ez2ap(nxt2 - sen)
                                st2 = 0
                        else:
                            # Deviating first saturation: step its own
                            # bank in place.
                            nf += 1
                            l2_encoded[z] += 1
                            bz = l2_words[z]
                            bwz = bz[w]
                            stz = ((bwz >> off) | (bwz << inv)) & window_all
                            nxt2 = s1[stz][b2l[a]]
                            if nxt2 < sen:
                                stz = nxt2
                            else:
                                eap(a)
                                ezap(z)
                                ez2ap(nxt2 - sen)
                                stz = 0
                            bz[w] = (bwz & ~window) | (
                                ((stz << off) | (stz >> inv)) & word_mask
                            )
                        state = 0
                    a += 1
                qq = a >> 2
                end_q = b >> 2 if sq is not None else qq
                if ns == 0:
                    # Scan to the stretch's first saturation: it starts
                    # from the inherited word state, so it is the only
                    # one whose noise level can differ from noise_z.
                    while qq < end_q:
                        nxt = sq[(state << 12) | qs[qq]]
                        if nxt < sen:
                            state = nxt
                            qq += 1
                            continue
                        t = nxt - sen
                        j = (qq << 2) | (t >> 11)
                        z = (t >> 8) & 7
                        ns = 1
                        bw2 = bank2[w]
                        st2 = ((bw2 >> off) | (bw2 << inv)) & window_all
                        rest2 = bw2 & ~window
                        if z == noise_z:
                            nxt2 = s1[st2][b2l[j]]
                            if nxt2 < sen:
                                st2 = nxt2
                            else:
                                eap(j)
                                ezap(z)
                                ez2ap(nxt2 - sen)
                                st2 = 0
                        else:
                            nf = 1
                            l2_encoded[z] += 1
                            bz = l2_words[z]
                            bwz = bz[w]
                            stz = ((bwz >> off) | (bwz << inv)) & window_all
                            nxt2 = s1[stz][b2l[j]]
                            if nxt2 < sen:
                                stz = nxt2
                            else:
                                eap(j)
                                ezap(z)
                                ez2ap(nxt2 - sen)
                                stz = 0
                            bz[w] = (bwz & ~window) | (
                                ((stz << off) | (stz >> inv)) & word_mask
                            )
                        state = t & 255
                        qq += 1
                        break
                end_q1 = end_q - 1
                while qq < end_q1:
                    # Chain saturations: constant noise_z, one L2 table
                    # step on st2.  Two quad lookups per loop check.
                    nxt = sq[(state << 12) | qs[qq]]
                    if nxt < sen:
                        nxt = sq[(nxt << 12) | qs[qq + 1]]
                        if nxt < sen:
                            state = nxt
                            qq += 2
                            continue
                        qq += 1
                    t = nxt - sen
                    j = (qq << 2) | (t >> 11)
                    nxt2 = s1[st2][b2l[j]]
                    if nxt2 < sen:
                        st2 = nxt2
                    else:
                        eap(j)
                        ezap(noise_z)
                        ez2ap(nxt2 - sen)
                        st2 = 0
                    ns += 1
                    state = t & 255  # window after the in-block restart
                    qq += 1
                if qq < end_q:
                    # Leftover quad: only reached with ns > 0 (the
                    # first-saturation scan otherwise covers it), so any
                    # saturation here is a chain one.
                    nxt = sq[(state << 12) | qs[qq]]
                    if nxt < sen:
                        state = nxt
                    else:
                        t = nxt - sen
                        j = (qq << 2) | (t >> 11)
                        nxt2 = s1[st2][b2l[j]]
                        if nxt2 < sen:
                            st2 = nxt2
                        else:
                            eap(j)
                            ezap(noise_z)
                            ez2ap(nxt2 - sen)
                            st2 = 0
                        ns += 1
                        state = t & 255
                    qq += 1
                j = end_q << 2
                if j < a:
                    j = a
                for j in range(j, b):  # trailing packets
                    nxt = s1[state][b1l[j]]
                    if nxt < sen:
                        state = nxt
                        continue
                    ns += 1
                    z = nxt - sen
                    if st2 < 0:
                        bw2 = bank2[w]
                        st2 = ((bw2 >> off) | (bw2 << inv)) & window_all
                        rest2 = bw2 & ~window
                    if z == noise_z:
                        nxt2 = s1[st2][b2l[j]]
                        if nxt2 < sen:
                            st2 = nxt2
                        else:
                            eap(j)
                            ezap(z)
                            ez2ap(nxt2 - sen)
                            st2 = 0
                    else:
                        nf += 1
                        l2_encoded[z] += 1
                        bz = l2_words[z]
                        bwz = bz[w]
                        stz = ((bwz >> off) | (bwz << inv)) & window_all
                        nxt2 = s1[stz][b2l[j]]
                        if nxt2 < sen:
                            stz = nxt2
                        else:
                            eap(j)
                            ezap(z)
                            ez2ap(nxt2 - sen)
                            stz = 0
                        bz[w] = (bwz & ~window) | (
                            ((stz << off) | (stz >> inv)) & word_mask
                        )
                    state = 0
                run_words[run] = rest | (
                    ((state << off) | (state >> inv)) & word_mask
                )
                if st2 >= 0:
                    bank2[w] = rest2 | (
                        ((st2 << off) | (st2 >> inv)) & word_mask
                    )
                    l2_encoded[noise_z] += ns - nf
                return ns

            # Screening rounds: one stretch per failed word per round,
            # screened against the live word states and committed as an
            # array scatter.  Per-word stretch order is preserved (the
            # pointer only advances after the stretch committed or
            # replayed); cross-word order is free because words are
            # independent and events are re-sorted by packet position
            # before delegation.
            fail_runs = np.flatnonzero(~word_ok)
            ptr = word_run_starts[fail_runs].copy()
            run_end = ptr + word_run_lengths[fail_runs]
            active = np.arange(fail_runs.size)
            while active.size > 32:
                sidx = ptr[active]
                runs = fail_runs[active]
                cand = run_words[runs] | rotated_or_np[sidx]
                okv = (
                    np.bitwise_count(cand & stretch_windows[sidx]) < sat_bits
                )
                run_words[runs[okv]] = cand[okv]
                if not okv.all():
                    failed = ~okv
                    for sid, run in zip(
                        sidx[failed].tolist(), runs[failed].tolist()
                    ):
                        l1_saturations += replay(sid, run)
                ptr[active] += 1
                active = active[ptr[active] < run_end[active]]
            # Tail: few enough runs left that scalar screening beats the
            # per-round array overhead.
            for r in active.tolist():
                run = int(fail_runs[r])
                word = int(run_words[run])
                for sid in range(int(ptr[r]), int(run_end[r])):
                    window = window_masks[offs_l[sid]]
                    candidate = word | int(rotated_or_np[sid])
                    if (candidate & window).bit_count() < sat_bits:
                        word = candidate
                    else:
                        run_words[run] = word
                        l1_saturations += replay(sid, run)
                        word = int(run_words[run])
                run_words[run] = word

            for z in event_z:
                l2_saturated[z] += 1

        for w, value in zip(run_heads, run_words.tolist()):
            words[w] = value

        if event_pos:
            # One delegated batch per chunk, in original packet order.
            _delegate_chunk_events(
                np.array(event_pos, dtype=np.int64),
                np.array(event_z, dtype=np.int64),
                np.array(event_z2, dtype=np.int64),
                order,
                flow_ids,
                key64,
                timestamps,
                sizes,
                packed_tuples,
                decode_np,
                wsaf,
                wsaf_arrays,
                on_accumulate,
            )
            insertions += len(event_pos)

    counters.l1_saturations = l1_saturations
    counters.insertions = insertions
    return counters
