"""Batched SoA execution of the v2 extension kernel.

The sequential kernel (:mod:`repro.core.extension_kernel`) is a per-warp
program: ``clear → build → walk`` under the k-shift machine, one task at a
time.  This module runs all warps of a launch at once, with SoA state and
per-warp predication instead of Python control flow — the execution shape
the paper's GPU actually uses (§3.3–3.4: thousands of concurrent
warp-local table builds and walks).

Round structure.  Each warp's k-shift state evolves independently (the
machine moves monotonically through mer sizes), so every round groups the
live warps by their *current* k; within a k-group all window/hash/probe
arrays are uniform width and every kernel step vectorises across the
group:

* **clear** — per-row span memsets of the hash-table + visited regions;
* **build** — one flat queue of pending lanes for the whole group.  Each
  warp holds a pointer to its current 32-lane chunk step (the Fig 7
  layout); a round runs the ``atomicCAS`` + ``match_any`` insert
  choreography for every pending lane, and a warp whose step resolved is
  refilled with its next step's window-span loads and row murmur hashes;
* **walk** — single-lane per warp; each walk step (visited-table probe,
  main-table lookup, fork/dead-end classification, base append) applies
  to all still-walking rows at once.

Bit-identity with the sequential interpreter holds because counters are
additive per warp (each :class:`~repro.gpusim.batched.WarpBatch` primitive
reproduces the per-warp accounting exactly, whether it books at once or
through a :class:`~repro.gpusim.batched.LaneLedger`), every warp runs its
ops in sequential program order, and all device regions are
warp-disjoint, so results do not depend on warp interleaving — checked
end to end by ``tests/core/test_batched_engine.py`` and the scaling
benchmark.

The v1 kernel is not batched: its per-*lane* tasking already amortises
interpretation over 32 tasks per warp, and it exists as the §4.2 baseline;
``engine="batched"`` contexts fall back to sequential interpretation
for it.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.extension import KShiftState, WalkStatus, kshift_next
from repro.core.extension_kernel import _hash_cost_ops, extension_task_kernel_v2
from repro.core.gpu_batch import EMPTY_PTR, DeviceBatch
from repro.gpusim.batched import (
    BatchCounters,
    WarpBatch,
    cached_arange,
    register_batched,
)
from repro.hashing.murmur import murmurhash2_rows

__all__ = ["run_extension_v2_batched"]

_LANES = 32


def _clear_group(wb: WarpBatch, batch: DeviceBatch, rows, ht_start, slots, vis_start) -> None:
    """Re-initialise every row's table + visited regions (coalesced)."""
    wb.store_span(batch.ht_ptr, ht_start, slots, EMPTY_PTR, rows)
    wb.store_span(batch.ht_hi, ht_start * 4, slots * 4, 0, rows)
    wb.store_span(batch.ht_total, ht_start * 4, slots * 4, 0, rows)
    wb.store_span(
        batch.vis_ptr,
        vis_start,
        np.full(rows.size, batch.vis_slots, dtype=np.int64),
        EMPTY_PTR,
        rows,
    )


def _step_table(batch: DeviceBatch, tasks_g, k: int):
    """Every warp's 32-lane chunk steps (the Fig 7 layout), warp-major.

    Returns ``(step_off, load_start, n_act)``: warp ``i`` owns steps
    ``step_off[i]:step_off[i + 1]``, one per 32 consecutive k-mer starts of
    one read (reads with no k-mer at this *k* have none), in the order the
    sequential per-read, per-chunk loop visits them.  Only per-step
    metadata is built here; a step's k-mers are materialised when its warp
    reaches it.
    """
    trs = batch.task_read_start
    lo = trs[tasks_g]
    n_reads = trs[tasks_g + 1] - lo
    first = np.cumsum(n_reads) - n_reads
    ri = cached_arange(int(n_reads.sum())) + np.repeat(lo - first, n_reads)
    rw = np.repeat(cached_arange(tasks_g.size), n_reads)
    ro = batch.read_offsets
    rb = ro[ri]
    nk = ro[ri + 1] - rb - k
    keep = nk > 0
    rb, nk, rw = rb[keep], nk[keep], rw[keep]
    n_steps = (nk + _LANES - 1) // _LANES
    sr = np.repeat(cached_arange(rb.size), n_steps)
    chunk = _LANES * (
        cached_arange(sr.size) - np.repeat(np.cumsum(n_steps) - n_steps, n_steps)
    )
    step_off = np.zeros(tasks_g.size + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(rw, weights=n_steps, minlength=tasks_g.size).astype(np.int64),
        out=step_off[1:],
    )
    return step_off, rb[sr] + chunk, np.minimum(_LANES, nk[sr] - chunk)


def _build_group(wb: WarpBatch, batch: DeviceBatch, rows, tasks_g, k: int, ht_start, slots) -> None:
    """Warp-cooperative table build for one k-group, as one flat lane queue.

    Each warp holds a pointer to its current chunk step.  A round probes
    the pending lanes of every warp at once (the §3.3 ``atomicCAS`` +
    ``match_any`` insert choreography, linear probing on hash
    collisions); a warp whose step resolved is refilled with its next
    step's lanes — window-span loads, row murmur hashes — before the next
    round, and steps with no valid lane issue their loads and are skipped.
    Every warp thus runs its sequential program order, and the rounds
    track the slowest warp's *total* probe chain rather than the sum of
    per-step maxima.  Tables are warp-disjoint, so the interleaving across
    warps cannot change results.  Accounting goes through one
    :class:`LaneLedger`, flushed before the build-to-walk barrier.
    """
    step_off, step_start, step_act = _step_table(batch, tasks_g, k)
    if step_start.size == 0:
        return
    cfg = batch.config
    G = rows.size
    nxt = step_off[:-1].copy()  # per-warp step pointer
    end = step_off[1:]
    rdata = batch.reads_buf.data
    qdata = batch.quals_buf.data
    windows = sliding_window_view(rdata, k)  # the k-mer at pointer p
    hops = _hash_cost_ops(k)
    key_words = (k + 7) // 8
    ledger = wb.ledger(rows)
    # the pending-lane queue, one column per lane: ledger warp, lane,
    # hash, my_ptr, ext base, hi-quality flag, probe offset
    queue = np.zeros((7, 0), dtype=np.int64)
    left = np.zeros(G, dtype=np.int64)  # pending lanes per warp
    while True:
        idle = (left == 0) & (nxt < end)
        while idle.any():
            wi = np.flatnonzero(idle)
            s = nxt[wi]
            nxt[wi] += 1
            load_start, n_act, r = step_start[s], step_act[s], rows[wi]
            # Coalesced window + ext-base + quality loads (Fig 7).
            wb.load_span(batch.reads_buf, load_start, n_act + k, r)
            wb.load_span(batch.quals_buf, load_start + k, n_act, r)
            wb.int_op(hops, r, n_act)  # row murmur hashes
            lane = cached_arange(int(n_act.sum())) - np.repeat(
                np.cumsum(n_act) - n_act, n_act
            )
            ptr = np.repeat(load_start, n_act) + lane
            win = windows[ptr]
            v = np.flatnonzero((rdata[ptr + k] < 4) & (win < 4).all(axis=1))
            lw = np.repeat(wi, n_act)[v]
            ptr = ptr[v]
            fresh = np.empty((7, v.size), dtype=np.int64)
            fresh[0] = lw
            fresh[1] = lane[v]
            fresh[2] = murmurhash2_rows(win[v])
            fresh[3] = ptr
            fresh[4] = rdata[ptr + k]
            fresh[5] = qdata[ptr + k] >= cfg.hi_q_thresh
            fresh[6] = 0
            queue = np.concatenate((queue, fresh), axis=1)
            got = np.bincount(lw, minlength=G)
            left += got
            idle[wi] = (got[wi] == 0) & (nxt[wi] < end[wi])
        if queue.shape[1] == 0:
            break
        qw, ql, qh, qp, qe, qq, qo = queue
        gidx = ht_start[qw] + (qh + qo) % slots[qw]
        # fuse_int=2: slot = (hash + off) % slots address math;
        # fuse_control=1: the loop-back branch
        occupant = wb.load_lanes(
            ledger, batch.ht_ptr, gidx, qw, ql, fuse_int=2, fuse_control=1
        )
        resolved = np.zeros(qw.size, dtype=bool)  # claimed or found its key
        e = np.flatnonzero(occupant == EMPTY_PTR)
        if e.size:
            # Thread-collision mask + CAS claim + sync (paper §3.3),
            # issued as one fused op.
            old = wb.atomic_cas_lanes(
                ledger, batch.ht_ptr, gidx[e], EMPTY_PTR, qp[e], qw[e], ql[e],
                fuse_shfl_sync=True,
            )
            won = old == EMPTY_PTR
            resolved[e] = won
            # the pointer a losing lane compares against: the prior
            # occupant, or the lane that just won the CAS race
            occupant[e] = np.where(won, qp[e], old)
        c = np.flatnonzero(~resolved)
        if c.size:
            occ = occupant[c]
            # fuse_int: the per-word key compare
            wb.gather_span_lanes(
                ledger, batch.reads_buf, occ, k, qw[c], ql[c], fuse_int=key_words
            )
            resolved[c] = (windows[occ] == windows[qp[c]]).all(axis=1)
        u = np.flatnonzero(resolved)
        if u.size:
            cidx, wu, lu = gidx[u] * 4 + qe[u], qw[u], ql[u]
            _ = wb.atomic_add_lanes(ledger, batch.ht_total, cidx, 1, wu, lu)
            h = qq[u] != 0
            if h.any():
                _ = wb.atomic_add_lanes(ledger, batch.ht_hi, cidx[h], 1, wu[h], lu[h])
        queue = queue[:, ~resolved]
        queue[6] += 1
        left = np.bincount(queue[0], minlength=G)
    ledger.flush()


def _walk_group(
    wb: WarpBatch,
    batch: DeviceBatch,
    rows,
    k: int,
    seq_off,
    slen,
    ht_start,
    slots,
    vis_start,
):
    """Lockstep single-lane mer-walks for one k-group.

    Returns ``(appended, status, slen)`` per row.  Every still-walking row
    advances through the same walk step at once; rows leave the lockstep
    (loop/runout/fork/accept) exactly where the sequential walk breaks.
    """
    cfg = batch.config
    R = rows.size
    vis_slots = batch.vis_slots
    sdata = batch.seq_buf.data
    rdata = batch.reads_buf.data
    status = np.full(R, int(WalkStatus.MAX_LEN), dtype=np.int64)
    appended = np.zeros(R, dtype=np.int64)
    slen = slen.copy()
    walking = np.ones(R, dtype=bool)
    short = slen < k
    if short.any():
        wb.control_op(1, rows[short], 1)
        status[short] = int(WalkStatus.RUNOUT)
        walking[short] = False
    hops = _hash_cost_ops(k)
    key_words = (k + 7) // 8
    ar_k = cached_arange(k)
    ar_4 = cached_arange(4)
    for _ in range(cfg.max_walk_len):
        wloc = np.nonzero(walking)[0]
        if wloc.size == 0:
            break
        if wloc.size == R:  # common case: every row still walking
            kpos = seq_off + slen - k
            kmers = sdata[kpos[:, None] + ar_k]
            h = murmurhash2_rows(kmers).astype(np.int64)
        else:
            kpos = np.zeros(R, dtype=np.int64)
            kpos[wloc] = seq_off[wloc] + slen[wloc] - k
            kmers = np.zeros((R, k), dtype=np.uint8)
            kmers[wloc] = sdata[kpos[wloc, None] + ar_k]
            h = np.zeros(R, dtype=np.int64)
            h[wloc] = murmurhash2_rows(
                np.ascontiguousarray(kmers[wloc])
            ).astype(np.int64)
        wb.int_op(hops, rows[wloc], 1)

        # -- visited-table probe (loop detection + insert) -----------------
        pend = walking.copy()
        seen = np.zeros(R, dtype=bool)
        voff = np.zeros(R, dtype=np.int64)
        while True:
            pl = np.nonzero(pend)[0]
            if pl.size == 0:
                break
            vidx = vis_start[pl] + (h[pl] + voff[pl]) % vis_slots
            cur = wb.load_lane0(batch.vis_ptr, vidx, rows[pl], fuse_int=2)
            isempty = cur == EMPTY_PTR
            if isempty.any():
                e = pl[isempty]
                _ = wb.atomic_cas_lane0(
                    batch.vis_ptr, vidx[isempty], EMPTY_PTR, kpos[e], rows[e]
                )
                pend[e] = False  # inserted: first sighting
            occ = pl[~isempty]
            if occ.size:
                curo = cur[~isempty].astype(np.int64)
                wb.gather_span_lane0(
                    batch.seq_buf, curo, k, rows[occ], fuse_int=key_words
                )
                eq = (sdata[curo[:, None] + ar_k] == kmers[occ]).all(axis=1)
                seen[occ[eq]] = True
                pend[occ[eq]] = False
                cont = occ[~eq]
                if cont.size:
                    voff[cont] += 1
                    wb.control_op(1, rows[cont], 1)
                    # exhausted tables treat the k-mer as unseen (2x sizing
                    # makes this unreachable in practice)
                    pend[cont[voff[cont] >= vis_slots]] = False
        status[seen] = int(WalkStatus.LOOP)
        walking &= ~seen

        # -- main-table lookup by content -----------------------------------
        pend = walking.copy()
        found = np.full(R, -1, dtype=np.int64)
        moff = np.zeros(R, dtype=np.int64)
        while True:
            pl = np.nonzero(pend)[0]
            if pl.size == 0:
                break
            gidx = ht_start[pl] + (h[pl] + moff[pl]) % slots[pl]
            cur = wb.load_lane0(batch.ht_ptr, gidx, rows[pl], fuse_int=2)
            isempty = cur == EMPTY_PTR
            pend[pl[isempty]] = False  # absent: walk ran out
            occ = pl[~isempty]
            if occ.size:
                curo = cur[~isempty].astype(np.int64)
                gocc = gidx[~isempty]
                wb.gather_span_lane0(
                    batch.reads_buf, curo, k, rows[occ], fuse_int=key_words
                )
                eq = (rdata[curo[:, None] + ar_k] == kmers[occ]).all(axis=1)
                found[occ[eq]] = gocc[eq]
                pend[occ[eq]] = False
                cont = occ[~eq]
                if cont.size:
                    moff[cont] += 1
                    wb.control_op(1, rows[cont], 1)
                    pend[cont[moff[cont] >= slots[cont]]] = False
        absent = walking & (found < 0)
        status[absent] = int(WalkStatus.RUNOUT)
        walking &= ~absent

        # -- classify + append ------------------------------------------------
        cl = np.nonzero(walking)[0]
        if cl.size == 0:
            break
        wb.gather_span_lane0(batch.ht_hi, found[cl] * 16, 16, rows[cl])
        # fuse_int=8: the tally-compare arithmetic of classify_extension
        wb.gather_span_lane0(batch.ht_total, found[cl] * 16, 16, rows[cl], fuse_int=8)
        hi4 = batch.ht_hi.data[found[cl, None] * 4 + ar_4].astype(np.int64)
        tot4 = batch.ht_total.data[found[cl, None] * 4 + ar_4].astype(np.int64)
        # Vectorised classify_extension: viability, lexicographic
        # (total, hi) ranking with lowest-base tie-break, dominance test.
        viable = hi4 >= cfg.min_viable
        no_hi = ~viable.any(axis=1)
        if no_hi.any():  # low-coverage fallback rows
            viable[no_hi] = tot4[no_hi] >= cfg.min_viable
        nv = viable.sum(axis=1)
        key = np.where(viable, (tot4 << 32) + hi4, np.int64(-1))
        top_b = np.argmax(key, axis=1)  # first max == lowest base on ties
        tv = np.where(viable, tot4, np.int64(-1))
        tv.sort(axis=1)
        t1 = tv[:, 3]
        t2 = tv[:, 2]
        dominant = (t1 > t2) & (t1 >= cfg.dominance_ratio * t2)
        runout = nv == 0
        fork = (nv >= 2) & ~dominant
        status[cl[runout]] = int(WalkStatus.RUNOUT)
        status[cl[fork]] = int(WalkStatus.FORK)
        walking[cl[runout | fork]] = False
        st = cl[~(runout | fork)]
        if st.size:
            wb.store_lane0(
                batch.seq_buf, seq_off[st] + slen[st],
                top_b[~(runout | fork)], rows[st],
                fuse_local_store=True,  # walk string bookkeeping
            )
            slen[st] += 1
            appended[st] += 1
    return appended, status, slen


def run_extension_v2_batched(
    n_warps: int, sector_bytes: int, batch: DeviceBatch, task_ids
) -> BatchCounters:
    """Run a whole v2 extension launch as one batched SoA computation.

    The batched counterpart of driving
    :func:`~repro.core.extension_kernel.extension_task_kernel_v2` once per
    warp; returns the per-warp :class:`BatchCounters`, which finalize to
    counters bit-identical to the sequential launch loop (and split
    exactly at any warp boundary — the fused-dispatch contract).
    """
    cfg = batch.config
    counters = BatchCounters(n_warps)
    wb = WarpBatch(counters, sector_bytes)
    t_arr = np.asarray(task_ids, dtype=np.int64)[:n_warps]
    rows_all = cached_arange(n_warps)

    wb.int_op(3, rows_all, _LANES)  # task metadata loads / setup
    n_reads = np.fromiter(
        (batch.tasks[int(t)].n_reads for t in t_arr), np.int64, count=n_warps
    )
    ht_start = batch.layout.offsets[t_arr]
    slots = batch.layout.sizes[t_arr]
    vis_start = t_arr * batch.vis_slots
    seq_off = np.asarray(batch.seq_offsets, dtype=np.int64)[t_arr]
    slen = np.asarray(batch.seq_len, dtype=np.int64)[t_arr].copy()

    empty = n_reads == 0
    if empty.any():  # bin-1 rows: store a zero extension and stop
        wb.store_lane0(
            batch.out_ext_len,
            t_arr[empty],
            np.zeros(int(empty.sum()), dtype=np.int64),
            rows_all[empty],
        )
    states: list[KShiftState | None] = [
        None if empty[w] else KShiftState(k=cfg.k_init) for w in range(n_warps)
    ]
    totals = np.zeros(n_warps, dtype=np.int64)

    while True:
        live = np.array(
            [w for w, s in enumerate(states) if s is not None and not s.done],
            dtype=np.int64,
        )
        if live.size == 0:
            break
        k_live = np.array([states[w].k for w in live], dtype=np.int64)
        status = np.zeros(n_warps, dtype=np.int64)
        # Warps shift k independently; each round runs one lockstep
        # clear/build/walk per distinct live mer size.
        for kv in np.unique(k_live):
            g = live[k_live == kv]
            kv = int(kv)
            _clear_group(wb, batch, g, ht_start[g], slots[g], vis_start[g])
            _build_group(wb, batch, g, t_arr[g], kv, ht_start[g], slots[g])
            # Build-to-walk barrier, matching the sequential kernel's
            # warp.sync() between build_fn and mer_walk_gpu.
            wb.sync_op(g, _LANES)
            app, st, new_slen = _walk_group(
                wb, batch, g, kv, seq_off[g], slen[g], ht_start[g], slots[g],
                vis_start[g],
            )
            totals[g] += app
            status[g] = st
            slen[g] = new_slen
        # Broadcast walk state to each warp (§3.4 shuffle) + k-shift.
        wb.shuffle_op(live, _LANES)
        wb.int_op(4, live, _LANES)
        for w in live.tolist():
            states[w] = kshift_next(
                states[w], WalkStatus(int(status[w])),
                cfg.k_min, cfg.k_max, cfg.k_step,
            )

    batch.seq_len[t_arr] = slen
    done = rows_all[~empty]
    if done.size:
        wb.store_lane0(batch.out_ext_len, t_arr[done], totals[done], done)
    return counters


register_batched(extension_task_kernel_v2, run_extension_v2_batched)
