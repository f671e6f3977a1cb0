"""Batched SoA warp execution: advance every warp of a launch at once.

The sequential interpreter (:mod:`repro.gpusim.warp`) runs one
:class:`~repro.gpusim.warp.Warp` at a time, so a launch pays Python
dispatch overhead per warp per instruction.  This module provides the
*batched* engine primitives: kernel state lives in structure-of-arrays
form (per-row arrays, or flat lane lists tagged with their warp) and
every simulated instruction is applied to all participating warps with
one NumPy operation — the same layout trick MetaCache-GPU and the MHM2
lineage use to keep thousands of concurrent work items busy on real
hardware.

Correctness contract (pinned by the differential tests and the
``bench_engine_scaling`` bit-identity check):

* **Counters** are additive per warp.  :class:`BatchCounters` keeps every
  :class:`~repro.gpusim.counters.KernelCounters` field as a per-warp
  array; each :class:`WarpBatch` primitive replicates the sequential
  accounting formulas exactly (issue slots, predication, per-access sector
  dedup), so the per-warp totals — and therefore the merged counters and
  ``per_warp_inst`` tuples — are bit-identical to sequential execution.
* **Data** is warp-disjoint.  The paper's kernels give every warp private
  hash-table / visited / sequence / output regions, so any interleaving of
  warps yields identical memory contents.  Lanes *within* a warp that hit
  the same address serialise in ascending lane order, exactly like
  :class:`~repro.gpusim.warp.Warp`'s atomics.  Kernels with cross-warp
  write overlap are not batchable.

Batched kernel implementations register themselves against the sequential
kernel function via :func:`register_batched`;
:meth:`repro.gpusim.kernel.GpuContext.launch` dispatches through
:func:`batched_impl` when the context runs with ``engine="batched"``.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Callable

import numpy as np

from repro.gpusim._fastops import run_heads
from repro.gpusim.counters import KernelCounters
from repro.gpusim.device import WARP_SIZE
from repro.gpusim.memory import DeviceArray, DeviceFreeError

__all__ = [
    "BatchCounters",
    "LaneLedger",
    "WarpBatch",
    "register_batched",
    "batched_impl",
    "set_active_sanitizer",
    "cached_arange",
]

#: sanitizer picked up by WarpBatch instances created inside a batched
#: kernel implementation.  Batched impls construct their own WarpBatch, so
#: GpuContext.launch publishes the context's sanitizer here around the
#: call instead of threading it through every impl signature.
_ACTIVE_SANITIZER = None


def set_active_sanitizer(sanitizer) -> None:
    """Publish (or clear, with None) the sanitizer for new WarpBatches."""
    global _ACTIVE_SANITIZER
    _ACTIVE_SANITIZER = sanitizer

#: per-group composite sort keys: ``group * _KEY_BASE + offset``.  Byte
#: offsets inside one device array stay far below 2^45 (32 TB), which
#: leaves 18 bits of an int64 for the group id.
_KEY_BITS = 45
_KEY_BASE = np.int64(1) << _KEY_BITS
#: the most groups one composite-key sort can tell apart.
MAX_KEY_GROUPS = 1 << 18
#: sector keys a :class:`LaneLedger` buffers before it flushes (~2 MB).
LEDGER_KEY_BUDGET = 1 << 17

#: batched-kernel registry: sequential kernel fn -> batched implementation
#: with signature ``impl(n_warps, sector_bytes, *launch_args)`` returning
#: a :class:`BatchCounters` (or, legacy form, an already-finalized
#: ``(KernelCounters, per_warp_inst list)`` tuple).
_BATCHED_IMPLS: dict[Callable, Callable] = {}

#: the per-warp counter fields, computed once (dataclasses.fields per
#: BatchCounters construction showed up in the dispatch profile).
_COUNTER_NAMES = tuple(
    f.name
    for f in fields(KernelCounters)
    if f.name not in ("labels", "n_warps_launched")
)

#: read-only ``np.arange`` cache for the per-op word/lane index vectors —
#: the hot ops rebuild identical aranges thousands of times per sweep.
_ARANGES: dict[int, np.ndarray] = {}


def cached_arange(n: int) -> np.ndarray:
    """``np.arange(n, dtype=int64)``, cached and **read-only** — callers
    must never mutate the returned array."""
    a = _ARANGES.get(n)
    if a is None:
        a = np.arange(n, dtype=np.int64)
        a.setflags(write=False)
        _ARANGES[n] = a
    return a


def register_batched(kernel_fn: Callable, impl: Callable) -> None:
    """Register *impl* as the batched execution of *kernel_fn*."""
    _BATCHED_IMPLS[kernel_fn] = impl


def batched_impl(kernel_fn: Callable) -> Callable | None:
    """The batched implementation of *kernel_fn*, or None if unregistered."""
    return _BATCHED_IMPLS.get(kernel_fn)


def _per_group_unique(
    n_groups: int,
    groups: np.ndarray,
    offsets: np.ndarray,
    spans: tuple = ((0, 1),),
    sector_bytes: int = 1,
    base: int = 0,
) -> np.ndarray:
    """Distinct sectors per group, vectorised over all groups at once.

    Lane ``i`` of group ``groups[i]`` touches, for each ``(start, length)``
    of *spans*, the bytes ``[base + offsets[i] + start, ... + length)``;
    per group and span the distinct *sector_bytes*-sized sectors are
    counted, and the spans summed (no dedup across spans — the sequential
    per-column accounting).  With the defaults this is the number of
    distinct *offsets* per group: the batched form of the sequential
    path's per-warp ``len(set(...))`` sector dedup.

    One sort over composite ``group * _KEY_BASE + offset`` keys orders
    every group's lanes by address, so each span's first and last sectors
    never decrease along a group and a lane's new sectors are exactly
    those past its predecessor's last: one pass per span, no per-span
    sort.  Raises :class:`OverflowError` for more than
    :data:`MAX_KEY_GROUPS` groups, whose ids would wrap the int64 key.
    """
    if n_groups > MAX_KEY_GROUPS:
        raise OverflowError(
            f"{n_groups} groups exceed the {MAX_KEY_GROUPS} a composite "
            f"sort key can hold"
        )
    if groups.size == 0:
        return np.zeros(n_groups, dtype=np.int64)
    keys = (groups.astype(np.int64, copy=False) << _KEY_BITS) + offsets
    keys.sort()
    g = keys >> _KEY_BITS
    addr = (keys & (_KEY_BASE - 1)) + base
    fresh = run_heads(g)  # each group's first lane
    new = np.zeros(keys.size, dtype=np.int64)
    prev = np.empty(keys.size, dtype=np.int64)
    for start, length in spans:
        first = (addr + start) // sector_bytes
        last = (addr + (start + length - 1)) // sector_bytes
        prev[1:] = last[:-1]
        prev[fresh] = -1
        new += last - np.maximum(first - 1, prev)
    return np.bincount(g, weights=new, minlength=n_groups).astype(np.int64)


def _run_lengths(run_starts: np.ndarray, total: int) -> np.ndarray:
    """Run lengths from run-start positions over *total* sorted elements."""
    return np.diff(run_starts, append=total)


class BatchCounters:
    """Per-warp counter arrays — the SoA form of :class:`KernelCounters`.

    Every integer field of :class:`KernelCounters` becomes a ``(n_warps,)``
    int64 array; :meth:`finalize` collapses them to one launch-wide counter
    set plus the ``per_warp_inst`` list, both bit-identical to what the
    sequential interpreter would have produced warp by warp.
    """

    _names = _COUNTER_NAMES

    def __init__(self, n_warps: int) -> None:
        self.n_warps = int(n_warps)
        for name in self._names:
            setattr(self, name, np.zeros(self.n_warps, dtype=np.int64))
        #: the only label the kernels emit; zero totals are dropped at
        #: finalize, matching the sequential "create on first nonzero" rule.
        self.atomic_conflicts = np.zeros(self.n_warps, dtype=np.int64)

    def finalize(self) -> tuple[KernelCounters, list[int]]:
        return self.finalize_range(0, self.n_warps)

    def finalize_range(self, lo: int, hi: int) -> tuple[KernelCounters, list[int]]:
        """Collapse warps ``[lo, hi)`` to one counter set + per-warp list.

        Sound because every WarpBatch accounting formula is *row-local*:
        a warp's issue/transaction counts depend only on its own rows'
        data, so the counters of a fused multi-batch sweep split exactly
        into the per-batch counters the unfused launches would report.
        """
        counters = KernelCounters.from_per_warp(
            {name: getattr(self, name)[lo:hi] for name in self._names},
            labels={"atomic_conflicts": self.atomic_conflicts[lo:hi]},
        )
        per_warp = [int(v) for v in self.warp_inst[lo:hi]]
        return counters, per_warp


class LaneLedger:
    """Deferred, exact per-warp accounting for the flat lane ops.

    The ``*_lanes`` primitives of :class:`WarpBatch` run one instruction
    for every warp present in a flat lane list.  Instead of touching
    :class:`BatchCounters` per call they record here:

    * per instruction mix, each warp's issue *rounds* and *active-lane
      sum* (dense accumulators — every issue formula is linear in both);
    * their per-lane byte offsets, tagged by (call, warp) group, for the
      per-group sector dedup;
    * their scalar atomic adds, whose data lands at the flush.

    :meth:`flush` folds all of it into the counters — one composite-key
    sort per access kind instead of one per call — and applies the adds.
    It runs whenever :data:`LEDGER_KEY_BUDGET` keys are buffered, before
    an access kind's group ids would pass :data:`MAX_KEY_GROUPS`, and
    once when the caller is done, which must happen before anything reads
    the added-to arrays.  Ledger warp ``i`` is launch row ``rows[i]``.
    """

    def __init__(self, counters: BatchCounters, rows, sector_bytes: int) -> None:
        self.counters = counters
        self.rows = np.asarray(rows, dtype=np.int64)
        self.sector_bytes = int(sector_bytes)
        #: (n_inst, ((field, per-issue count), ...)) -> [rounds, active]
        self._mixes: dict[tuple, list[np.ndarray]] = {}
        #: (field, base address, spans) -> [calls, group tags, byte offsets]
        self._keys: dict[tuple, list] = {}
        #: (base address, increment) -> [darr, increment, element indices]
        self._adds: dict[tuple, list] = {}
        self._n_keys = 0

    def issue(self, w, n_inst: int, mix: tuple) -> np.ndarray:
        """Record one *n_inst*-instruction issue by every warp in *w*
        (one entry per active lane); *mix* lists ``(field, count)`` pairs
        bumped per issue.  Returns the per-warp active-lane counts."""
        cnt = np.bincount(w, minlength=self.rows.size)
        acc = self._mixes.get((n_inst, mix))
        if acc is None:
            acc = [np.zeros(self.rows.size, dtype=np.int64) for _ in range(2)]
            self._mixes[(n_inst, mix)] = acc
        acc[0] += cnt > 0
        acc[1] += cnt
        return cnt

    def sectors(self, field: str, base: int, w, offsets, spans: tuple) -> None:
        """Record one call's accesses for *field*'s sector dedup: lane
        ``i`` of warp ``w[i]`` touches *spans* (``(start, length)`` byte
        ranges) at byte ``offsets[i]`` of the array at address *base*."""
        n = self.rows.size
        kind = (field, base, spans)
        slot = self._keys.get(kind)
        if slot is not None and (slot[0] + 1) * n > MAX_KEY_GROUPS:
            self._flush_keys()
            slot = None
        if slot is None:
            slot = self._keys[kind] = [0, [], []]
        slot[1].append(w + slot[0] * n)
        slot[2].append(offsets)
        slot[0] += 1
        self._n_keys += offsets.size
        if self._n_keys >= LEDGER_KEY_BUDGET:
            self._flush_keys()

    def defer_add(self, darr, idx, value) -> None:
        """Queue ``darr[idx] += value`` (per lane) for the next flush."""
        slot = self._adds.setdefault((darr.base_addr, value), [darr, value, []])
        slot[2].append(idx)
        self._n_keys += idx.size

    def flush(self) -> None:
        """Fold everything recorded so far into the counters and memory."""
        c, rows = self.counters, self.rows
        for (n_inst, mix), (rounds, act) in self._mixes.items():
            c.warp_inst[rows] += n_inst * rounds
            c.thread_inst[rows] += n_inst * act
            c.predicated_off[rows] += n_inst * (WARP_SIZE * rounds - act)
            for name, per_issue in mix:
                if per_issue:
                    getattr(c, name)[rows] += per_issue * rounds
        self._mixes.clear()
        self._flush_keys()

    def _flush_keys(self) -> None:
        """Dedup the buffered sector keys and apply the buffered adds (the
        issue accumulators are dense and wait for :meth:`flush`)."""
        c, rows, n = self.counters, self.rows, self.rows.size
        for (field, base, spans), (calls, tags, offsets) in self._keys.items():
            per_group = _per_group_unique(
                calls * n, np.concatenate(tags), np.concatenate(offsets),
                spans, self.sector_bytes, base,
            )
            getattr(c, field)[rows] += per_group.reshape(calls, n).sum(axis=0)
        self._keys.clear()
        for darr, value, parts in self._adds.values():
            # collapse duplicate addresses with one sort (no np.add.at)
            idx = np.concatenate(parts)
            idx.sort()
            starts = np.flatnonzero(run_heads(idx))
            flat = darr.data.reshape(-1)
            flat[idx[starts]] += (_run_lengths(starts, idx.size) * value).astype(
                flat.dtype
            )
        self._adds.clear()
        self._n_keys = 0


class WarpBatch:
    """Warp-axis generalisation of :class:`~repro.gpusim.warp.Warp`.

    Each primitive acts on a *row set* (``rows``: global warp ids, one per
    per-row operand) instead of a single warp, with per-row active-lane
    counts replacing the sequential active mask; the ``*_lanes`` ops take
    a flat lane list instead and account through a :class:`LaneLedger`.
    Accounting mirrors ``Warp`` method for method:

    ===========================  =======================================
    sequential                    batched equivalent
    ===========================  =======================================
    ``int_op/control_op``        same, with per-row active-lane counts
    ``global_load``              ``load_lanes`` / ``load_lane0``
    ``global_*_span``            ``load_span`` / ``store_span`` (per-row
                                 start/length arrays)
    ``global_gather_span``       ``gather_span_lanes`` /
                                 ``gather_span_lane0``
    ``atomic_cas/add``           ``atomic_cas_lanes`` /
                                 ``atomic_add_lanes`` /
                                 ``atomic_cas_lane0``
    ``single_lane(0)`` ops       ``*_lane0`` variants (walk mode)
    ===========================  =======================================
    """

    def __init__(
        self, counters: BatchCounters, sector_bytes: int = 32, sanitizer=None
    ) -> None:
        self.counters = counters
        self.sector_bytes = int(sector_bytes)
        #: explicit sanitizer, or whatever GpuContext.launch published
        self.sanitizer = sanitizer if sanitizer is not None else _ACTIVE_SANITIZER

    def ledger(self, rows) -> LaneLedger:
        """A :class:`LaneLedger` over launch rows *rows* for the ``*_lanes``
        ops (flush it before reading what they added to)."""
        return LaneLedger(self.counters, rows, self.sector_bytes)

    # -- strict validation (parity with Warp's always-on checks) -------------

    def _strict_check(self, darr: DeviceArray, idx_flat, op: str) -> None:
        if darr.freed:
            raise DeviceFreeError(
                f"{op} on freed device array at 0x{darr.base_addr:x}"
            )
        idx_flat = np.asarray(idx_flat)
        if idx_flat.size:
            lo, hi = int(idx_flat.min()), int(idx_flat.max())
            if lo < 0 or hi >= darr.data.size:
                raise IndexError(
                    f"{op} index {lo if lo < 0 else hi} out of bounds for "
                    f"device array of {darr.data.size} elements"
                )

    def _strict_span_check(self, darr: DeviceArray, start, length, op: str) -> None:
        if darr.freed:
            raise DeviceFreeError(
                f"{op} on freed device array at 0x{darr.base_addr:x}"
            )
        start = np.asarray(start, dtype=np.int64)
        length = np.asarray(length, dtype=np.int64)
        live = length > 0
        bad = live & ((start < 0) | (start + length > darr.data.size))
        if bad.any():
            j = int(np.argmax(bad))
            s0, l0 = int(np.broadcast_to(start, bad.shape)[j]), int(
                np.broadcast_to(length, bad.shape)[j]
            )
            raise IndexError(
                f"{op} span [{s0}, {s0 + l0}) out of bounds for device "
                f"array of {darr.data.size} elements"
            )

    # -- issue bookkeeping --------------------------------------------------

    def _bulk(self, rows, n_inst, active_slots) -> None:
        c = self.counters
        c.warp_inst[rows] += n_inst
        c.thread_inst[rows] += active_slots
        c.predicated_off[rows] += n_inst * WARP_SIZE - active_slots

    def _issue(self, rows, n, active) -> None:
        self._bulk(rows, n, n * active)

    # -- arithmetic / control ------------------------------------------------

    def int_op(self, n, rows, active) -> None:
        self._issue(rows, n, active)
        self.counters.int_inst[rows] += n

    def control_op(self, n, rows, active) -> None:
        self._issue(rows, n, active)
        self.counters.control_inst[rows] += n

    def shuffle_op(self, rows, active) -> None:
        """One shfl/ballot/match_any per row (data handled by the caller)."""
        self._issue(rows, 1, active)
        self.counters.shuffle_inst[rows] += 1

    def sync_op(self, rows, active) -> None:
        self._issue(rows, 1, active)
        self.counters.sync_inst[rows] += 1
        if self.sanitizer is not None:
            self.sanitizer.warp_sync_rows(rows)

    # -- transaction helpers ---------------------------------------------------

    def _aligned(self, darr) -> bool:
        """True when no element of *darr* can straddle a sector boundary
        (aligned base, itemsize divides the sector size)."""
        return (
            darr.base_addr % self.sector_bytes == 0
            and self.sector_bytes % darr.itemsize == 0
        )

    def _single_element_transactions(self, darr, idx):
        """Per-row sector count when each row accesses exactly one element
        (the dedup in :meth:`_element_transactions` is vacuous)."""
        if self._aligned(darr):
            return 1
        addrs = darr.base_addr + idx * darr.itemsize
        first = addrs // self.sector_bytes
        last = (addrs + darr.itemsize - 1) // self.sector_bytes
        return 1 + (first != last)

    def _span_sectors(self, darr, start, length) -> np.ndarray:
        first = darr.base_addr + np.asarray(start, dtype=np.int64) * darr.itemsize
        last = first + np.asarray(length, dtype=np.int64) * darr.itemsize - 1
        n = last // self.sector_bytes - first // self.sector_bytes + 1
        return np.where(np.asarray(length) > 0, n, 0)

    # -- span loads / stores (converged-warp cooperative pattern) ----------------

    def load_span(self, darr: DeviceArray, start, length, rows) -> None:
        """Account per-row coalesced span loads (data read by the caller)."""
        length = np.asarray(length, dtype=np.int64)
        n_inst = np.where(length > 0, (length + WARP_SIZE - 1) // WARP_SIZE, 0)
        self._bulk(rows, n_inst, np.maximum(length, 0))
        self.counters.global_ld_inst[rows] += n_inst
        s = self.sanitizer
        if s is None or not s.memcheck:
            self._strict_span_check(darr, start, length, "load_span")
        if s is not None:
            rows_arr = np.asarray(rows)
            start_b = np.broadcast_to(np.asarray(start, dtype=np.int64), rows_arr.shape)
            length_b = np.broadcast_to(length, rows_arr.shape)
            for i in range(rows_arr.size):
                s.span(
                    darr, start_b[i], length_b[i], rows_arr[i],
                    write=False, op="load_span",
                )
        self.counters.global_ld_transactions[rows] += self._span_sectors(
            darr, start, length
        )

    def store_span(self, darr: DeviceArray, start, length, value, rows) -> None:
        """Per-row coalesced memset of ``darr[start:start+length]``."""
        start = np.asarray(start, dtype=np.int64)
        length = np.asarray(length, dtype=np.int64)
        n_inst = np.where(length > 0, (length + WARP_SIZE - 1) // WARP_SIZE, 0)
        self._bulk(rows, n_inst, np.maximum(length, 0))
        self.counters.global_st_inst[rows] += n_inst
        self.counters.global_st_transactions[rows] += self._span_sectors(
            darr, start, length
        )
        san = self.sanitizer
        if san is None or not san.memcheck:
            self._strict_span_check(darr, start, length, "store_span")
        rows_arr = np.asarray(rows)
        flat = darr.data.reshape(-1)
        for i, (s, l) in enumerate(zip(start.tolist(), length.tolist())):
            if l <= 0:
                continue
            if san is not None and not san.span(
                darr, s, l, rows_arr[i], write=True, op="store_span"
            ):
                continue  # memcheck suppressed the faulting span
            flat[s : s + l] = value

    # -- flat lane lists (deferred accounting through a LaneLedger) ---------------
    #
    # Operands are flat per-lane arrays: ``w`` (ledger warp index), ``lanes``
    # and the per-lane addresses/values.  One call is one instruction of
    # every warp present in ``w``.  A warp's lanes must appear in ascending
    # lane order: atomics on a shared address serialise in that order.

    def _lane_sectors(self, ledger: LaneLedger, field: str, darr, idx, w) -> None:
        """Record the sector keys of per-lane element accesses."""
        ledger.sectors(
            field, darr.base_addr, w, idx * darr.itemsize, ((0, darr.itemsize),)
        )

    def _lane_check(self, ledger, darr, idx, w, lanes, op, write, atomic=False):
        """Strict-check and sanitize a lane access; returns the memcheck
        keep-mask (None when every lane proceeds)."""
        s = self.sanitizer
        if s is None or not s.memcheck:
            self._strict_check(darr, idx, op)
        if s is None:
            return None
        return s.access(
            darr, idx, ledger.rows[w], lanes, write=write, atomic=atomic, op=op
        )

    def load_lanes(
        self,
        ledger: LaneLedger,
        darr: DeviceArray,
        idx,
        w,
        lanes,
        fuse_int: int = 0,
        fuse_control: int = 0,
    ) -> np.ndarray:
        """``global_load`` over a flat lane list; returns one value per lane
        (0 for lanes memcheck suppressed).

        ``fuse_int`` / ``fuse_control`` fold that many surrounding integer /
        control instructions (same lanes) into this op's issue — the
        counter sums are additive, so fusing is exactly the separate
        ``int_op``/``control_op`` calls plus the load.
        """
        ledger.issue(
            w,
            1 + fuse_int + fuse_control,
            (("int_inst", fuse_int), ("control_inst", fuse_control),
             ("global_ld_inst", 1)),
        )
        flat = darr.data.reshape(-1)
        keep = self._lane_check(ledger, darr, idx, w, lanes, "load_lanes", False)
        if keep is None:
            out = flat[idx]
        else:
            out = np.zeros(idx.size, dtype=darr.data.dtype)
            idx, w = idx[keep], w[keep]
            out[keep] = flat[idx]
        self._lane_sectors(ledger, "global_ld_transactions", darr, idx, w)
        return out

    def gather_span_lanes(
        self,
        ledger: LaneLedger,
        darr: DeviceArray,
        starts,
        nbytes: int,
        w,
        lanes,
        word_bytes: int = 8,
        fuse_int: int = 0,
    ) -> None:
        """``global_gather_span`` over a flat lane list: per-lane key streams.

        *starts* are byte offsets; per word the distinct {first, last}
        sectors of each warp's lanes are counted separately (no dedup
        across words), matching the sequential per-column accounting.
        ``fuse_int`` as in :meth:`load_lanes`.
        """
        nbytes = int(nbytes)
        if nbytes <= 0:
            return
        n_words = (nbytes + word_bytes - 1) // word_bytes
        ledger.issue(
            w, n_words + fuse_int,
            (("int_inst", fuse_int), ("global_ld_inst", n_words)),
        )
        if self.sanitizer is not None:
            self.sanitizer.byte_gather(
                darr, starts, nbytes, ledger.rows[w], lanes, op="gather_span_lanes"
            )
        spans = tuple(
            (j, min(word_bytes, nbytes - j)) for j in range(0, nbytes, word_bytes)
        )
        ledger.sectors("global_ld_transactions", darr.base_addr, w, starts, spans)

    def atomic_cas_lanes(
        self,
        ledger: LaneLedger,
        darr: DeviceArray,
        idx,
        compare,
        value,
        w,
        lanes,
        fuse_shfl_sync: bool = False,
    ) -> np.ndarray:
        """``atomicCAS`` over a flat lane list; returns the old value per
        lane (0 for lanes memcheck suppressed).

        Warps own disjoint address regions, so duplicate addresses only
        occur within a warp — the thread-collision case.  One stable sort
        by address resolves every duplicate run: its first lane (ascending
        lane order) sees the slot as it was and the rest see the result of
        that first CAS, which must change the slot (``value != compare``,
        as in a claim of an empty slot).  Each duplicate lane is one
        hardware replay (``atomic_conflicts``).  ``fuse_shfl_sync`` folds
        the surrounding match_any shuffle + barrier (same lanes) into this
        op's issue.
        """
        mix = (("atomic_inst", 1),)
        if fuse_shfl_sync:
            mix += (("shuffle_inst", 1), ("sync_inst", 1))
        cnt = ledger.issue(w, 3 if fuse_shfl_sync else 1, mix)
        keep = self._lane_check(
            ledger, darr, idx, w, lanes, "atomic_cas_lanes", True, atomic=True
        )
        value = np.broadcast_to(value, idx.shape)
        if keep is None:
            old = self._cas(darr, idx, compare, value, w, ledger)
        else:  # memcheck suppressed lanes read back 0
            old = np.zeros(idx.size, dtype=darr.data.dtype)
            old[keep] = self._cas(darr, idx[keep], compare, value[keep], w[keep], ledger)
        if fuse_shfl_sync and self.sanitizer is not None:
            self.sanitizer.warp_sync_rows(ledger.rows[cnt > 0])
        return old

    def _cas(self, darr, idx, compare, value, w, ledger) -> np.ndarray:
        """The data side of :meth:`atomic_cas_lanes`: old value per lane."""
        if idx.size == 0:
            return np.zeros(0, dtype=darr.data.dtype)
        self._lane_sectors(ledger, "atomic_transactions", darr, idx, w)
        flat = darr.data.reshape(-1)
        order = np.argsort(idx, kind="stable")
        head = run_heads(idx[order])
        if head.all():  # no thread collision: every lane sees the slot
            old = flat[idx]
            hit = old == compare
            flat[idx[hit]] = value[hit]
            return old
        first = order[head]  # per address: its lowest lane
        cur = flat[idx[first]]
        hit = cur == compare
        flat[idx[first[hit]]] = value[first[hit]]
        # every later lane of a run sees the first lane's result
        old = np.empty(idx.size, dtype=darr.data.dtype)
        old[order] = np.repeat(
            np.where(hit, value[first], cur),
            _run_lengths(np.flatnonzero(head), idx.size),
        )
        old[first] = cur
        np.add.at(self.counters.atomic_conflicts, ledger.rows[w[order[~head]]], 1)
        return old

    def atomic_add_lanes(
        self, ledger: LaneLedger, darr: DeviceArray, idx, value, w, lanes
    ) -> None:
        """Integer ``atomicAdd`` of one scalar *value* per lane.

        No old values are materialised (the extension kernels never read
        them), and the data lands at the ledger's next flush: *darr* must
        not be read before :meth:`LaneLedger.flush`.
        """
        if np.ndim(value) != 0:
            raise TypeError(
                "atomic_add_lanes adds one scalar increment to every lane, "
                f"not a per-lane array of shape {np.shape(value)}"
            )
        ledger.issue(w, 1, (("atomic_inst", 1),))
        keep = self._lane_check(
            ledger, darr, idx, w, lanes, "atomic_add_lanes", True, atomic=True
        )
        if keep is not None:
            idx, w = idx[keep], w[keep]
        if idx.size:
            self._lane_sectors(ledger, "atomic_transactions", darr, idx, w)
            ledger.defer_add(darr, idx, value)

    # -- single-lane (walk-mode) variants -----------------------------------------
    #
    # The mer-walk masks down to lane 0, so each row's operand is a scalar:
    # one active lane, 31 predicated slots per instruction.

    def load_lane0(self, darr: DeviceArray, idx, rows, fuse_int: int = 0) -> np.ndarray:
        self._issue(rows, 1 + fuse_int, 1)
        if fuse_int:
            self.counters.int_inst[rows] += fuse_int
        self.counters.global_ld_inst[rows] += 1
        idx = np.asarray(idx, dtype=np.int64)
        self.counters.global_ld_transactions[rows] += self._single_element_transactions(
            darr, idx
        )
        s = self.sanitizer
        if s is None or not s.memcheck:
            self._strict_check(darr, idx, "load_lane0")
        if s is not None:
            keep = s.access(
                darr, idx, np.asarray(rows), 0, write=False, op="load_lane0"
            )
            if keep is not None:
                out = np.zeros(idx.shape, dtype=darr.data.dtype)
                out[keep] = darr.data.reshape(-1)[idx[keep]]
                return out
        return darr.data.reshape(-1)[idx]

    def store_lane0(
        self, darr: DeviceArray, idx, values, rows, fuse_local_store: bool = False
    ) -> None:
        self._issue(rows, 2 if fuse_local_store else 1, 1)
        if fuse_local_store:  # the walk-string bookkeeping store, fused in
            self.counters.local_st_inst[rows] += 1
            self.counters.local_transactions[rows] += 1
        self.counters.global_st_inst[rows] += 1
        idx = np.asarray(idx, dtype=np.int64)
        s = self.sanitizer
        if s is None or not s.memcheck:
            self._strict_check(darr, idx, "store_lane0")
        keep = None
        if s is not None:
            keep = s.access(
                darr, idx, np.asarray(rows), 0, write=True, op="store_lane0"
            )
        if keep is not None:
            darr.data.reshape(-1)[idx[keep]] = (
                np.asarray(values)[keep] if np.ndim(values) else values
            )
        else:
            darr.data.reshape(-1)[idx] = values
        self.counters.global_st_transactions[rows] += self._single_element_transactions(
            darr, idx
        )

    def gather_span_lane0(
        self,
        darr: DeviceArray,
        starts,
        nbytes: int,
        rows,
        word_bytes: int = 8,
        fuse_int: int = 0,
    ) -> None:
        """Single-lane key-stream gather: one span per row, byte offsets."""
        nbytes = int(nbytes)
        if nbytes <= 0:
            return
        n_words = (nbytes + word_bytes - 1) // word_bytes
        self._bulk(rows, n_words + fuse_int, n_words + fuse_int)
        if fuse_int:
            self.counters.int_inst[rows] += fuse_int
        self.counters.global_ld_inst[rows] += n_words
        if self.sanitizer is not None:
            self.sanitizer.byte_gather(
                darr, np.asarray(starts, dtype=np.int64), nbytes,
                np.asarray(rows), 0, op="gather_span_lane0",
            )
        addrs = darr.base_addr + np.asarray(starts, dtype=np.int64)
        w = cached_arange(n_words)
        word_addrs = addrs[:, None] + word_bytes * w[None, :]
        word_len = np.minimum(word_bytes, nbytes - word_bytes * w)
        first = word_addrs // self.sector_bytes
        last = (word_addrs + word_len[None, :] - 1) // self.sector_bytes
        self.counters.global_ld_transactions[rows] += (
            1 + (first != last)
        ).sum(axis=1)

    def atomic_cas_lane0(self, darr: DeviceArray, idx, compare, value, rows) -> np.ndarray:
        """Single-lane CAS per row (rows own disjoint regions; no replays)."""
        self._issue(rows, 1, 1)
        self.counters.atomic_inst[rows] += 1
        idx = np.asarray(idx, dtype=np.int64)
        flat = darr.data.reshape(-1)
        s = self.sanitizer
        keep = None
        if s is None or not s.memcheck:
            self._strict_check(darr, idx, "atomic_cas_lane0")
        if s is not None:
            keep = s.access(
                darr, idx, np.asarray(rows), 0,
                write=True, atomic=True, op="atomic_cas_lane0",
            )
        if keep is not None:
            old = np.zeros(idx.shape, dtype=darr.data.dtype)
            ik = idx[keep]
            cur = flat[ik].copy()
            old[keep] = cur
            hit = cur == compare
            flat[ik[hit]] = (
                np.asarray(value)[keep][hit] if np.ndim(value) else value
            )
        else:
            old = flat[idx].copy()
            hit = old == compare
            flat[idx[hit]] = np.asarray(value)[hit] if np.ndim(value) else value
        self.counters.atomic_transactions[rows] += self._single_element_transactions(
            darr, idx
        )
        return old
