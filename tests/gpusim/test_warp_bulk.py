"""Tests for the bulk/lockstep warp accounting helpers."""

import numpy as np
import pytest

from repro.gpusim.batched import (
    MAX_KEY_GROUPS,
    BatchCounters,
    WarpBatch,
    _per_group_unique,
)
from repro.gpusim.counters import KernelCounters
from repro.gpusim.memory import DeviceAllocator
from repro.gpusim.warp import Warp
from repro.sanitize.sanitizer import Sanitizer


@pytest.fixture
def warp():
    return Warp(KernelCounters())


@pytest.fixture
def alloc():
    return DeviceAllocator(1 << 20)


class TestAccountBulkStore:
    def test_counts(self, warp):
        warp.account_bulk_store(n_inst=100, active_slots=2000, transactions=500)
        c = warp.counters
        assert c.warp_inst == 100
        assert c.thread_inst == 2000
        assert c.predicated_off == 3200 - 2000
        assert c.global_st_inst == 100
        assert c.global_st_transactions == 500


class TestGatherWordBytes:
    def test_byte_granular_many_more_transactions(self, warp, alloc):
        d = alloc.to_device(np.zeros(100_000, dtype=np.uint8))
        starts = np.arange(32, dtype=np.int64) * 3000  # fully scattered

        warp.global_gather_span(d, starts, 24, word_bytes=8)
        word_txn = warp.counters.global_ld_transactions
        word_inst = warp.counters.global_ld_inst
        assert word_inst == 3  # ceil(24/8)
        assert word_txn == 3 * 32  # per word, every lane its own sector

        w2 = Warp(KernelCounters())
        w2.global_gather_span(d, starts, 24, word_bytes=1)
        byte_txn = w2.counters.global_ld_transactions
        byte_inst = w2.counters.global_ld_inst
        assert byte_inst == 24
        # each byte instruction touches up to 32 sectors, but consecutive
        # bytes of a lane share sectors, so per-byte txns stay 32
        assert byte_txn == 24 * 32
        assert byte_txn > word_txn

    def test_single_lane_gather(self, warp, alloc):
        d = alloc.to_device(np.zeros(1000, dtype=np.uint8))
        with warp.single_lane(0):
            warp.global_gather_span(d, np.zeros(32, dtype=np.int64), 21, word_bytes=8)
        c = warp.counters
        assert c.global_ld_inst == 3
        # 21 contiguous bytes from one lane: 1 sector per word access
        assert c.global_ld_transactions <= 4
        assert c.predication_ratio > 0.9

    def test_zero_bytes_free(self, warp, alloc):
        d = alloc.to_device(np.zeros(10, dtype=np.uint8))
        warp.global_gather_span(d, np.zeros(32, dtype=np.int64), 0)
        assert warp.counters.warp_inst == 0


def _seq_counters(n_warps, op):
    """Per-warp sequential counters: ``op(warp, w)`` drives warp *w*."""
    out = []
    for w in range(n_warps):
        warp = Warp(KernelCounters())
        op(warp, w)
        out.append(warp.counters)
    return out


def _assert_per_warp_equal(batch_counters, seq):
    for w, c in enumerate(seq):
        for name in BatchCounters._names:
            assert int(getattr(batch_counters, name)[w]) == getattr(c, name), name
        assert int(batch_counters.atomic_conflicts[w]) == c.labels.get(
            "atomic_conflicts", 0
        )


class TestFlatLanePrimitives:
    """The flat lane-list ops of WarpBatch account exactly like the
    sequential Warp ops on each warp's lanes, through a LaneLedger."""

    @pytest.fixture
    def lanes(self):
        # warp 0: lanes 0-9, warp 1: lanes 3, 5, 31 (ascending per warp)
        w = np.array([0] * 10 + [1, 1, 1], dtype=np.int64)
        lane = np.concatenate([np.arange(10), [3, 5, 31]]).astype(np.int64)
        return w, lane

    @staticmethod
    def _mask(lane, w, which):
        m = np.zeros(32, dtype=bool)
        m[lane[w == which]] = True
        return m

    def test_atomic_add_scalar_matches_sequential(self, alloc, lanes):
        w, lane = lanes
        # duplicates inside warp 0 and a sector shared by neighbours
        idx = np.array([0, 0, 1, 9, 9, 9, 2, 3, 40, 41, 100, 100, 64])
        d = alloc.to_device(np.zeros(128, dtype=np.uint32))
        wb = WarpBatch(BatchCounters(2))
        ledger = wb.ledger(np.arange(2))
        _ = wb.atomic_add_lanes(ledger, d, idx, 1, w, lane)
        assert not d.data.any()  # the add lands at the flush
        ledger.flush()
        assert d.data.tolist() == np.bincount(idx, minlength=128).tolist()

        ref = alloc.to_device(np.zeros(128, dtype=np.uint32))

        def op(warp, which):
            full = np.zeros(32, dtype=np.int64)
            full[lane[w == which]] = idx[w == which]
            with warp.where(self._mask(lane, w, which)):
                _ = warp.atomic_add(ref, full, 1)

        _assert_per_warp_equal(wb.counters, _seq_counters(2, op))
        assert ref.data.tolist() == d.data.tolist()

    def test_atomic_add_rejects_per_lane_values(self, alloc, lanes):
        w, lane = lanes
        d = alloc.to_device(np.zeros(128, dtype=np.uint32))
        wb = WarpBatch(BatchCounters(2))
        ledger = wb.ledger(np.arange(2))
        with pytest.raises(TypeError, match="scalar"):
            _ = wb.atomic_add_lanes(
                ledger, d, np.arange(w.size), np.arange(w.size), w, lane
            )

    def test_atomic_cas_duplicate_runs(self, alloc, lanes):
        w, lane = lanes
        idx = np.array([5, 5, 5, 6, 7, 7, 8, 9, 10, 11, 30, 30, 31])
        value = np.arange(idx.size, dtype=np.int64) + 100
        d = alloc.to_device(np.full(64, -1, dtype=np.int64))
        d.data[8] = 7  # occupied: that lane's CAS fails
        wb = WarpBatch(BatchCounters(2))
        ledger = wb.ledger(np.arange(2))
        old = wb.atomic_cas_lanes(
            ledger, d, idx, -1, value, w, lane, fuse_shfl_sync=True
        )
        ledger.flush()

        ref = alloc.to_device(np.full(64, -1, dtype=np.int64))
        ref.data[8] = 7
        ref_old = np.zeros(idx.size, dtype=np.int64)

        def op(warp, which):
            sel = w == which
            full_i = np.zeros(32, dtype=np.int64)
            full_v = np.zeros(32, dtype=np.int64)
            full_i[lane[sel]] = idx[sel]
            full_v[lane[sel]] = value[sel]
            with warp.where(self._mask(lane, w, which)):
                warp.match_any(full_i)
                got = warp.atomic_cas(ref, full_i, -1, full_v)
                warp.sync()
            ref_old[sel] = got[lane[sel]]

        _assert_per_warp_equal(wb.counters, _seq_counters(2, op))
        assert old.tolist() == ref_old.tolist()
        assert d.data.tolist() == ref.data.tolist()
        # first lane of each run wins; later ones see its value
        assert old[:3].tolist() == [-1, 100, 100]

    def test_load_and_gather_match_sequential(self, alloc, lanes):
        w, lane = lanes
        d = alloc.to_device(np.arange(200, dtype=np.int64))
        idx = np.array([0, 1, 2, 3, 17, 17, 40, 41, 42, 90, 4, 100, 199])
        buf = alloc.to_device(np.zeros(5000, dtype=np.uint8))
        starts = np.array([0, 8, 30, 31, 64, 64, 1000, 999, 20, 3, 5, 4000, 4020])
        wb = WarpBatch(BatchCounters(2))
        ledger = wb.ledger(np.arange(2))
        vals = wb.load_lanes(ledger, d, idx, w, lane, fuse_int=2, fuse_control=1)
        wb.gather_span_lanes(ledger, buf, starts, 21, w, lane, fuse_int=3)
        ledger.flush()
        assert vals.tolist() == idx.tolist()

        def op(warp, which):
            sel = w == which
            full_i = np.zeros(32, dtype=np.int64)
            full_s = np.zeros(32, dtype=np.int64)
            full_i[lane[sel]] = idx[sel]
            full_s[lane[sel]] = starts[sel]
            with warp.where(self._mask(lane, w, which)):
                warp.int_op(2)
                warp.global_load(d, full_i)
                warp.control_op(1)
                warp.global_gather_span(buf, full_s, 21)
                warp.int_op(3)

        _assert_per_warp_equal(wb.counters, _seq_counters(2, op))

    def test_memcheck_suppresses_faulting_lanes(self, alloc, lanes):
        w, lane = lanes
        san = Sanitizer("memcheck")
        d = alloc.to_device(np.arange(16, dtype=np.int64))
        tally = alloc.to_device(np.zeros(16, dtype=np.uint32))
        wb = WarpBatch(BatchCounters(2), sanitizer=san)
        ledger = wb.ledger(np.arange(2))
        idx = np.arange(w.size, dtype=np.int64)
        idx[11] = 999  # warp 1, lane 5
        vals = wb.load_lanes(ledger, d, idx, w, lane)
        _ = wb.atomic_add_lanes(ledger, tally, idx, 1, w, lane)
        ledger.flush()
        assert vals[11] == 0
        assert np.delete(vals, 11).tolist() == np.delete(idx, 11).tolist()
        assert tally.data.tolist() == [1] * 11 + [0, 1] + [0] * 3
        errs = san.report().errors
        assert [(e.kind, e.warp, e.lane) for e in errs] == [
            ("oob_load", 1, 5), ("oob_store", 1, 5)
        ]
        # the suppressed lane still issued, but moved no sector
        assert wb.counters.thread_inst.tolist() == [20, 6]
        assert wb.counters.atomic_transactions.tolist() == [2, 1]

    def test_ledger_flushes_before_key_groups_wrap(self, alloc):
        # 2^16 warps x 5 calls = 5 * 2^16 (call, warp) groups > 2^18, with
        # too few keys to fill the budget: the ledger must flush between
        # calls on the group bound alone, not wrap the sort keys
        n = 1 << 16
        d = alloc.to_device(np.zeros(64, dtype=np.int64))
        wb = WarpBatch(BatchCounters(n))
        ledger = wb.ledger(np.arange(n))
        w = np.array([7, 7, n - 1], dtype=np.int64)
        for call in range(5):
            idx = np.array([0, 5, 40 + call], dtype=np.int64)
            wb.load_lanes(ledger, d, idx, w, np.arange(3, dtype=np.int64))
        # the fifth call's groups would pass 2^18: the first four flushed
        assert wb.counters.global_ld_transactions[[7, n - 1]].tolist() == [8, 4]
        ledger.flush()
        assert wb.counters.global_ld_transactions[[7, n - 1]].tolist() == [10, 5]
        assert wb.counters.global_ld_inst[[7, n - 1]].tolist() == [5, 5]
        assert wb.counters.global_ld_transactions.sum() == 15


class TestCompositeKeyBound:
    def test_max_groups_count_exactly(self):
        n = MAX_KEY_GROUPS
        groups = np.repeat(np.arange(n, dtype=np.int64), 2)
        values = np.tile(np.array([7, 7], dtype=np.int64), n)
        values[1::4] = 9  # even groups see two distinct values
        counts = _per_group_unique(n, groups, values)
        assert counts[0::2].tolist() == [2] * (n // 2)
        assert counts[1::2].tolist() == [1] * (n // 2)
        # the top group id keeps its own count (no wrap into group 0)
        assert counts[-1] == 1

    def test_one_group_more_raises(self):
        n = MAX_KEY_GROUPS + 1
        groups = np.arange(n, dtype=np.int64)
        with pytest.raises(OverflowError):
            _per_group_unique(n, groups, np.zeros(n, dtype=np.int64))
