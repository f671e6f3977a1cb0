"""Alignment stage: map reads onto contigs, recruit contig-end candidates.

This stage feeds the paper's local assembly: "the reads that align to the
ends of contigs are then used for extending the contigs in both directions"
(§2.2).  It also produces the per-read placements the scaffolder uses.

Method (seed-and-extend, as in MHM2's klign) — fully batched:

1. pack every ``seed_len``-mer of every contig into sorted uint64 rows
   (:class:`PackedSeedIndex`, the same 2-bit layout as
   :class:`~repro.pipeline.kmer_counts.KmerSpectrum`);
2. extract all seeds of all reads — both strands — in **one** windowing
   pass over the concatenated base array, look them up with one
   ``searchsorted`` pair, and expand the hit ranges to
   ``(read, strand, contig, diagonal)`` candidates;
3. dedup candidates per (read, strand) diagonal with one ``lexsort`` and
   score every survivor with the batched ungapped kernel
   (:func:`repro.pipeline.aln_kernel.ungapped_align_batch`); keep
   alignments above identity and overlap thresholds;
4. a read whose projection hangs off a contig edge becomes a *candidate
   read* for that end, stored pre-oriented so local assembly can treat
   every extension as "extend rightward":

   * right end: read oriented to contig strand;
   * left end: reverse complement of that (because local assembly extends
     the left end by walking right on the reverse-complemented contig).

Each end keeps at most ``max_reads_per_end`` candidates — the paper's
empirical cap of 3000 (§3.1).

The pre-batch scalar implementation is retained as
:func:`align_reads_scalar` (with its :class:`SeedIndex`): it is the
reference the batched path must match **bit for bit** — same alignments,
same ``n_seed_hits``, same candidate reads in the same order — so that
downstream local assembly is unaffected by the rewrite.  The property
suite in ``tests/pipeline/test_alignment_batched.py`` enforces this.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.perf import HostProfiler
from repro.pipeline.aln_kernel import AlnScore, ungapped_align, ungapped_align_batch
from repro.pipeline.contigs import ContigSet
from repro.sequence.dna import encode, revcomp_codes
from repro.sequence.kmer import pack_kmers, rows_as_keys, valid_kmer_mask, words_per_kmer
from repro.sequence.read import ReadBatch

__all__ = [
    "ReadAlignment",
    "CandidateReads",
    "ContigCandidates",
    "AlignmentResult",
    "SeedIndex",
    "PackedSeedIndex",
    "AlnRows",
    "align_reads",
    "align_reads_scalar",
    "align_core",
    "materialise_alignment",
    "recruit_flags",
]

#: The paper's empirical upper limit on candidate reads per contig end.
MAX_READS_PER_END = 3000

#: shared disabled profiler — `with _NULL_PROFILER.phase(...)` is a no-op.
_NULL_PROFILER = HostProfiler(enabled=False)


@dataclass(frozen=True)
class ReadAlignment:
    """Best placement of one read on one contig."""

    read_idx: int
    cid: int
    #: contig coordinate of oriented-read position 0 (may be negative)
    offset: int
    #: True when the read aligned as its reverse complement
    is_rc: bool
    matches: int
    mismatches: int
    ov_len: int

    @property
    def identity(self) -> float:
        return self.matches / self.ov_len if self.ov_len else 0.0


@dataclass
class CandidateReads:
    """Candidate reads for one contig end, pre-oriented for extension."""

    seqs: list[np.ndarray] = field(default_factory=list)
    quals: list[np.ndarray] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.seqs)

    def add(self, seq: np.ndarray, qual: np.ndarray) -> None:
        self.seqs.append(seq)
        self.quals.append(qual)


@dataclass
class ContigCandidates:
    """Per-contig recruitment for local assembly."""

    cid: int
    left: CandidateReads = field(default_factory=CandidateReads)
    right: CandidateReads = field(default_factory=CandidateReads)

    @property
    def n_reads(self) -> int:
        return len(self.left) + len(self.right)


@dataclass
class AlignmentResult:
    """Everything the downstream stages need."""

    alignments: list[ReadAlignment]
    candidates: dict[int, ContigCandidates]
    n_reads_aligned: int
    n_seed_hits: int

    def best_by_read(self) -> dict[int, ReadAlignment]:
        """Best alignment per read (highest matches)."""
        best: dict[int, ReadAlignment] = {}
        for a in self.alignments:
            cur = best.get(a.read_idx)
            if cur is None or a.matches > cur.matches:
                best[a.read_idx] = a
        return best


class SeedIndex:
    """Exact-position index of all seed-length k-mers of a contig set.

    The original bytes-dict form, retained for the scalar reference path
    (:func:`align_reads_scalar`); the batched aligner uses
    :class:`PackedSeedIndex`.
    """

    def __init__(self, contigs: ContigSet, seed_len: int = 17, stride: int = 1) -> None:
        if seed_len < 8:
            raise ValueError("seed_len must be >= 8")
        self.seed_len = seed_len
        self.stride = stride
        self._index: dict[bytes, list[tuple[int, int]]] = defaultdict(list)
        self.contig_codes: dict[int, np.ndarray] = {}
        for c in contigs:
            codes = encode(c.seq)
            self.contig_codes[c.cid] = codes
            valid = valid_kmer_mask(codes, seed_len)
            for pos in range(0, codes.size - seed_len + 1, stride):
                if not valid[pos]:
                    continue
                window = codes[pos : pos + seed_len]
                self._index[window.tobytes()].append((c.cid, pos))

    def hits(self, seed: np.ndarray) -> list[tuple[int, int]]:
        return self._index.get(seed.tobytes(), [])

    def __len__(self) -> int:
        return len(self._index)


#: Bits of the seed key used for the direct-address bucket table.
_BUCKET_BITS = 16
_BUCKET_BITS_MAX = 22


def _run_ends(keys: np.ndarray) -> np.ndarray:
    """For sorted *keys*, the one-past-the-end index of each row's run."""
    t = keys.size
    if t == 0:
        return np.empty(0, dtype=np.int64)
    head = np.ones(t, dtype=bool)
    head[1:] = keys[1:] != keys[:-1]
    starts = np.nonzero(head)[0]
    ends = np.append(starts[1:], t)
    return np.repeat(ends, np.diff(np.append(starts, t)))


class PackedSeedIndex:
    """Sorted packed-word seed table over a contig set.

    Every valid ``seed_len``-window of every contig becomes one row of a
    ``(n_seeds, words_per_kmer(seed_len))`` uint64 table (2-bit packed,
    the :class:`~repro.pipeline.kmer_counts.KmerSpectrum` layout), sorted
    by (seed, contig slot, position).  Lookups are two ``searchsorted``
    calls over the whole query block; the hit list of a seed is a
    contiguous slice enumerating (contig insertion order, position
    ascending) — exactly the order the legacy dict produced.

    The index is five flat arrays (``words``, ``slot``, ``pos``,
    ``cbases``, ``coff``) plus the slot→cid map; alignment ranks read the
    parent's copy, inherited through fork.
    """

    def __init__(
        self, contigs: ContigSet, seed_len: int = 17, stride: int = 1
    ) -> None:
        if seed_len < 8:
            raise ValueError("seed_len must be >= 8")
        codes = [encode(c.seq) for c in contigs]
        cids = np.array([c.cid for c in contigs], dtype=np.int64)
        cbases = (
            np.concatenate(codes) if codes else np.empty(0, dtype=np.uint8)
        )
        coff = np.zeros(len(codes) + 1, dtype=np.int64)
        if codes:
            np.cumsum([c.size for c in codes], out=coff[1:])
        self.seed_len = seed_len
        self.stride = stride
        self.cids = cids
        self.cbases = cbases
        self.coff = coff
        nw = words_per_kmer(seed_len)
        n_win = cbases.size - seed_len + 1
        if n_win <= 0 or cids.size == 0:
            self.words = np.empty((0, nw), dtype=np.uint64)
            self.slot = np.empty(0, dtype=np.int32)
            self.pos = np.empty(0, dtype=np.int32)
            self._keys = rows_as_keys(self.words)
            self._run_end = np.empty(0, dtype=np.int64)
            self._build_buckets()
            return
        words, no_n = pack_kmers(cbases, seed_len)
        slot_of_base = np.repeat(
            np.arange(cids.size, dtype=np.int64), np.diff(coff)
        )
        win_slot = slot_of_base[:n_win]
        same = win_slot == slot_of_base[seed_len - 1 :]
        pos = np.arange(n_win, dtype=np.int64) - coff[win_slot]
        valid = no_n & same
        if stride > 1:
            valid &= pos % stride == 0
        sel = np.nonzero(valid)[0]
        keys = rows_as_keys(words[sel])
        order = np.lexsort((pos[sel], win_slot[sel], keys))
        picked = sel[order]
        self.words = np.ascontiguousarray(words[picked])
        # int32 columns: seed hits gather these per hit, and the narrower
        # rows halve the expansion phase's memory traffic.
        self.slot = win_slot[picked].astype(np.int32)
        self.pos = pos[picked].astype(np.int32)
        self._keys = rows_as_keys(self.words)
        self._run_end = _run_ends(self._keys)
        self._build_buckets()

    def _build_buckets(self) -> None:
        """Distinct-key table + direct-address buckets over its top bits.

        The searchable array holds each *distinct* seed once
        (``_dkeys``, sentinel-padded), with ``_dstart[i]`` the start of
        key *i*'s run in the full table (``_dstart[i+1]`` its end).
        ``_bstart[b]`` bounds bucket *b* of the distinct array, so a
        query binary-searches only the handful of distinct keys sharing
        its top ``_BUCKET_BITS`` bits — ~3 probe levels on cache-warm
        rows instead of ~19 over the whole table.  Only built for
        single-word keys; multi-word (S-dtype) keys fall back to full
        ``searchsorted``.
        """
        if self._keys.dtype != np.uint64:
            self._bstart = None
            return
        t = self._keys.size
        if t == 0:
            dkeys = np.empty(0, dtype=np.uint64)
            dstart = np.zeros(1, dtype=np.int64)
        else:
            head = np.ones(t, dtype=bool)
            head[1:] = self._keys[1:] != self._keys[:-1]
            start = np.nonzero(head)[0]
            dkeys = self._keys[start]
            dstart = np.append(start, t)
        self._dkeys = np.append(dkeys, np.uint64(0xFFFFFFFFFFFFFFFF))
        # One pad entry beyond the sentinel slot so ``_dstart[pos + 1]``
        # is in bounds even when a query lands on the sentinel.  int32
        # bounds (the table always fits): the per-query gathers below are
        # random-access, so narrower rows mean fewer cache misses.
        self._dstart = np.append(dstart, dstart[-1]).astype(np.int32)
        self._n_distinct = int(dkeys.size)
        # Oversubscribe buckets ~8x over the distinct keys (capped) so the
        # expected bucket holds 0-1 keys and the search needs ~1-2 rounds.
        bits = _BUCKET_BITS
        while bits < _BUCKET_BITS_MAX and (1 << bits) < 8 * dkeys.size:
            bits += 1
        self._bucket_bits = bits
        shift = np.uint64(64 - bits)
        bounds = np.arange(1 << bits, dtype=np.uint64) << shift
        bstart = np.searchsorted(dkeys, bounds, side="left")
        self._bstart = np.append(bstart, dkeys.size).astype(np.int32)
        widths = self._bstart[1:] - self._bstart[:-1]
        self._bucket_width = int(widths.max(initial=0))
        self._bucket_rounds = max(self._bucket_width, 1).bit_length()

    def lookup_ranges(self, qwords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) table ranges of each query row; hits are
        ``slot[lo:hi]`` / ``pos[lo:hi]`` in canonical order.

        Each query resolves to its run start (bucketed search for
        single-word keys, plain left-``searchsorted`` otherwise); the run
        *end* is a precomputed gather (``_run_end``), so misses fall out
        as ``hi == lo`` without a second binary search.
        """
        qkeys = rows_as_keys(qwords)
        t = self._keys.size
        if t == 0:
            z = np.zeros(qkeys.size, dtype=np.int64)
            return z, z
        if self._bstart is None:
            lo = np.searchsorted(self._keys, qkeys, side="left")
            at = np.minimum(lo, t - 1)
            hit = self._keys[at] == qkeys
            return lo, np.where(hit, self._run_end[at], lo)
        # Bucketed search over the distinct keys, bounded per query by its
        # direct-address bucket, with no per-round activity mask (the
        # sentinel pad makes converged lanes self-stabilising).  The two
        # scratch buffers are reused across rounds — fresh query-sized
        # temporaries cost a page-fault sweep each at this size.
        dkeys = self._dkeys
        qb = (qkeys >> np.uint64(64 - self._bucket_bits)).view(np.int64)
        pos = self._bstart[qb]
        kbuf = np.empty(qkeys.size, dtype=np.uint64)
        cbuf = np.empty(qkeys.size, dtype=bool)
        if self._bucket_width <= 6:
            # Narrow buckets: advance while dkeys[pos] < q — no hi bound
            # needed (the next bucket's keys exceed q's bucket prefix, so
            # the walk self-terminates).  Buckets are ~8x oversubscribed,
            # so the first probe settles almost every lane: its equality
            # doubles as the hit test, and only the still-less lanes are
            # compressed to a dense subset that finishes the walk (and
            # redoes its equality) at subset cost.
            np.take(dkeys, pos, out=kbuf)
            np.less(kbuf, qkeys, out=cbuf)
            eq = kbuf == qkeys
            if self._bucket_width > 1 and cbuf.any():
                act = np.nonzero(cbuf)[0]
                qa = qkeys[act]
                pa = pos[act]
                pa += 1
                for _ in range(self._bucket_width - 1):
                    adv = dkeys[pa] < qa
                    if not adv.any():
                        break
                    pa += adv
                pos[act] = pa
                eq[act] = dkeys[pa] == qa
            cbuf = eq
        else:
            qb += 1
            hi = self._bstart[qb]
            for _ in range(self._bucket_rounds):
                mid = (pos + hi) >> 1
                np.take(dkeys, mid, out=kbuf)
                np.less(kbuf, qkeys, out=cbuf)
                pos = np.where(cbuf, mid + 1, pos)
                hi = np.where(cbuf, hi, mid)
            np.take(dkeys, pos, out=kbuf)
            np.equal(kbuf, qkeys, out=cbuf)
        if self.seed_len == 32:
            # Only a 32-mer can pack to the all-ones sentinel value; for
            # shorter seeds the low pad bits are zero and the extra guard
            # pass is dead weight.
            cbuf &= pos < self._n_distinct
        # Gather run bounds for hit lanes only; misses report the empty
        # range (0, 0), which is all any caller consumes (``hi - lo``).
        hit = np.nonzero(cbuf)[0]
        lo = np.zeros(qkeys.size, dtype=np.int64)
        hi = np.zeros(qkeys.size, dtype=np.int64)
        ph = pos[hit]
        lo[hit] = self._dstart[ph]
        ph += 1
        hi[hit] = self._dstart[ph]
        return lo, hi

    def __len__(self) -> int:
        return int(self.slot.size)


def _recruit(
    cand: ContigCandidates,
    aln: AlnScore,
    contig_len: int,
    oriented_seq: np.ndarray,
    oriented_qual: np.ndarray,
    max_reads_per_end: int,
) -> None:
    """File an aligned read under the contig end(s) it hangs off."""
    projected_start = aln.offset
    projected_end = aln.offset + oriented_seq.size
    if projected_start < 0 and len(cand.left) < max_reads_per_end:
        # Left-end candidate: flip so extension walks rightward on rc(contig).
        cand.left.add(revcomp_codes(oriented_seq), oriented_qual[::-1].copy())
    if projected_end > contig_len and len(cand.right) < max_reads_per_end:
        cand.right.add(oriented_seq, oriented_qual)


def align_reads_scalar(
    contigs: ContigSet,
    reads: ReadBatch,
    seed_len: int = 17,
    read_seed_stride: int = 8,
    min_identity: float = 0.9,
    min_overlap: int = 30,
    max_reads_per_end: int = MAX_READS_PER_END,
) -> AlignmentResult:
    """Reference scalar aligner (read × strand × seed Python loops).

    Kept verbatim from the pre-batch implementation: the batched
    :func:`align_reads` must reproduce its output exactly, and the bench
    measures the two against each other in the same run.
    """
    index = SeedIndex(contigs, seed_len=seed_len)
    contig_len = {c.cid: len(c.seq) for c in contigs}
    candidates = {c.cid: ContigCandidates(cid=c.cid) for c in contigs}
    alignments: list[ReadAlignment] = []
    n_seed_hits = 0
    n_aligned = 0

    for ridx in range(len(reads)):
        fwd = reads.codes(ridx)
        fq = reads.qual_codes(ridx)
        if fwd.size < seed_len:
            continue
        best_per_contig: dict[int, tuple[AlnScore, bool]] = {}
        for is_rc in (False, True):
            oriented = revcomp_codes(fwd) if is_rc else fwd
            # one O(n) pass replaces a per-seed N scan
            valid_seed = valid_kmer_mask(oriented, seed_len)
            seen_diag: set[tuple[int, int]] = set()
            for rpos in range(0, oriented.size - seed_len + 1, read_seed_stride):
                if not valid_seed[rpos]:
                    continue
                seed = oriented[rpos : rpos + seed_len]
                for cid, cpos in index.hits(seed):
                    n_seed_hits += 1
                    diag = (cid, cpos - rpos)
                    if diag in seen_diag:
                        continue
                    seen_diag.add(diag)
                    aln = ungapped_align(index.contig_codes[cid], oriented, cpos, rpos)
                    if aln.ov_len < min_overlap or aln.identity < min_identity:
                        continue
                    cur = best_per_contig.get(cid)
                    if cur is None or aln.matches > cur[0].matches:
                        best_per_contig[cid] = (aln, is_rc)
        if not best_per_contig:
            continue
        n_aligned += 1
        for cid, (aln, is_rc) in best_per_contig.items():
            oriented = revcomp_codes(fwd) if is_rc else fwd
            oq = fq[::-1].copy() if is_rc else fq
            alignments.append(
                ReadAlignment(
                    read_idx=ridx,
                    cid=cid,
                    offset=aln.offset,
                    is_rc=is_rc,
                    matches=aln.matches,
                    mismatches=aln.mismatches,
                    ov_len=aln.ov_len,
                )
            )
            _recruit(
                candidates[cid], aln, contig_len[cid], oriented, oq, max_reads_per_end
            )

    return AlignmentResult(
        alignments=alignments,
        candidates=candidates,
        n_reads_aligned=n_aligned,
        n_seed_hits=n_seed_hits,
    )


# --------------------------------------------------------------------------
# Batched path
# --------------------------------------------------------------------------


@dataclass
class AlnRows:
    """Winner alignments as flat arrays, in global emission order.

    One row per (read, contig) winner, sorted by (``read`` ascending,
    ``seq_in_read`` ascending) — the exact order the scalar reference
    emits :class:`ReadAlignment` objects.  ``seq_in_read`` is the rank of
    the row within its read's emission (0, 1, 2, …), which makes the
    order reconstructible after rows have been scattered across ranks
    and merged back.
    """

    read: np.ndarray
    seq_in_read: np.ndarray
    cid: np.ndarray
    offset: np.ndarray
    is_rc: np.ndarray
    matches: np.ndarray
    mismatches: np.ndarray
    ov_len: np.ndarray
    n_seed_hits: int
    n_reads_aligned: int

    def __len__(self) -> int:
        return int(self.read.size)

    @staticmethod
    def empty(n_seed_hits: int = 0) -> "AlnRows":
        z = np.empty(0, dtype=np.int64)
        return AlnRows(z, z, z, z, z.astype(bool), z, z, z, n_seed_hits, 0)


def _oriented_layout(
    reads: ReadBatch,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenated oriented bases/quals plus per-unit offsets.

    Unit ``u < n`` is read *u* forward; the reverse-complement section is
    one global ``revcomp_codes`` of the whole base array, which reverses
    read order — unit ``n + j`` is the rc of read ``n - 1 - j``, i.e. the
    rc of read *i* is unit ``2n - 1 - i``.  ``big_quals`` mirrors the
    layout (global reversal), so unit views give oriented quals too.
    """
    off = reads.offsets.astype(np.int64)
    nb = int(off[-1])
    big = np.concatenate([reads.bases, revcomp_codes(reads.bases)])
    big_quals = np.concatenate([reads.quals, reads.quals[::-1]])
    uoff = np.concatenate([off[:-1], nb + nb - off[::-1]])
    return big, big_quals, uoff


def align_core(
    index: PackedSeedIndex,
    reads: ReadBatch,
    read_seed_stride: int = 8,
    min_identity: float = 0.9,
    min_overlap: int = 30,
    read_base: int = 0,
    layout: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    profile: "HostProfiler | None" = None,
) -> AlnRows:
    """Seed, dedup, score and select winners — all as array passes.

    *read_base* is added to every emitted read index, so a rank holding a
    contiguous shard of a larger batch reports global read ids.  *layout*
    lets the caller share one :func:`_oriented_layout` with
    :func:`materialise_alignment`.  *profile*, if given, records the
    :data:`repro.perf.ALN_PHASES` phase breakdown.
    """
    prof = profile if profile is not None else _NULL_PROFILER
    n = len(reads)
    seed_len = index.seed_len
    big, _, uoff = layout if layout is not None else _oriented_layout(reads)
    if n == 0 or big.size < seed_len or len(index) == 0:
        return AlnRows.empty()

    # 1) every seed of every read, both strands, one windowing pass
    with prof.phase("aln_seed"):
        words, no_n = pack_kmers(big, seed_len)
        ulens = np.diff(uoff)
        # int32 unit ids: halves the repeat/compare traffic of the three
        # n_win-sized passes below (2n units always fit)
        unit_of_base = np.repeat(np.arange(2 * n, dtype=np.int32), ulens)
        n_win = big.size - seed_len + 1
        win_unit = unit_of_base[:n_win]
        same_unit = win_unit == unit_of_base[seed_len - 1 :]
        # int32 window positions (repeat of unit starts — no gather)
        rpos = np.arange(n_win, dtype=np.int32)
        rpos -= np.repeat(uoff.astype(np.int32)[:-1], ulens)[:n_win]
        valid = no_n & same_unit
        if read_seed_stride > 1:
            valid &= rpos % read_seed_stride == 0
        n_valid = int(np.count_nonzero(valid))
    if n_valid == 0:
        return AlnRows.empty()

    # 2) batched lookup + range expansion to individual hits
    with prof.phase("aln_lookup"):
        dense = n_valid * 10 >= n_win * 9
        if dense:
            # Nearly every window is a query (stride 1) — look them all
            # up and mask, instead of paying the index build + big gather
            # of words[widx] (widx itself is a 3M-row temporary here).
            lo, hi = index.lookup_ranges(words)
            cnt = hi - lo
            if n_valid != n_win:
                cnt *= valid
        else:
            widx = np.nonzero(valid)[0]
            lo, hi = index.lookup_ranges(words[widx])
            cnt = hi - lo
        m = int(cnt.sum())
    if m == 0:
        return AlnRows.empty()
    with prof.phase("aln_expand"):
        whit = np.nonzero(cnt)[0]
        cnt_h = cnt[whit]
        hit_w = whit if dense else widx[whit]
        w_unit = win_unit[hit_w]
        w_rpos = rpos[hit_w]
        w_of_hit = np.repeat(np.arange(cnt_h.size, dtype=np.int64), cnt_h)
        ends = np.cumsum(cnt_h)
        # one fused repeat: table start minus run start, then +arange
        hit_idx = np.repeat(lo[whit] - ends + cnt_h, cnt_h)
        hit_idx += np.arange(m, dtype=np.int64)
        h_slot = index.slot[hit_idx]
        h_cpos = index.pos[hit_idx]
        h_unit = w_unit[w_of_hit]
        h_rpos = w_rpos[w_of_hit]
        diag = h_cpos - h_rpos

        # Encounter rank of every hit — O(m), no sort.  The scalar loops
        # visit hits as (read asc, fwd before rc, rpos asc, table order).
        # Natural hit order here is unit-ascending (fwd units are reads
        # ascending; rc units are reads DESCENDING) with the within-unit
        # order (rpos asc, table order) already equal to the encounter
        # order, so the rank is a per-unit encounter base plus the
        # within-unit position.
        cnt_u = np.bincount(h_unit, minlength=2 * n)
        ustart = np.cumsum(cnt_u) - cnt_u  # natural start of each unit
        units = np.arange(2 * n, dtype=np.int64)
        g_of_unit = np.where(units < n, 2 * units, 2 * (2 * n - 1 - units) + 1)
        s_g = np.zeros(2 * n, dtype=np.int64)
        s_g[g_of_unit] = cnt_u
        enc_base = (np.cumsum(s_g) - s_g)[g_of_unit]  # encounter start
        enc = (enc_base - ustart)[h_unit] + np.arange(m, dtype=np.int64)

    # 3) dedup: first encounter of each (read, strand, contig, diagonal).
    # Each dedup group lives inside one oriented unit, and within a unit
    # the natural order IS the encounter order — so one stable sort on a
    # composite (unit, slot, diagonal) key leaves the scalar's "first
    # kept" hit as each run head.
    with prof.phase("aln_dedup"):
        dmin = int(diag.min())
        dspan = int(diag.max()) - dmin
        ubits = max(2 * n - 1, 1).bit_length()
        sbits = max(int(h_slot.max(initial=0)), 1).bit_length()
        dbits = max(dspan, 1).bit_length()
        if ubits + sbits + dbits <= 63:
            key = (
                (h_unit.astype(np.uint64) << np.uint64(sbits + dbits))
                | (h_slot.astype(np.uint64) << np.uint64(dbits))
                | (diag - dmin).astype(np.uint64)
            )
            ord2 = np.argsort(key, kind="stable")
            k2 = key[ord2]
            head = np.ones(m, dtype=bool)
            head[1:] = k2[1:] != k2[:-1]
        else:  # composite key would overflow — sort the columns
            ord2 = np.lexsort((diag, h_slot, h_unit))
            un2, sl2, dg2 = h_unit[ord2], h_slot[ord2], diag[ord2]
            head = np.ones(m, dtype=bool)
            head[1:] = (
                (un2[1:] != un2[:-1])
                | (sl2[1:] != sl2[:-1])
                | (dg2[1:] != dg2[:-1])
            )
        idx_d = ord2[head]  # surviving hits, as natural indices

    # 4) score all surviving diagonals in one batch
    with prof.phase("aln_score"):
        slot_d = h_slot[idx_d]
        unit_d = h_unit[idx_d]
        diag_d = diag[idx_d]
        enc_d = enc[idx_d]
        ov_start, ov_end, matches = ungapped_align_batch(
            index.cbases, index.coff, big, uoff, slot_d, unit_d, diag_d
        )
        ov_len = ov_end - ov_start
        identity = np.where(ov_len > 0, matches / np.maximum(ov_len, 1), 0.0)
        ok = (ov_len >= min_overlap) & (identity >= min_identity)
    if not np.any(ok):
        return AlnRows.empty(n_seed_hits=m)

    with prof.phase("aln_select"):
        p_enc = enc_d[ok]
        p_unit = unit_d[ok]
        p_read = np.where(p_unit < n, p_unit, 2 * n - 1 - p_unit)
        p_rc = p_unit >= n
        p_slot = slot_d[ok]
        p_diag = diag_d[ok]
        p_match = matches[ok]
        p_ov = ov_len[ok]

        # winner per (read, contig): max matches, ties to earliest
        # encounter (the scalar dict replaces only on strictly-greater)
        ord3 = np.lexsort((p_enc, p_slot, p_read))
        r3, s3, e3, m3 = p_read[ord3], p_slot[ord3], p_enc[ord3], p_match[ord3]
        ghead = np.ones(r3.size, dtype=bool)
        ghead[1:] = (r3[1:] != r3[:-1]) | (s3[1:] != s3[:-1])
        gstart = np.nonzero(ghead)[0]
        gid = np.cumsum(ghead) - 1
        gmax = np.maximum.reduceat(m3, gstart)
        at_max = np.where(m3 == gmax[gid], np.arange(r3.size), r3.size)
        gwin = np.minimum.reduceat(at_max, gstart)

        # emission order: reads ascending, then by the first *passing*
        # encounter per contig (scalar dict insertion order)
        first_enc = e3[gstart]
        g_read = r3[gstart]
        gorder = np.lexsort((first_enc, g_read))
        win = gwin[gorder]
        gr = g_read[gorder]
        rhead = np.ones(gr.size, dtype=bool)
        rhead[1:] = gr[1:] != gr[:-1]
        rstart = np.nonzero(rhead)[0]
        run_len = np.diff(np.append(rstart, gr.size))
        seq_in_read = np.arange(gr.size, dtype=np.int64) - np.repeat(rstart, run_len)

    win_ov = p_ov[ord3][win]
    win_match = m3[win]
    return AlnRows(
        read=gr.astype(np.int64) + read_base,
        seq_in_read=seq_in_read,
        cid=index.cids[s3[win]],
        offset=p_diag[ord3][win].astype(np.int64),
        is_rc=p_rc[ord3][win],
        matches=win_match,
        mismatches=win_ov - win_match,
        ov_len=win_ov,
        n_seed_hits=m,
        n_reads_aligned=int(rhead.sum()),
    )


def _cap_mask(cids: np.ndarray, want: np.ndarray, cap: int) -> np.ndarray:
    """Keep the first *cap* wanted rows per cid, in row order."""
    keep = np.zeros(cids.size, dtype=bool)
    idx = np.nonzero(want)[0]
    if idx.size == 0 or cap <= 0:
        return keep
    order = np.argsort(cids[idx], kind="stable")
    c = cids[idx][order]
    head = np.ones(c.size, dtype=bool)
    head[1:] = c[1:] != c[:-1]
    start = np.nonzero(head)[0]
    run_len = np.diff(np.append(start, c.size))
    nth = np.arange(c.size, dtype=np.int64) - np.repeat(start, run_len)
    keep[idx[order[nth < cap]]] = True
    return keep


def recruit_flags(
    rows: AlnRows,
    read_lengths: np.ndarray,
    contig_len_of: np.ndarray,
    max_reads_per_end: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Which emission rows become left/right end candidates.

    *rows* must be in emission order (as :func:`align_core` returns, or a
    merge sorted by ``(read, seq_in_read)``); ``contig_len_of`` is a dense
    cid→length array.  Exactness of the per-end cap requires the caller
    to hold *all* rows of each cid it flags — true for the single-process
    path and for the owner rank of a cid in the ranked exchange.
    """
    rlen = read_lengths[rows.read]
    clen = contig_len_of[rows.cid]
    want_left = rows.offset < 0
    want_right = rows.offset + rlen > clen
    return (
        _cap_mask(rows.cid, want_left, max_reads_per_end),
        _cap_mask(rows.cid, want_right, max_reads_per_end),
    )


def _contig_len_of(contigs: ContigSet) -> np.ndarray:
    """Dense cid→length array (cids are small non-negative ints)."""
    cids = [c.cid for c in contigs]
    out = np.zeros((max(cids) + 1 if cids else 0) + 1, dtype=np.int64)
    for c in contigs:
        out[c.cid] = len(c.seq)
    return out


def materialise_alignment(
    rows: AlnRows,
    contigs: ContigSet,
    reads: ReadBatch,
    max_reads_per_end: int = MAX_READS_PER_END,
    recruit_left: np.ndarray | None = None,
    recruit_right: np.ndarray | None = None,
    layout: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> AlignmentResult:
    """Turn emission-ordered winner rows into an :class:`AlignmentResult`.

    Candidate sequences/quals are O(1) views into the oriented layout —
    the forward and reverse-complement copy of every read both exist in
    ``big``, so "revcomp of the oriented read" is just the partner unit's
    view.  When *recruit_left*/*recruit_right* are given (the ranked
    path, where owner ranks applied the caps), they are used as-is.
    """
    candidates = {c.cid: ContigCandidates(cid=c.cid) for c in contigs}
    if recruit_left is None or recruit_right is None:
        recruit_left, recruit_right = recruit_flags(
            rows, reads.lengths(), _contig_len_of(contigs), max_reads_per_end
        )
    big, big_quals, uoff = (
        layout if layout is not None else _oriented_layout(reads)
    )
    n = len(reads)
    uoff_l = uoff.tolist()
    alignments = [
        ReadAlignment(
            read_idx=ridx,
            cid=cid,
            offset=off,
            is_rc=is_rc,
            matches=mt,
            mismatches=mm,
            ov_len=ov,
        )
        for ridx, cid, off, is_rc, mt, mm, ov in zip(
            rows.read.tolist(),
            rows.cid.tolist(),
            rows.offset.tolist(),
            rows.is_rc.tolist(),
            rows.matches.tolist(),
            rows.mismatches.tolist(),
            rows.ov_len.tolist(),
        )
    ]
    for i in np.nonzero(recruit_left | recruit_right)[0].tolist():
        a = alignments[i]
        u = 2 * n - 1 - a.read_idx if a.is_rc else a.read_idx
        pu = 2 * n - 1 - u  # the unit holding revcomp(oriented read)
        if recruit_left[i]:
            candidates[a.cid].left.add(
                big[uoff_l[pu] : uoff_l[pu + 1]],
                big_quals[uoff_l[pu] : uoff_l[pu + 1]],
            )
        if recruit_right[i]:
            candidates[a.cid].right.add(
                big[uoff_l[u] : uoff_l[u + 1]],
                big_quals[uoff_l[u] : uoff_l[u + 1]],
            )
    return AlignmentResult(
        alignments=alignments,
        candidates=candidates,
        n_reads_aligned=rows.n_reads_aligned,
        n_seed_hits=rows.n_seed_hits,
    )


def align_reads(
    contigs: ContigSet,
    reads: ReadBatch,
    seed_len: int = 17,
    read_seed_stride: int = 8,
    min_identity: float = 0.9,
    min_overlap: int = 30,
    max_reads_per_end: int = MAX_READS_PER_END,
) -> AlignmentResult:
    """Align every read against the contig set (batched).

    Returns per-read best placements plus per-contig-end candidate reads.
    Every contig gets a :class:`ContigCandidates` entry (possibly with zero
    reads) — the zero-read population is what the paper's bin 1 holds.
    Output is bit-identical to :func:`align_reads_scalar`.
    """
    index = PackedSeedIndex(contigs, seed_len=seed_len)
    layout = _oriented_layout(reads)
    rows = align_core(
        index,
        reads,
        read_seed_stride=read_seed_stride,
        min_identity=min_identity,
        min_overlap=min_overlap,
        layout=layout,
    )
    return materialise_alignment(
        rows, contigs, reads, max_reads_per_end, layout=layout
    )
