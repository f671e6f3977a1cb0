"""The process-rank stages: k-mer counting, alignment, local assembly.

Each stage is a short rank function on the SPMD runtime of
:mod:`repro.distributed.spmd` — which owns forking, the shared-memory
alltoallv, result return, the join and cleanup — plus the parent-side
merge of the ranks' results:

* :func:`distributed_count_proc` — each rank counts k-mers over its read
  partition and sends every record to its owner rank (hash of word 0);
  owners merge what they receive, the parent merges the disjoint shards.
* :func:`ranked_align` — each rank aligns its read shard against the
  fork-inherited seed index and sends winner rows to the contig's owner
  rank (``cid % R``), which applies the per-end recruitment caps.
* :func:`ranked_extend_tasks` — each rank runs local assembly over its
  LPT-dealt task shard; extension keys are unique per task.

All three are bit-identical to their single-process counterparts at
every rank count — the invariant the tests enforce — so the pipeline can
swap them in via ``PipelineConfig.kmer_ranks`` / ``aln_ranks`` without
changing any contig.

Timing: each rank records wall clock *and* CPU seconds per phase.  On
hosts with fewer cores than ranks the wall clock of concurrent processes
measures time-slicing, not work, so the strong-scaling benches report
the max per-rank CPU seconds as the critical-path metric next to the
honest wall clock.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.distributed.comm import CommCostModel
from repro.distributed.rank import (
    RECORD_BYTES,
    ExchangeStats,
    _partition_bounds,
    merge_spectra,
    owner_of_words,
    pack_records,
    partition_part,
    record_width,
    spectrum_from_records,
)
from repro.distributed.spmd import Comm, procrank_available, spmd
from repro.pipeline.kmer_counts import KmerSpectrum, count_kmers
from repro.sequence.kmer import words_per_kmer
from repro.sequence.read import ReadBatch

__all__ = [
    "distributed_count_proc",
    "procrank_available",
    "pack_for_exchange",
    "exchange_rows",
    "RankMetrics",
    "RankRunReport",
    "ranked_extend_tasks",
    "LaRankMetrics",
    "RANK_PHASES",
    "ranked_align",
    "AlnRankMetrics",
    "ALN_RANK_PHASES",
    "aln_wire_rows",
    "rows_from_wire",
    "group_rows_by_owner",
]

#: per-rank phases of the distributed count, in execution order.
RANK_PHASES = ("count", "pack", "exchange", "merge")

#: per-rank phases of the ranked alignment, in execution order.
ALN_RANK_PHASES = ("align", "pack", "exchange", "flags")


# -- pure exchange building blocks (transport-free, unit-testable) -----------


def pack_for_exchange(
    spec: KmerSpectrum, n_ranks: int
) -> tuple[np.ndarray, np.ndarray]:
    """Group a local spectrum's wire rows by destination rank.

    Returns ``(rows, dest_counts)``: rows are ordered rank 0's records
    first, then rank 1's, … (stable within a destination), and
    ``dest_counts[d]`` is how many rows go to rank *d*.  This ordering
    is the outbox layout: destination *d*'s slice starts at
    ``cumsum(dest_counts)[d]``.
    """
    rows = pack_records(spec)
    if not len(spec):
        return rows, np.zeros(n_ranks, dtype=np.int64)
    owners = owner_of_words(spec.words, n_ranks)
    order = np.argsort(owners, kind="stable")
    dest_counts = np.bincount(owners, minlength=n_ranks).astype(np.int64)
    return rows[order], dest_counts


def exchange_rows(
    rows_by_src: list[np.ndarray], counts: np.ndarray
) -> list[np.ndarray]:
    """The alltoallv shuffle as a pure function: slice every source's
    grouped rows into per-destination inboxes.

    ``counts[src, dest]`` is the row count source *src* sends to *dest*
    (what the shared counts matrix holds at the fence).  Returns one
    concatenated inbox per destination.  The tests assert the union of
    inboxes is a permutation of the union of outboxes — no record is
    lost, duplicated or torn by the shuffle.
    """
    n_ranks = len(rows_by_src)
    counts = np.asarray(counts, dtype=np.int64)
    inboxes: list[list[np.ndarray]] = [[] for _ in range(n_ranks)]
    for src, rows in enumerate(rows_by_src):
        offs = np.zeros(n_ranks + 1, dtype=np.int64)
        np.cumsum(counts[src], out=offs[1:])
        if int(offs[-1]) != len(rows):
            raise ValueError(
                f"rank {src}: counts row sums to {int(offs[-1])}, "
                f"outbox has {len(rows)} rows"
            )
        for dest in range(n_ranks):
            inboxes[dest].append(rows[offs[dest] : offs[dest + 1]])
    width = rows_by_src[0].shape[1] if rows_by_src else 0
    return [
        np.concatenate(parts)
        if parts
        else np.empty((0, width), dtype=np.uint64)
        for parts in inboxes
    ]


def _exchange_stats(
    counts: np.ndarray, row_bytes: int, comm: CommCostModel | None
) -> ExchangeStats:
    """Exchange volume measured from the alltoallv counts matrix, with
    the modelled alltoall time as an overlay.

    ``total_kmers_sent`` counts rows of whatever the stage exchanges —
    k-mer records or, for alignment, 64-byte alignment rows.
    """
    n_ranks = counts.shape[0]
    offdiag = counts.copy()
    np.fill_diagonal(offdiag, 0)
    bytes_per_rank = offdiag.sum(axis=1) * row_bytes
    bytes_max = int(bytes_per_rank.max()) if n_ranks > 1 else 0
    return ExchangeStats(
        n_ranks=n_ranks,
        total_kmers_sent=int(offdiag.sum()),
        bytes_per_rank_max=bytes_max,
        modelled_time_s=(comm or CommCostModel()).alltoall_time(
            bytes_max, n_ranks
        ),
    )


# -- reports -----------------------------------------------------------------
#
# Each metrics class's fields after ``rank`` follow the column order of
# the stage's launch (wall, cpu, one time per phase, then counters), so a
# record is built positionally from :meth:`SpmdRun.rank_rows`.


@dataclass
class _Metrics:
    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RankMetrics(_Metrics):
    """Measured per-rank accounting of one distributed count."""

    rank: int
    wall_s: float
    cpu_s: float
    count_s: float
    pack_s: float
    exchange_s: float
    merge_s: float
    sent_records: int
    recv_records: int


@dataclass
class AlnRankMetrics(_Metrics):
    """Measured per-rank accounting of one ranked alignment."""

    rank: int
    wall_s: float
    cpu_s: float
    align_s: float
    pack_s: float
    exchange_s: float
    flags_s: float
    sent_rows: int
    recv_rows: int


@dataclass
class LaRankMetrics(_Metrics):
    """Measured per-rank accounting of one ranked local assembly."""

    rank: int
    wall_s: float
    cpu_s: float
    n_tasks: int
    n_extended: int


@dataclass
class RankRunReport:
    """One measured multi-rank run of a rank stage."""

    n_ranks: int
    mode: str  # "procrank" (forked processes) or "inproc" (fallback)
    wall_s: float  # parent-side end-to-end wall clock
    per_rank: list = field(default_factory=list)  # one *RankMetrics per rank
    profiles: list[dict] | None = None  # per-rank HostProfiler JSON
    sanitizer: dict | None = None  # SanitizerReport JSON (sanitize=rankcheck)

    @property
    def cpu_critical_s(self) -> float:
        """Max per-rank CPU seconds: the strong-scaling critical path on
        hosts where wall clock measures time-slicing, not work."""
        return max((m.cpu_s for m in self.per_rank), default=0.0)

    @property
    def cpu_total_s(self) -> float:
        return sum(m.cpu_s for m in self.per_rank)

    def to_dict(self) -> dict:
        d = {
            "n_ranks": self.n_ranks,
            "mode": self.mode,
            "wall_s": self.wall_s,
            "cpu_critical_s": self.cpu_critical_s,
            "cpu_total_s": self.cpu_total_s,
            "per_rank": [m.to_dict() for m in self.per_rank],
        }
        if self.sanitizer is not None:
            d["sanitizer"] = self.sanitizer
        return d


# -- k-mer counting ----------------------------------------------------------


def distributed_count_proc(
    batch: ReadBatch,
    k: int,
    n_ranks: int,
    min_count: int = 1,
    min_qual: int = 0,
    profile: bool = False,
    timeout_s: float = 120.0,
    comm: CommCostModel | None = None,
    sanitize: str = "off",
) -> tuple[KmerSpectrum, ExchangeStats, RankRunReport]:
    """Count k-mers across *n_ranks* ranks; merge the shards.

    Returns the merged global spectrum (bit-identical to the sequential
    :func:`count_kmers` at every rank count), exchange statistics
    measured from the counts matrix (with the modelled alltoall time as
    an overlay), and a :class:`RankRunReport` of per-rank measurements.

    ``sanitize="rankcheck"`` traces every segment access per rank, runs
    the vector-clock happens-before check plus a before/after segment
    ledger diff, and attaches the structured report as
    ``report.sanitizer`` (tracing is observation only: results stay
    bit-identical).

    Ranks are forked processes wherever :func:`procrank_available`, else
    threads over in-memory mailboxes (``report.mode == "inproc"``).
    """
    wall0 = time.perf_counter()

    def count_rank(c: Comm) -> np.ndarray:
        with c.phase("count"):
            part = partition_part(batch, n_ranks, c.rank)
            local = count_kmers(part, k, min_count=1, min_qual=min_qual)
        with c.phase("pack"):
            rows, dest_counts = pack_for_exchange(local, n_ranks)
        with c.phase("exchange"):
            inbox = c.alltoallv(rows, dest_counts)
        with c.phase("merge"):
            return pack_records(merge_spectra([spectrum_from_records(inbox, k)], k))

    run = spmd(
        n_ranks, count_rank, fork=procrank_available(), phases=RANK_PHASES,
        counters=("sent", "recv"), profile=profile, sanitize=sanitize,
        timeout_s=timeout_s,
    )
    nw = words_per_kmer(k)
    merged = merge_spectra(
        [spectrum_from_records(res.reshape(-1, record_width(nw)), k)
         for res in run.results],
        k,
    )
    if min_count > 1:
        merged = merged.filtered(min_count)
    report = RankRunReport(
        n_ranks=n_ranks,
        mode=run.mode,
        wall_s=time.perf_counter() - wall0,
        per_rank=[RankMetrics(r, *row) for r, row in enumerate(run.rank_rows())],
        profiles=run.profiles,
        sanitizer=run.sanitizer,
    )
    return merged, _exchange_stats(run.counts, RECORD_BYTES(nw), comm), report


# -- local assembly (the fig13 measured path) --------------------------------


def _pack_extensions(extensions: dict[tuple[int, int], str]) -> np.ndarray:
    """Flatten ``{(cid, side): ext}`` into one uint8 array: the entry
    count, one ``(cid, side, len)`` int64 row per entry, then the bases."""
    keys = np.array(
        [(cid, side, len(ext)) for (cid, side), ext in extensions.items()],
        dtype=np.int64,
    ).reshape(-1, 3)
    bases = "".join(extensions.values()).encode("ascii")
    return np.concatenate([
        np.array([len(keys)], dtype=np.int64).view(np.uint8),
        keys.view(np.uint8).ravel(),
        np.frombuffer(bases, dtype=np.uint8),
    ])


def _unpack_extensions(buf: np.ndarray) -> dict[tuple[int, int], str]:
    """Inverse of :func:`_pack_extensions`."""
    n = int(buf[:8].view(np.int64)[0])
    keys = buf[8 : 8 + 24 * n].view(np.int64).reshape(n, 3)
    bases = buf[8 + 24 * n :].tobytes().decode("ascii")
    out: dict[tuple[int, int], str] = {}
    at = 0
    for cid, side, length in keys.tolist():
        out[(cid, side)] = bases[at : at + length]
        at += length
    return out


def ranked_extend_tasks(
    tasks,
    n_ranks: int,
    timeout_s: float = 300.0,
    **extend_kwargs,
) -> tuple[dict[tuple[int, int], str], RankRunReport]:
    """Run local assembly across *n_ranks* ranks.

    Tasks are dealt greedily by descending read count (LPT scheduling:
    next-heaviest task to the currently lightest rank) — the task-cost
    distribution is heavy-tailed (§3.1's bin 3), so plain round-robin
    leaves the rank that drew the hot contigs as the straggler.
    Extension keys ``(cid, side)`` are unique per task, so the merged
    dict is independent of the partition — bit-identical to a
    single-rank run by construction, which the fig13 bench asserts.
    *extend_kwargs* (``config``, ``mode``, ``driver``, ...) reach
    :func:`~repro.core.local_assembler.extend_tasks` unchanged.
    """
    from repro.core.local_assembler import extend_tasks
    from repro.core.tasks import TaskSet

    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    wall0 = time.perf_counter()
    shards: list[list] = [[] for _ in range(n_ranks)]
    loads = [0] * n_ranks
    for t in sorted(tasks, key=lambda t: -t.n_reads):
        r = loads.index(min(loads))
        shards[r].append(t)
        loads[r] += t.n_reads + 1  # +1: empty tasks still cost dispatch

    def extend_rank(c: Comm) -> np.ndarray:
        part = TaskSet(shards[c.rank])
        extensions, report = extend_tasks(part, **extend_kwargs)
        c.stats["n_tasks"] = len(part)
        c.stats["n_extended"] = report.n_extended
        return _pack_extensions(extensions)

    run = spmd(
        n_ranks, extend_rank, fork=procrank_available(),
        counters=("n_tasks", "n_extended"), timeout_s=timeout_s,
    )
    merged: dict[tuple[int, int], str] = {}
    for res in run.results:
        merged.update(_unpack_extensions(res))
    report = RankRunReport(
        n_ranks=n_ranks,
        mode=run.mode,
        wall_s=time.perf_counter() - wall0,
        per_rank=[LaRankMetrics(r, *row) for r, row in enumerate(run.rank_rows())],
    )
    return merged, report


# -- ranked alignment (the batched aligner across ranks) ---------------------
#
# Reads are sharded contiguously across ranks (pair-aligned, the same
# partition the k-mer ranks use); every rank reads the one packed seed
# index the parent built, inherited through fork like the reads, and
# runs :func:`~repro.pipeline.alignment.align_core` over its shard.  The
# winner rows are exchanged to *owner* ranks by ``cid % n_ranks`` so each
# owner holds every row of its contigs and can apply the per-end
# recruitment caps exactly.  The parent merges the owner shards back
# into global emission order, so the result is bit-identical to the
# single-process :func:`~repro.pipeline.alignment.align_reads`.

#: wire row layout of one winner alignment (all int64):
#: read, seq_in_read, cid, offset, is_rc, matches, mismatches, ov_len
_ALN_COLS = 8
#: owner rows append the recruit flags: ... , left, right
_ALN_OWN_COLS = _ALN_COLS + 2
_ALN_ROW_BYTES = _ALN_COLS * 8


# -- pure wire-format building blocks (transport-free, unit-testable) --------


def aln_wire_rows(rows) -> np.ndarray:
    """Flatten an :class:`~repro.pipeline.alignment.AlnRows` into the
    ``(n, 8)`` int64 wire matrix (column order in :data:`_ALN_COLS`'s
    doc comment)."""
    w = np.empty((len(rows), _ALN_COLS), dtype=np.int64)
    w[:, 0] = rows.read
    w[:, 1] = rows.seq_in_read
    w[:, 2] = rows.cid
    w[:, 3] = rows.offset
    w[:, 4] = rows.is_rc
    w[:, 5] = rows.matches
    w[:, 6] = rows.mismatches
    w[:, 7] = rows.ov_len
    return w


def rows_from_wire(
    wire: np.ndarray, n_seed_hits: int = 0, n_reads_aligned: int = 0
):
    """Inverse of :func:`aln_wire_rows` (columns become views)."""
    from repro.pipeline.alignment import AlnRows

    w = np.ascontiguousarray(wire, dtype=np.int64)
    return AlnRows(
        read=w[:, 0],
        seq_in_read=w[:, 1],
        cid=w[:, 2],
        offset=w[:, 3],
        is_rc=w[:, 4].astype(bool),
        matches=w[:, 5],
        mismatches=w[:, 6],
        ov_len=w[:, 7],
        n_seed_hits=n_seed_hits,
        n_reads_aligned=n_reads_aligned,
    )


def group_rows_by_owner(
    wire: np.ndarray, n_ranks: int
) -> tuple[np.ndarray, np.ndarray]:
    """Group wire rows by owner rank (``cid % n_ranks``), stably.

    Returns ``(rows, dest_counts)`` in outbox layout: owner 0's rows
    first, then owner 1's, …, each destination slice still in emission
    order (the stable sort preserves it) — which is what lets owners
    apply the first-N-per-cid recruitment caps exactly.
    """
    if wire.shape[0] == 0:
        return wire, np.zeros(n_ranks, dtype=np.int64)
    owner = wire[:, 2] % n_ranks
    order = np.argsort(owner, kind="stable")
    dest_counts = np.bincount(owner, minlength=n_ranks).astype(np.int64)
    return wire[order], dest_counts


def ranked_align(
    contigs,
    reads: ReadBatch,
    n_ranks: int,
    seed_len: int = 17,
    read_seed_stride: int = 8,
    min_identity: float = 0.9,
    min_overlap: int = 30,
    max_reads_per_end: int | None = None,
    profile: bool = False,
    timeout_s: float = 120.0,
    comm: CommCostModel | None = None,
):
    """Align *reads* to *contigs* across *n_ranks* ranks.

    Returns ``(AlignmentResult, ExchangeStats, RankRunReport)``.  The
    result is bit-identical to the single-process
    :func:`~repro.pipeline.alignment.align_reads` at every rank count;
    the stats measure the alignment-row shuffle (64-byte rows) and the
    report carries per-rank :class:`AlnRankMetrics` (align / pack /
    exchange / flags, the :data:`ALN_RANK_PHASES`).

    Ranks are forked processes wherever :func:`procrank_available`, else
    threads over in-memory mailboxes (``report.mode == "inproc"``).
    """
    from repro.pipeline.alignment import (
        MAX_READS_PER_END,
        PackedSeedIndex,
        _contig_len_of,
        align_core,
        materialise_alignment,
        recruit_flags,
    )

    if max_reads_per_end is None:
        max_reads_per_end = MAX_READS_PER_END
    wall0 = time.perf_counter()
    bounds = _partition_bounds(reads, n_ranks)
    index = PackedSeedIndex(contigs, seed_len=seed_len)
    contig_len_of = _contig_len_of(contigs)
    read_lengths = reads.lengths()

    def align_rank(c: Comm) -> np.ndarray:
        with c.phase("align"):
            rows = align_core(
                index,
                partition_part(reads, n_ranks, c.rank),
                read_base=int(bounds[c.rank]),
                read_seed_stride=read_seed_stride,
                min_identity=min_identity,
                min_overlap=min_overlap,
                profile=c.profiler,
            )
        c.stats["seed_hits"] = rows.n_seed_hits
        c.stats["reads_aligned"] = rows.n_reads_aligned
        with c.phase("pack"):
            wire, dest_counts = group_rows_by_owner(aln_wire_rows(rows), n_ranks)
        with c.phase("exchange"):
            inbox = c.alltoallv(wire, dest_counts)
        with c.phase("flags"):
            # Owner holds ALL rows of its cids; restoring global emission
            # order (read asc, seq_in_read asc) makes the first-N-per-cid
            # caps identical to the single-process pass.
            inbox = inbox[np.lexsort((inbox[:, 1], inbox[:, 0]))]
            left, right = recruit_flags(
                rows_from_wire(inbox), read_lengths, contig_len_of,
                max_reads_per_end,
            )
            return np.column_stack((inbox, left, right))

    run = spmd(
        n_ranks, align_rank, fork=procrank_available(), phases=ALN_RANK_PHASES,
        counters=("sent", "recv", "seed_hits", "reads_aligned"),
        profile=profile, timeout_s=timeout_s,
    )
    merged = np.concatenate(
        [res.reshape(-1, _ALN_OWN_COLS) for res in run.results]
    )
    merged = merged[np.lexsort((merged[:, 1], merged[:, 0]))]
    rows = rows_from_wire(
        merged[:, :_ALN_COLS],
        n_seed_hits=run.total("seed_hits"),
        n_reads_aligned=run.total("reads_aligned"),
    )
    aln = materialise_alignment(
        rows,
        contigs,
        reads,
        max_reads_per_end,
        recruit_left=merged[:, _ALN_COLS].astype(bool),
        recruit_right=merged[:, _ALN_COLS + 1].astype(bool),
    )
    report = RankRunReport(
        n_ranks=n_ranks,
        mode=run.mode,
        wall_s=time.perf_counter() - wall0,
        per_rank=[
            AlnRankMetrics(r, *row[:8]) for r, row in enumerate(run.rank_rows())
        ],
        profiles=run.profiles,
    )
    return aln, _exchange_stats(run.counts, _ALN_ROW_BYTES, comm), report
