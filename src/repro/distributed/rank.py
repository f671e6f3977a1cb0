"""Partitioning, ownership and wire format of the distributed k-mer stage.

MetaHipMer2 runs one UPC++ rank per core; reads are partitioned across
ranks and the k-mer analysis stage hash-partitions k-mers so each rank
owns a disjoint shard of the global spectrum.  This module holds the
transport-free pieces of that structure, which the process ranks of
:mod:`repro.distributed.procrank` run:

* :func:`partition_reads` splits an interleaved paired batch across ranks
  (whole pairs, contiguous blocks — MHM2's file-splitting behaviour);
* :func:`owner_of_words` is the owner hash, :func:`pack_records` /
  :func:`spectrum_from_records` the exchange's wire format, and
  :func:`merge_spectra` the owner-side reduction.

The invariant tested is the one MHM2 relies on: the distributed spectrum
is exactly the spectrum of the union of the reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pipeline.kmer_counts import KmerSpectrum
from repro.sequence.kmer import words_per_kmer
from repro.sequence.read import ReadBatch

__all__ = [
    "partition_reads",
    "ExchangeStats",
    "merge_spectra",
    "owner_of_words",
    "pack_records",
    "spectrum_from_records",
    "record_width",
    "RECORD_BYTES",
]


def owner_of_words(words: np.ndarray, n_ranks: int) -> np.ndarray:
    """Destination rank of each k-mer: hash-partition on word 0."""
    mix = (words[:, 0] * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(33)
    return (mix % np.uint64(n_ranks)).astype(np.int64)


# -- wire format of one k-mer record ----------------------------------------
#
# The exchange moves flat uint64 rows, one per distinct local k-mer:
# ``[words .. | count | left_ext x5 | right_ext x5]``.  Counts and
# extension tallies are non-negative int64, so viewing them as uint64 is
# lossless; a row is what one rank "puts" into a peer's mailbox.

#: uint64 slots per record beyond the packed k-mer words.
_META_SLOTS = 1 + 5 + 5


def record_width(nw: int) -> int:
    """uint64 slots per record for *nw*-word k-mers."""
    return nw + _META_SLOTS


def RECORD_BYTES(nw: int) -> int:
    """Bytes on the wire per record (what the cost model prices)."""
    return 8 * record_width(nw)


def pack_records(spec: KmerSpectrum) -> np.ndarray:
    """Flatten a spectrum into ``(n, record_width)`` uint64 wire rows."""
    nw = words_per_kmer(spec.k)
    out = np.empty((len(spec), record_width(nw)), dtype=np.uint64)
    if len(spec):
        out[:, :nw] = spec.words
        out[:, nw] = spec.counts.view(np.uint64)
        out[:, nw + 1 : nw + 6] = spec.left_ext.view(np.uint64)
        out[:, nw + 6 :] = spec.right_ext.view(np.uint64)
    return out


def spectrum_from_records(rows: np.ndarray, k: int) -> KmerSpectrum:
    """Inverse of :func:`pack_records` (rows need not be sorted/unique)."""
    nw = words_per_kmer(k)
    rows = np.ascontiguousarray(rows, dtype=np.uint64)
    if rows.size and rows.shape[1] != record_width(nw):
        raise ValueError(
            f"record rows have width {rows.shape[1]}, "
            f"expected {record_width(nw)} for k={k}"
        )
    return KmerSpectrum(
        k=k,
        words=rows[:, :nw].copy(),
        counts=rows[:, nw].copy().view(np.int64),
        left_ext=rows[:, nw + 1 : nw + 6].copy().view(np.int64),
        right_ext=rows[:, nw + 6 :].copy().view(np.int64),
    )


def _partition_bounds(batch: ReadBatch, n_ranks: int) -> np.ndarray:
    """Read-index boundaries of the contiguous pair-aligned partition."""
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    n_units = len(batch) // 2 if batch.paired else len(batch)
    unit = 2 if batch.paired else 1
    return np.linspace(0, n_units, n_ranks + 1).astype(np.int64) * unit


def partition_part(batch: ReadBatch, n_ranks: int, rank: int) -> ReadBatch:
    """Rank *rank*'s slice of the partition — what a worker process
    materialises without copying the other ranks' reads."""
    bounds = _partition_bounds(batch, n_ranks)
    if not 0 <= rank < n_ranks:
        raise ValueError(f"rank {rank} out of range for {n_ranks} ranks")
    idx = np.arange(bounds[rank], bounds[rank + 1])
    part = batch.subset(idx)
    # subset drops pairedness; restore it (blocks are pair-aligned).
    return ReadBatch(
        part.bases, part.quals, part.offsets, part.names, paired=batch.paired
    )


def partition_reads(batch: ReadBatch, n_ranks: int) -> list[ReadBatch]:
    """Split a paired batch into *n_ranks* contiguous pair-aligned parts."""
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    return [partition_part(batch, n_ranks, r) for r in range(n_ranks)]


@dataclass
class ExchangeStats:
    """Volume and modelled time of the k-mer all-to-all."""

    n_ranks: int
    total_kmers_sent: int
    bytes_per_rank_max: int
    modelled_time_s: float


def merge_spectra(shards: list[KmerSpectrum], k: int) -> KmerSpectrum:
    """Merge per-rank spectra (disjoint or overlapping) into one.

    Overlapping keys have their counts and extension tallies summed — the
    reduction MHM2's distributed hash table performs on insert.
    """
    non_empty = [s for s in shards if len(s)]
    if not non_empty:
        import numpy as _np

        nw = words_per_kmer(k)
        e = _np.zeros((0, 5), dtype=_np.int64)
        return KmerSpectrum(
            k, _np.empty((0, nw), dtype=_np.uint64), _np.zeros(0, dtype=_np.int64), e, e
        )
    words = np.concatenate([s.words for s in non_empty])
    counts = np.concatenate([s.counts for s in non_empty])
    left = np.concatenate([s.left_ext for s in non_empty])
    right = np.concatenate([s.right_ext for s in non_empty])
    nw = words.shape[1]
    order = np.lexsort(tuple(words[:, w] for w in range(nw - 1, -1, -1)))
    words, counts, left, right = words[order], counts[order], left[order], right[order]
    new_group = np.ones(words.shape[0], dtype=bool)
    new_group[1:] = np.any(words[1:] != words[:-1], axis=1)
    gid = np.cumsum(new_group) - 1
    n_groups = int(gid[-1]) + 1
    m_counts = np.zeros(n_groups, dtype=np.int64)
    np.add.at(m_counts, gid, counts)
    m_left = np.zeros((n_groups, 5), dtype=np.int64)
    m_right = np.zeros((n_groups, 5), dtype=np.int64)
    np.add.at(m_left, gid, left)
    np.add.at(m_right, gid, right)
    return KmerSpectrum(
        k=k, words=words[new_group], counts=m_counts, left_ext=m_left, right_ext=m_right
    )
