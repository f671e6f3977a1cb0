"""Tests for the distributed k-mer analysis: partitioning, ownership,
spectrum merging and the rank-count invariant of the counted spectrum."""

import numpy as np
import pytest

from repro.distributed.comm import CommCostModel
from repro.distributed.procrank import distributed_count_proc
from repro.distributed.rank import merge_spectra, owner_of_words, partition_reads
from repro.pipeline.kmer_counts import count_kmers
from repro.sequence.community import arcticsynth_like, sample_paired_reads
from repro.sequence.read import ReadBatch


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(31)
    comm = arcticsynth_like(rng, n_genomes=2, genome_length=4000)
    return sample_paired_reads(comm, 400, rng)


def _spectra_equal(a, b) -> bool:
    return (
        np.array_equal(a.words, b.words)
        and np.array_equal(a.counts, b.counts)
        and np.array_equal(a.left_ext, b.left_ext)
        and np.array_equal(a.right_ext, b.right_ext)
    )


class TestPartition:
    def test_covers_all_reads(self, batch):
        parts = partition_reads(batch, 4)
        assert sum(len(p) for p in parts) == len(batch)

    def test_pairs_not_split(self, batch):
        parts = partition_reads(batch, 3)
        assert all(len(p) % 2 == 0 for p in parts)
        assert all(p.paired for p in parts)

    def test_single_rank_identity(self, batch):
        (part,) = partition_reads(batch, 1)
        assert len(part) == len(batch)
        assert np.array_equal(part.bases, batch.bases)

    def test_validation(self, batch):
        with pytest.raises(ValueError):
            partition_reads(batch, 0)


class TestDistributedCounting:
    @pytest.mark.parametrize("n_ranks", [1, 2, 4, 7])
    def test_invariant_matches_single_process(self, batch, n_ranks):
        """THE distributed invariant: the merged spectrum equals the
        single-process one, for any rank count."""
        single = count_kmers(batch, 21, min_count=2)
        merged, stats, _ = distributed_count_proc(
            batch, 21, n_ranks, min_count=2
        )
        assert _spectra_equal(single, merged)
        assert stats.n_ranks == n_ranks

    def test_exchange_volume_grows_with_ranks(self, batch):
        _, s1, _ = distributed_count_proc(batch, 21, 1)
        _, s8, _ = distributed_count_proc(batch, 21, 8)
        assert s1.total_kmers_sent == 0
        assert s8.total_kmers_sent > 0
        assert s8.modelled_time_s > 0

    def test_owner_partition_is_total(self, batch):
        spec = count_kmers(batch, 21)
        owners = owner_of_words(spec.words, 5)
        assert owners.min() >= 0 and owners.max() < 5
        # roughly balanced shards (hash partition)
        counts = np.bincount(owners, minlength=5)
        assert counts.min() > 0.5 * counts.mean()


class TestMergeSpectra:
    def test_merge_disjoint(self, batch):
        spec = count_kmers(batch, 21)
        half = len(spec) // 2
        from repro.pipeline.kmer_counts import KmerSpectrum

        a = KmerSpectrum(21, spec.words[:half], spec.counts[:half],
                         spec.left_ext[:half], spec.right_ext[:half])
        b = KmerSpectrum(21, spec.words[half:], spec.counts[half:],
                         spec.left_ext[half:], spec.right_ext[half:])
        merged = merge_spectra([a, b], 21)
        assert _spectra_equal(merged, spec)

    def test_merge_overlapping_sums(self, batch):
        spec = count_kmers(batch, 21)
        merged = merge_spectra([spec, spec], 21)
        assert np.array_equal(merged.counts, 2 * spec.counts)
        assert np.array_equal(merged.left_ext, 2 * spec.left_ext)

    def test_merge_empty(self):
        merged = merge_spectra([], 21)
        assert len(merged) == 0


class TestCommModel:
    def test_p2p(self):
        m = CommCostModel(latency_s=1e-6, bandwidth_bytes=1e9)
        assert m.p2p_time(1e9) == pytest.approx(1.000001)

    def test_alltoall_scaling(self):
        m = CommCostModel()
        assert m.alltoall_time(1000, 1) == 0.0
        assert m.alltoall_time(1000, 64) > m.alltoall_time(1000, 2)

    def test_allreduce(self):
        m = CommCostModel()
        assert m.allreduce_time(10**6, 16) > 0
        assert m.allreduce_time(10**6, 1) == 0.0
