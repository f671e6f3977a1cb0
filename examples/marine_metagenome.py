"""WA-like marine metagenome scenario: skewed community, distributed counting.

A domain-specific workflow mirroring the paper's large-scale dataset at
laptop scale: a heavily skewed 20-genome community, full assembly with GPU
local assembly, per-genome recovery vs abundance, and the distributed
k-mer analysis over real process ranks (validating the merge invariant
and reporting exchange volumes).

Run:  python examples/marine_metagenome.py [seed]
"""

import sys

import numpy as np

from repro.analysis import assembly_stats, genome_fraction
from repro.distributed import distributed_count_proc
from repro.pipeline import PipelineConfig, count_kmers, run_pipeline
from repro.sequence import sample_paired_reads, wa_like


def main(seed: int = 3) -> None:
    rng = np.random.default_rng(seed)
    print("Generating a WA-like skewed marine community (12 genomes)...")
    community = wa_like(rng, n_genomes=12, genome_length=12_000)
    reads = sample_paired_reads(community, 4_000, rng)
    cov = community.expected_coverage(4_000)
    print(f"  {len(reads):,} reads; coverage {cov.min():.1f}x - {cov.max():.0f}x "
          f"(skew {cov.max() / max(cov.min(), 0.1):.0f}:1)")

    print("\nAssembling (GPU local assembly)...")
    # Cap candidate reads per contig end so the *simulated* GPU (which pays
    # Python overhead per warp step) stays interactive; real GPUs use the
    # paper's cap of 3000.
    from repro.core import LocalAssemblyConfig

    config = PipelineConfig(
        local_assembly_mode="gpu",
        local_assembly=LocalAssemblyConfig(max_reads_per_end=25),
    )
    result = run_pipeline(reads, config)
    print(result.summary())
    print("\n ", assembly_stats(result.contigs.sequences()))

    print("\nRecovery vs abundance (abundant genomes assemble; rare ones don't):")
    order = np.argsort(community.abundances)[::-1]
    for rank, gi in enumerate(order[:6]):
        genome = community.genomes[gi]
        frac = genome_fraction(result.contigs.sequences(), genome.seq, k=31)
        print(f"  #{rank + 1} abundance {community.abundances[gi]:.3f} "
              f"({cov[gi]:.1f}x): {100 * frac:.1f}% recovered")
    gi = order[-1]
    frac = genome_fraction(result.contigs.sequences(), community.genomes[gi].seq, k=31)
    print(f"  rarest, abundance {community.abundances[gi]:.4f} "
          f"({cov[gi]:.2f}x): {100 * frac:.1f}% recovered")

    print("\nReference validation (chimera check):")
    from repro.analysis import evaluate_against_references

    ref_report = evaluate_against_references(
        result.contigs, [g.seq for g in community.genomes]
    )
    print(f"  {ref_report.n_contigs} contigs, "
          f"{ref_report.n_chimeric} chimeric, {ref_report.n_unmapped} unmapped")

    print("\nDistributed k-mer analysis over 8 process ranks...")
    single = count_kmers(reads, 21, min_count=2)
    merged, stats, _ = distributed_count_proc(reads, 21, 8, min_count=2)
    same = (
        np.array_equal(single.words, merged.words)
        and np.array_equal(single.counts, merged.counts)
    )
    print(f"  merged spectrum == single-process spectrum: {same}")
    print(f"  {stats.total_kmers_sent:,} k-mer records exchanged; "
          f"max {stats.bytes_per_rank_max / 1e6:.2f} MB/rank; "
          f"modelled all-to-all {stats.modelled_time_s * 1e3:.2f} ms")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 3)
