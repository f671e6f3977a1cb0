"""Workload definitions and deterministic input generation.

Each workload fixes a synthetic reference community (drawn from a
constant per-workload seed, like a fixed benchmark dataset) and the
``repro assemble`` flags it runs with.  The run's ``--seed`` draws
:data:`READ_SETS` independent paired-read sets from that community, so
one seed always gives the same FASTQ bytes and another seed gives
held-out read sets of the same shape.  Which sequencing errors reach the
k-mer count threshold varies a lot from one read set to the next (the
spurious contigs they leave drive local-assembly work), so a run
measures several read sets and averages over them.  The program only
ever sees the written FASTQ.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

__all__ = ["READ_SETS", "Workload", "WORKLOADS", "generate_inputs", "sha256_file"]

#: independent read sets drawn per seed
READ_SETS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str  # "arcticsynth" | "wa"
    n_genomes: int
    genome_length: int
    n_pairs: int
    insert_mean: float
    community_seed: int
    assemble_args: tuple[str, ...]
    #: mean per-genome reference k-mer recovery a correct assembly
    #: reaches (a margin below the lowest seen over seeds 0-10: 0.98 on
    #: the arcticsynth-like reads, 0.46 on the WA-like ones)
    min_recovery: float = 0.9
    #: workload whose contigs this one must reproduce byte for byte
    same_contigs_as: str | None = None

    @property
    def input_key(self) -> tuple:
        """Workloads with equal keys read the same FASTQ bytes."""
        return (self.preset, self.n_genomes, self.genome_length,
                self.n_pairs, self.insert_mean, self.community_seed)


_ARCTIC = dict(preset="arcticsynth", n_genomes=4, genome_length=5_000,
               n_pairs=1_650, insert_mean=350.0, community_seed=4)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="arctic-cpu",
            why="arcticsynth-like, single k, CPU local assembly "
                "(build_kmer_table dominates); the simulated GPU does no work",
            assemble_args=("--k", "21", "--mode", "cpu"),
            **_ARCTIC,
        ),
        Workload(
            name="arctic-gpu",
            why="same reads as arctic-cpu through the batched, overlapped "
                "simulated-GPU local assembly; contigs must equal arctic-cpu's",
            assemble_args=("--k", "21", "--mode", "gpu", "--engine", "batched",
                           "--overlap", "on"),
            same_contigs_as="arctic-cpu",
            **_ARCTIC,
        ),
        Workload(
            name="wa-multik-ranked",
            why="WA-like skewed community, k 21/33/55 with 2 k-mer and 2 "
                "alignment ranks: front end dominates, most pairs merge",
            preset="wa", n_genomes=8, genome_length=8_000, n_pairs=1_600,
            insert_mean=250.0, community_seed=0,
            # heavy skew leaves the rarest genomes below 2x coverage
            min_recovery=0.4,
            assemble_args=("--k", "21", "33", "55", "--ranks", "2",
                           "--aln-ranks", "2", "--mode", "cpu"),
        ),
    )
}


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def generate_inputs(w: Workload, seed: int, out: Path) -> tuple[list[Path], Path]:
    """Write ``reads-<i>.fastq`` (one per read set) and ``refs.fasta`` for
    *w* and *seed* into *out*, unless already there; returns their paths."""
    reads_paths = [out / f"reads-{i}.fastq" for i in range(READ_SETS)]
    refs_path = out / "refs.fasta"
    if refs_path.exists() and all(p.exists() for p in reads_paths):
        return reads_paths, refs_path
    import numpy as np

    from repro.sequence import arcticsynth_like, sample_paired_reads, wa_like
    from repro.sequence.fastq import save_read_batch, write_fasta

    maker = arcticsynth_like if w.preset == "arcticsynth" else wa_like
    community = maker(
        np.random.default_rng(w.community_seed),
        n_genomes=w.n_genomes,
        genome_length=w.genome_length,
        insert_mean=w.insert_mean,
    )
    rng = np.random.default_rng(seed)
    out.mkdir(parents=True, exist_ok=True)
    # write under temporary names so an interrupted run never leaves a
    # half-written input that a later run would reuse
    for path in (refs_path, *reads_paths):
        tmp = path.with_name(path.name + ".part")
        if path is refs_path:
            write_fasta(tmp, [(g.name, g.seq) for g in community.genomes])
        else:
            save_read_batch(tmp, sample_paired_reads(community, w.n_pairs, rng))
        tmp.replace(path)
    return reads_paths, refs_path
