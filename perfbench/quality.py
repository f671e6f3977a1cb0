"""Output digests and reference-scored quality of one assembly.

Quality is an exact function of the contigs, so it is computed once per
distinct (contigs, references) digest pair and cached on disk; scoring
the references is slow and never runs inside a timed region.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import sha256_file

__all__ = ["output_digests", "quality_metrics"]


def output_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of the FASTA files one ``assemble`` run wrote."""
    return {
        name: sha256_file(out_dir / f"{name}.fasta")
        for name in ("contigs", "scaffolds")
        if (out_dir / f"{name}.fasta").exists()
    }


def quality_metrics(contigs_fasta: Path, refs_fasta: Path, cache_dir: Path) -> dict:
    """``contig_n50_bp``, ``genome_recovery`` (mean per-genome reference
    k-mer recovery) and ``chimeric_contigs``, cached by digest."""
    key = f"{sha256_file(contigs_fasta)[:24]}-{sha256_file(refs_fasta)[:24]}"
    path = cache_dir / f"quality-{key}.json"
    if path.exists():
        return json.loads(path.read_text())

    from repro.analysis import assembly_stats
    from repro.analysis.validation import evaluate_against_references
    from repro.sequence.fastq import read_fasta

    contigs = [(i, seq) for i, (_, seq) in enumerate(read_fasta(contigs_fasta))]
    refs = [seq for _, seq in read_fasta(refs_fasta)]
    report = evaluate_against_references(contigs, refs)
    recovery = report.genome_recovery
    result = {
        "contig_n50_bp": assembly_stats([seq for _, seq in contigs]).n50,
        "genome_recovery": sum(recovery.values()) / len(recovery),
        "chimeric_contigs": report.n_chimeric,
    }
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".part")
    tmp.write_text(json.dumps(result))
    tmp.replace(path)
    return result
