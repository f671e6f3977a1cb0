"""Span recording around the public functions the pipeline stages call.

The recorder patches module attributes of the program with timing
wrappers; nothing under ``src/`` is edited.  Spans (name, start, end,
parent) are kept in memory and written out once the run is over.  Only
calls on the main thread of the process that installed the wrappers are
recorded: forked rank processes and the GPU driver's stager thread call
straight through.

:func:`layer_metrics` turns the spans, plus the reports the program
already returns (``RankRunReport``, ``AlnRankMetrics``,
``GpuLocalAssemblyReport`` with its ``HostProfiler``,
``CpuAssemblyStats``, ``KernelCounters``), into the per-layer metrics
listed in :data:`PER_LAYER`.  A layer's ``*_s`` is the summed self time
of its spans: span duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict

__all__ = ["PER_LAYER", "SpanRecorder", "install", "layer_metrics"]

ALN_PHASES = ("aln_seed", "aln_lookup", "aln_expand", "aln_dedup",
              "aln_score", "aln_select")

#: every per-layer metric and its unit, in report order
PER_LAYER: dict[str, str] = {
    "fastq.load_s": "s",
    "fastq.write_s": "s",
    "fastq.unattributed_s": "s",
    "merge_reads.busy_s": "s",
    "merge_reads.pairs": "count",
    "merge_reads.merged": "count",
    "merge_reads.merge_ratio": "ratio",
    "merge_reads.unattributed_s": "s",
    "kmer_analysis.busy_s": "s",
    "kmer_analysis.rounds": "count",
    "kmer_analysis.distinct_kmers": "count",
    "kmer_analysis.unattributed_s": "s",
    "procrank.kmer.busy_s": "s",
    "procrank.kmer.count_s": "s",
    "procrank.kmer.pack_s": "s",
    "procrank.kmer.exchange_s": "s",
    "procrank.kmer.merge_s": "s",
    "procrank.kmer.sent_records": "count",
    "procrank.aln.busy_s": "s",
    "procrank.aln.align_s": "s",
    "procrank.aln.pack_s": "s",
    "procrank.aln.exchange_s": "s",
    "procrank.aln.flags_s": "s",
    "procrank.aln.sent_rows": "count",
    "procrank.wait_s": "s",
    "contig_generation.busy_s": "s",
    "contig_generation.contigs": "count",
    "contig_generation.uu_kmers": "count",
    "contig_generation.unattributed_s": "s",
    **{
        f"alignment.{p}.{m}": unit
        for p in ("pass1", "pass2")
        for m, unit in (
            [("index_s", "s"), ("core_s", "s"), ("materialise_s", "s")]
            + [(f"{ph}_s", "s") for ph in ALN_PHASES]
            + [("seed_hits", "count"), ("alignments", "count"),
               ("reads_aligned", "count"), ("hit_yield", "ratio")]
        )
    },
    "alignment.unattributed_s": "s",
    "local_assembly.tasks_s": "s",
    "local_assembly.extend_s": "s",
    "local_assembly.apply_s": "s",
    "local_assembly.tasks": "count",
    "local_assembly.tasks_bin1": "count",
    "local_assembly.tasks_bin2": "count",
    "local_assembly.tasks_bin3": "count",
    "local_assembly.extended_ratio": "ratio",
    "local_assembly.unattributed_s": "s",
    "cpu_local_assembly.build_table_s": "s",
    "cpu_local_assembly.walk_s": "s",
    "cpu_local_assembly.inserts": "count",
    "cpu_local_assembly.walk_steps": "count",
    "cpu_local_assembly.rounds": "count",
    "driver.stage_s": "s",
    "driver.upload_s": "s",
    "driver.dispatch_s": "s",
    "driver.unpack_s": "s",
    "driver.batches": "count",
    "driver.h2d_bytes": "B",
    "driver.high_water_bytes": "B",
    "gpusim.warp_inst": "count",
    "gpusim.thread_inst": "count",
    "gpusim.lane_efficiency": "ratio",
    "gpusim.global_transactions": "count",
    "gpusim.atomic_inst": "count",
    "gpusim.modelled_kernel_s": "s",
    "scaffolding.busy_s": "s",
    "scaffolding.scaffolds": "count",
    "scaffolding.unattributed_s": "s",
}

#: program stage (StageTimes name) -> the metric prefix of its residual,
#: and the span names that run directly under the stage
STAGES: dict[str, tuple[str, tuple[str, ...]]] = {
    "file IO": ("fastq", ("load_read_batch", "write_fasta")),
    "merge reads": ("merge_reads", ("merge_read_pairs",)),
    "k-mer analysis": ("kmer_analysis", ("analyze_kmers", "distributed_count_proc",
                                         "classify_spectrum")),
    "contig generation": ("contig_generation", ("generate_contigs",)),
    "alignment": ("alignment", ("align_reads", "ranked_align")),
    "local assembly": ("local_assembly", ("tasks_from_candidates", "extend_tasks",
                                          "apply_extensions")),
    "scaffolding": ("scaffolding", ("best_by_read", "estimate_insert_size",
                                    "build_scaffolds")),
}


class SpanRecorder:
    """In-memory span list plus the patches that feed it."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.thread = threading.get_ident()
        self.spans: list[dict] = []
        #: objects kept for post-run analysis (task sets, reports)
        self.kept: dict[str, list] = defaultdict(list)
        self._stack: list[dict] = []
        self._ids = itertools.count()

    def wrap(self, owner, attr: str, name: str, note=None, inject=None) -> None:
        """Replace ``owner.attr`` with a timing wrapper.

        *inject(kwargs)* may add keyword arguments before the call;
        *note(args, kwargs, result)* returns a small dict stored on the
        span (evaluated after the span's end time is taken).
        """
        orig = getattr(owner, attr)
        rec = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if os.getpid() != rec.pid or threading.get_ident() != rec.thread:
                return orig(*args, **kwargs)
            if inject is not None:
                inject(kwargs)
            span = {
                "id": next(rec._ids),
                "name": name,
                "parent": rec._stack[-1]["id"] if rec._stack else None,
            }
            rec._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                rec._stack.pop()
                rec.spans.append(span)
            if note is not None:
                span["note"] = note(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)


def _aln_counts(aln) -> dict:
    return {
        "seed_hits": aln.n_seed_hits,
        "alignments": len(aln.alignments),
        "reads_aligned": aln.n_reads_aligned,
    }


def install(rec: SpanRecorder) -> None:
    """Wrap the public functions each stage calls."""
    import repro.core.cpu_local_assembly as cla
    import repro.core.local_assembler as la
    import repro.distributed.procrank as pr
    import repro.pipeline as pkg
    import repro.pipeline.alignment as aln
    import repro.pipeline.insert_size as ins
    import repro.pipeline.kmer_analysis as ka
    import repro.pipeline.pipeline as pp
    import repro.sequence.fastq as fq
    from repro.perf import HostProfiler

    def keep(key):
        def note(args, kwargs, result):
            rec.kept[key].append(result)
            return {}
        return note

    def with_profiler(kwargs):
        if kwargs.get("profile") is None:
            kwargs["profile"] = HostProfiler()

    def core_note(args, kwargs, result):
        prof = kwargs["profile"]
        return {ph: prof.phase_total_s(ph) for ph in ALN_PHASES}

    def want_rank_profiles(kwargs):
        kwargs["profile"] = True

    def la_note(args, kwargs, result):
        rec.kept["la"].append((kwargs.get("config"), result[1]))
        return {}

    def ranked_note(args, kwargs, result):
        aln_result, _, report = result
        ranks = [m.to_dict() for m in report.per_rank]
        phases = {
            ph: max((sum(r["dur_s"] for r in p.get("records", ())
                         if r["phase"] == ph)
                     for p in report.profiles or ()), default=0.0)
            for ph in ALN_PHASES
        }
        return {**_aln_counts(aln_result), "ranks": ranks, **phases}

    rec.wrap(fq, "load_read_batch", "load_read_batch")
    rec.wrap(fq, "write_fasta", "write_fasta")
    rec.wrap(pkg, "run_pipeline", "run_pipeline", note=keep("result"))
    rec.wrap(pp, "merge_read_pairs", "merge_read_pairs",
             note=lambda a, k, r: {"pairs": r[1].n_pairs, "merged": r[1].n_merged})
    rec.wrap(pp, "analyze_kmers", "analyze_kmers")
    rec.wrap(pr, "distributed_count_proc", "distributed_count_proc",
             note=lambda a, k, r: {"ranks": [m.to_dict() for m in r[2].per_rank]})
    rec.wrap(ka, "classify_spectrum", "classify_spectrum")
    rec.wrap(pp, "generate_contigs", "generate_contigs",
             note=lambda a, k, r: {"kmers": len(a[0]), "uu": a[0].n_uu(),
                                   "contigs": len(r)})
    rec.wrap(pp, "align_reads", "align_reads", note=lambda a, k, r: _aln_counts(r))
    rec.wrap(pr, "ranked_align", "ranked_align", inject=want_rank_profiles,
             note=ranked_note)
    rec.wrap(aln.PackedSeedIndex, "__init__", "PackedSeedIndex")
    rec.wrap(aln, "align_core", "align_core", inject=with_profiler, note=core_note)
    rec.wrap(aln, "materialise_alignment", "materialise_alignment")
    rec.wrap(aln.AlignmentResult, "best_by_read", "best_by_read")
    rec.wrap(la, "tasks_from_candidates", "tasks_from_candidates", note=keep("tasks"))
    rec.wrap(la, "extend_tasks", "extend_tasks", note=la_note)
    rec.wrap(la, "apply_extensions", "apply_extensions")
    rec.wrap(cla, "build_kmer_table", "build_kmer_table")
    rec.wrap(cla, "mer_walk", "mer_walk")
    rec.wrap(ins, "estimate_insert_size", "estimate_insert_size")
    rec.wrap(pp, "build_scaffolds", "build_scaffolds",
             note=lambda a, k, r: {"scaffolds": len(r.scaffolds)})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: SpanRecorder) -> tuple[dict, dict]:
    """Per-layer metrics plus the program's stage times, from one traced
    ``assemble`` run."""
    from repro.core.binning import bin_contigs
    from repro.gpusim.counters import KernelCounters

    spans = rec.spans
    by_id = {s["id"]: s for s in spans}
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += s["end"] - s["start"]

    def self_s(s: dict) -> float:
        return (s["end"] - s["start"]) - child_s[s["id"]]

    def top(s: dict) -> dict:
        """The outermost span below ``run_pipeline`` holding *s*."""
        while s["parent"] is not None and by_id[s["parent"]]["name"] != "run_pipeline":
            s = by_id[s["parent"]]
        return s

    named: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        named[s["name"]].append(s)

    def busy(*names: str, within=None) -> float:
        return sum(self_s(s) for n in names for s in named[n]
                   if within is None or top(s)["id"] == within)

    m = {name: 0.0 for name in PER_LAYER}
    m["fastq.load_s"] = busy("load_read_batch")
    m["fastq.write_s"] = busy("write_fasta")

    m["merge_reads.busy_s"] = busy("merge_read_pairs")
    for s in named["merge_read_pairs"]:
        m["merge_reads.pairs"] += s["note"]["pairs"]
        m["merge_reads.merged"] += s["note"]["merged"]
    m["merge_reads.merge_ratio"] = _ratio(m["merge_reads.merged"], m["merge_reads.pairs"])

    m["kmer_analysis.busy_s"] = busy("analyze_kmers", "classify_spectrum")
    m["kmer_analysis.rounds"] = len(named["analyze_kmers"]) + len(named["distributed_count_proc"])
    for s in named["generate_contigs"]:
        m["kmer_analysis.distinct_kmers"] += s["note"]["kmers"]
        m["contig_generation.uu_kmers"] += s["note"]["uu"]
        m["contig_generation.contigs"] += s["note"]["contigs"]
    m["contig_generation.busy_s"] = busy("generate_contigs")

    # ranks: each phase is the max over ranks, summed over launches
    wait = 0.0
    for s in named["distributed_count_proc"]:
        ranks = s["note"]["ranks"]
        for ph in ("count", "pack", "exchange", "merge"):
            m[f"procrank.kmer.{ph}_s"] += max(r[f"{ph}_s"] for r in ranks)
        m["procrank.kmer.sent_records"] += sum(r["sent_records"] for r in ranks)
        wait += max(r["wall_s"] - r["cpu_s"] for r in ranks)
    for s in named["ranked_align"]:
        ranks = s["note"]["ranks"]
        for ph in ("align", "pack", "exchange", "flags"):
            m[f"procrank.aln.{ph}_s"] += max(r[f"{ph}_s"] for r in ranks)
        m["procrank.aln.sent_rows"] += sum(r["sent_rows"] for r in ranks)
        wait += max(r["wall_s"] - r["cpu_s"] for r in ranks)
    m["procrank.wait_s"] = wait
    m["procrank.kmer.busy_s"] = busy("distributed_count_proc")
    m["procrank.aln.busy_s"] = busy("ranked_align")

    passes = sorted(named["align_reads"] + named["ranked_align"], key=lambda s: s["start"])
    for i, p in enumerate(passes[:2], start=1):
        pre = f"alignment.pass{i}."
        m[pre + "index_s"] = busy("PackedSeedIndex", within=p["id"])
        m[pre + "core_s"] = busy("align_core", within=p["id"])
        m[pre + "materialise_s"] = busy("materialise_alignment", within=p["id"])
        # phases: the in-process align_core's profiler, or the slowest
        # rank's profile when the pass ran over ranks
        sources = ([s["note"] for s in named["align_core"] if top(s)["id"] == p["id"]]
                   or [p["note"]])
        for ph in ALN_PHASES:
            m[pre + f"{ph}_s"] = sum(src[ph] for src in sources)
        for key in ("seed_hits", "alignments", "reads_aligned"):
            m[pre + key] = p["note"][key]
        m[pre + "hit_yield"] = _ratio(p["note"]["alignments"], p["note"]["seed_hits"])

    m["local_assembly.tasks_s"] = busy("tasks_from_candidates")
    m["local_assembly.extend_s"] = busy("extend_tasks")
    m["local_assembly.apply_s"] = busy("apply_extensions")
    m["cpu_local_assembly.build_table_s"] = busy("build_kmer_table")
    m["cpu_local_assembly.walk_s"] = busy("mer_walk")
    counters = KernelCounters()
    for tasks, (config, report) in zip(rec.kept["tasks"], rec.kept["la"]):
        with_reads = sum(1 for t in tasks if t.n_reads)
        m["local_assembly.tasks"] += len(tasks)
        m["local_assembly.extended_ratio"] = _ratio(report.n_extended, with_reads)
        bins = bin_contigs(tasks, config)
        for b, cids in enumerate((bins.bin1, bins.bin2, bins.bin3), start=1):
            m[f"local_assembly.tasks_bin{b}"] += 2 * len(cids)
        if report.cpu_stats is not None:
            st = report.cpu_stats
            m["cpu_local_assembly.inserts"] += st.n_inserts
            m["cpu_local_assembly.walk_steps"] += st.n_walk_steps
            m["cpu_local_assembly.rounds"] += st.n_rounds
        gpu = report.gpu_report
        if gpu is not None:
            prof = gpu.host_profile
            if prof is not None:
                for ph in ("stage", "upload", "dispatch", "unpack"):
                    m[f"driver.{ph}_s"] += prof.phase_total_s(ph)
            m["driver.batches"] += gpu.n_batches
            m["driver.h2d_bytes"] += gpu.h2d_bytes
            m["driver.high_water_bytes"] = max(m["driver.high_water_bytes"],
                                               gpu.high_water_bytes)
            m["gpusim.modelled_kernel_s"] += gpu.kernel_time_s
            for launch in gpu.launches:
                counters.merge(launch.counters)
    m["gpusim.warp_inst"] = counters.warp_inst
    m["gpusim.thread_inst"] = counters.thread_inst
    m["gpusim.lane_efficiency"] = _ratio(counters.thread_inst, 32 * counters.warp_inst)
    m["gpusim.global_transactions"] = counters.global_transactions
    m["gpusim.atomic_inst"] = counters.atomic_inst

    m["scaffolding.busy_s"] = busy("best_by_read", "estimate_insert_size", "build_scaffolds")
    for s in named["build_scaffolds"]:
        m["scaffolding.scaffolds"] += s["note"]["scaffolds"]

    # residual: the program's own stage time minus the spans run under it
    stage_s = dict(rec.kept["result"][-1].times.seconds) if rec.kept["result"] else {}
    for stage, (prefix, names) in STAGES.items():
        covered = sum(s["end"] - s["start"] for n in names for s in named[n]
                      if top(s) is s)
        m[f"{prefix}.unattributed_s"] = stage_s.get(stage, 0.0) - covered
    return m, stage_s
