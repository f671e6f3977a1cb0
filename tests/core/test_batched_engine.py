"""Driver-level contract of the batched SoA warp engine.

``GpuLocalAssembler(engine="batched")`` runs every warp of a launch at
once on structure-of-arrays NumPy state, but the result must be
*indistinguishable* from the sequential interpreter: extensions, merged
counters, per-launch ``per_warp_inst`` tuples and modelled timing are all
bit-identical, and both match the CPU reference.  This pins the tentpole
guarantee that batched execution is a pure implementation detail.

The ``bench_smoke``-marked test doubles as the tier-1 miniature of the
``bench_batched_trio`` benchmark: same shape of workload (10 warps
instead of 100), same identity assertions, no timing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import extension_kernel_batched as batched_kernel
from repro.core.config import GpuDriverConfig, LocalAssemblyConfig
from repro.core.cpu_local_assembly import run_local_assembly_cpu
from repro.core.driver import GpuLocalAssembler
from repro.core.local_assembler import extend_tasks
from repro.core.tasks import LEFT, RIGHT, ExtensionTask, TaskSet
from repro.sequence.dna import encode, random_dna


def _tiling_task(genome, contig_end, read_len=70, stride=6, cid=0, side=RIGHT):
    reads, quals = [], []
    for i in range(0, len(genome) - read_len + 1, stride):
        reads.append(encode(genome[i : i + read_len]))
        quals.append(np.full(read_len, 40, dtype=np.uint8))
    return ExtensionTask(
        cid=cid, side=side, contig=encode(genome[:contig_end]),
        reads=tuple(reads), quals=tuple(quals),
    )


@pytest.fixture(scope="module")
def workload():
    """10 tasks spanning bins 1-3, both sides, plus an empty-read task —
    enough structure to hit every predication path of the batched engine."""
    rng = np.random.default_rng(2024)
    tasks = []
    for cid in range(4):
        tasks.append(_tiling_task(random_dna(320, rng), 120, cid=cid, stride=5))
    for cid in range(4, 7):
        side = LEFT if cid % 2 else RIGHT
        tasks.append(
            _tiling_task(random_dna(220, rng), 90, cid=cid, stride=30, side=side)
        )
    tasks.append(
        ExtensionTask(cid=7, side=RIGHT, contig=encode(random_dna(80, rng)),
                      reads=(), quals=())
    )
    for cid in (8, 9):
        tasks.append(_tiling_task(random_dna(280, rng), 100, cid=cid, stride=7))
    return TaskSet(tasks)


@pytest.fixture(scope="module")
def stress_workload():
    """Inputs that push the lane queue down its rarer paths: step counts
    from 1 to over 200 per task, reads with ``N`` (invalid lanes and
    whole steps without a valid lane), k-mers repeated inside one
    32-lane step (CAS duplicate runs), near-full tables with long probe
    chains, and a fork that shifts k up through several mer sizes."""
    rng = np.random.default_rng(99)
    q = lambda n: np.full(n, 40, dtype=np.uint8)  # noqa: E731
    tasks = []
    # >200 steps: 124 overlapping 60 bp reads, two 32-lane steps each
    tasks.append(_tiling_task(random_dna(800, rng), 200, cid=0, read_len=60, stride=6))
    # one step: a single 40 bp read
    one = random_dna(40, rng)
    tasks.append(ExtensionTask(cid=1, side=RIGHT, contig=encode(one[:30]),
                               reads=(encode(one),), quals=(q(40),)))
    # long probe chains: distinct random k-mers fill three quarters of
    # the table (chains run past 100 slots once k shifts down to 13);
    # one read has an N in every window, one a single N
    reads = [random_dna(120, rng) for _ in range(8)]
    reads.append("".join(b if i % 15 else "N" for i, b in enumerate(random_dna(90, rng))))
    reads.append(random_dna(40, rng) + "N" + random_dna(59, rng))
    tasks.append(ExtensionTask(
        cid=2, side=LEFT, contig=encode(random_dna(60, rng)),
        reads=tuple(encode(r) for r in reads),
        quals=tuple(q(len(r)) for r in reads),
    ))
    # tandem repeats: one k-mer at many lanes of the same step
    reads = ["ACGT" * 20, random_dna(10, rng) + "AC" * 30, "T" * 70]
    tasks.append(ExtensionTask(
        cid=3, side=RIGHT, contig=encode(random_dna(50, rng) + "ACGT" * 6),
        reads=tuple(encode(r) for r in reads),
        quals=tuple(q(len(r)) for r in reads),
    ))
    # a real fork at the contig end: k shifts up until it runs out
    shared = random_dna(120, rng)
    reads, quals = [], []
    for hap in (shared + random_dna(100, rng), shared + random_dna(100, rng)):
        for i in range(30, len(hap) - 70 + 1, 8):
            reads.append(encode(hap[i : i + 70]))
            quals.append(q(70))
    tasks.append(ExtensionTask(cid=4, side=RIGHT, contig=encode(shared),
                               reads=tuple(reads), quals=tuple(quals)))
    return TaskSet(tasks)


@pytest.fixture(scope="module")
def config():
    return LocalAssemblyConfig(k_init=21, max_walk_len=150)


def _assert_identical_reports(a, b):
    assert a.extensions == b.extensions
    assert a.n_batches == b.n_batches
    assert len(a.launches) == len(b.launches)
    for la, lb in zip(a.launches, b.launches):
        assert la.name == lb.name
        assert (la.bin, la.kernel) == (lb.bin, lb.kernel)
        assert la.n_warps == lb.n_warps
        assert la.per_warp_inst == lb.per_warp_inst
        assert la.counters == lb.counters
        assert la.timing == lb.timing
    assert a.merged_counters() == b.merged_counters()


class TestBatchedDeterminism:
    @pytest.mark.bench_smoke
    @pytest.mark.parametrize("inputs", ["workload", "stress_workload"])
    def test_bit_identical_to_sequential(self, inputs, request, config, monkeypatch):
        tasks = request.getfixturevalue(inputs)
        seq = GpuLocalAssembler(config, engine="sequential").run(tasks)
        built_k = []
        build = batched_kernel._build_group

        def spy(wb, batch, rows, tasks_g, k, *rest):
            built_k.append(k)
            return build(wb, batch, rows, tasks_g, k, *rest)

        monkeypatch.setattr(batched_kernel, "_build_group", spy)
        bat = GpuLocalAssembler(config, engine="batched").run(tasks)
        _assert_identical_reports(seq, bat)
        if inputs == "stress_workload":  # the input reaches every path
            assert any(
                la.counters.labels.get("atomic_conflicts", 0) for la in bat.launches
            )
            assert len(set(built_k)) > 1

    def test_batched_matches_cpu_reference(self, workload, config):
        cpu, _ = run_local_assembly_cpu(workload, config)
        bat = GpuLocalAssembler(config, engine="batched").run(workload)
        assert bat.extensions == cpu

    def test_v1_falls_back_to_sequential(self, workload, config):
        """No batched v1 implementation is registered — engine='batched'
        must produce v1's sequential results, not crash."""
        seq = GpuLocalAssembler(config, kernel_version="v1",
                                engine="sequential").run(workload)
        bat = GpuLocalAssembler(config, kernel_version="v1",
                                engine="batched").run(workload)
        _assert_identical_reports(seq, bat)

    def test_extend_tasks_threads_engine(self, workload, config):
        seq, seq_report = extend_tasks(
            workload, config=config, mode="gpu",
            driver=GpuDriverConfig(engine="sequential"),
        )
        bat, bat_report = extend_tasks(
            workload, config=config, mode="gpu",
            driver=GpuDriverConfig(engine="batched"),
        )
        assert bat == seq
        _assert_identical_reports(
            seq_report.gpu_report, bat_report.gpu_report
        )

    def test_engine_validation(self, config):
        with pytest.raises(ValueError):
            GpuLocalAssembler(config, engine="warp-drive")
