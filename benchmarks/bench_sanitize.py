"""Sanitizer overhead — the cost of running every dynamic checker.

Times the 100-uniform-warp reference workload (the same protocol as
``bench_engine_scaling.bench_batched_trio``) with ``sanitize="off"``
versus ``sanitize="full"`` on each engine, and records the slowdown.
Checked invariants: every sanitized run reports **zero** errors, and the
extensions are bit-identical with and without the checkers — turning the
sanitizer on must observe the kernels, never steer them.

Results land in ``benchmarks/results/sanitize_overhead.txt`` and
``benchmarks/results/BENCH_sanitize.json``.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

import numpy as np

from conftest import record

from repro.analysis.reporting import format_table
from repro.core.config import LocalAssemblyConfig
from repro.core.driver import GpuLocalAssembler
from repro.core.tasks import RIGHT, ExtensionTask, TaskSet
from repro.sequence.dna import encode, random_dna

CFG = LocalAssemblyConfig(k_init=21, max_walk_len=150)
RESULTS_DIR = Path(__file__).parent / "results"


def _uniform_workload(n_warps: int = 100) -> TaskSet:
    rng = np.random.default_rng(7)
    tasks = []
    for cid in range(n_warps):
        genome = random_dna(320, rng)
        reads, quals = [], []
        for i in range(0, len(genome) - 70 + 1, 5):
            reads.append(encode(genome[i : i + 70]))
            quals.append(np.full(70, 40, dtype=np.uint8))
        tasks.append(
            ExtensionTask(
                cid=cid, side=RIGHT, contig=encode(genome[:120]),
                reads=tuple(reads), quals=tuple(quals),
            )
        )
    return TaskSet(tasks)


def _run(tasks, engine: str, sanitize: str):
    gc.collect()
    t0 = time.perf_counter()
    report = GpuLocalAssembler(CFG, engine=engine, sanitize=sanitize).run(tasks)
    return report, time.perf_counter() - t0


def bench_sanitize_overhead(benchmark):
    tasks = _uniform_workload(100)
    engines = ["sequential", "batched"]

    def sweep():
        _run(tasks, "batched", "off")  # warmup
        out = {}
        for engine in engines:
            off = min(
                (_run(tasks, engine, "off") for _ in range(2)),
                key=lambda rw: rw[1],
            )
            full = min(
                (_run(tasks, engine, "full") for _ in range(2)),
                key=lambda rw: rw[1],
            )
            out[engine] = (off, full)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    base_report, _ = results["sequential"][0]
    n_warps = sum(l.n_warps for l in base_report.launches)
    rows, entries = [], []
    for engine, ((off_rep, off_wall), (full_rep, full_wall)) in results.items():
        san = full_rep.sanitizer
        assert san is not None and san.clean, san and san.summary()
        assert full_rep.extensions == off_rep.extensions
        assert off_rep.extensions == base_report.extensions
        slowdown = full_wall / off_wall if off_wall else 0.0
        rows.append(
            (engine, f"{off_wall:.2f}", f"{full_wall:.2f}",
             f"{slowdown:.1f}x", f"{san.n_checked:,}")
        )
        entries.append(
            {
                "engine": engine,
                "off_wall_s": off_wall,
                "full_wall_s": full_wall,
                "slowdown": slowdown,
                "n_checked": san.n_checked,
                "n_errors": san.n_errors,
            }
        )

    text = format_table(
        ["engine", "off (s)", "full (s)", "slowdown", "accesses checked"],
        rows,
        f"Sanitizer overhead — {n_warps} uniform warps, sanitize=full "
        "(memcheck+racecheck+initcheck)",
    )
    record("sanitize_overhead", text)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_sanitize.json").write_text(
        json.dumps(
            {
                "bench": "sanitize_overhead",
                "n_warps": n_warps,
                "mode": "full",
                "results": entries,
            },
            indent=2,
        )
        + "\n"
    )
