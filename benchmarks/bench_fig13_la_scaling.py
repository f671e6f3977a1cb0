"""Figure 13 — local assembly CPU vs GPU across 64-1024 Summit nodes (WA).

Paper: >7x at 64 nodes, decaying to 2.65x at 1024 nodes because the work
available per GPU shrinks under strong scaling while fixed overheads stay.

Reproduced from the calibrated scale model; the decay mechanism is the
V100 occupancy curve (per-GPU warps fall below the latency-hiding
saturation point past ~512 nodes).
"""

from conftest import record

from repro.analysis.reporting import format_table, paper_vs_measured
from repro.distributed.strong_scaling import PAPER_NODES, la_scaling_table
from repro.distributed.summit import WA_PROFILE

#: Figure 13's approximate values, read off the plot (cpu_s, gpu_s).
PAPER_FIG13 = {
    64: (723, 103, 7.0),
    128: (362, 58, 6.2),
    256: (181, 34, 5.4),
    512: (90, 23, 4.0),
    1024: (45, 17, 2.65),
}


def bench_fig13_la_scaling(benchmark):
    rows = benchmark(la_scaling_table)

    table_rows = []
    for r in rows:
        p_cpu, p_gpu, p_sp = PAPER_FIG13[r.nodes]
        table_rows.append(
            (r.nodes, p_cpu, round(r.cpu_s, 1), p_gpu, round(r.gpu_s, 1),
             p_sp, round(r.speedup, 2))
        )
    occ_rows = [
        (n, int(WA_PROFILE.gpu_local_assembly.warps_per_gpu(n)),
         round(WA_PROFILE.gpu_local_assembly.device.occupancy(
             int(WA_PROFILE.gpu_local_assembly.warps_per_gpu(n))), 2))
        for n in PAPER_NODES
    ]
    text = "\n\n".join(
        [
            format_table(
                ["nodes", "paper cpu_s", "repro cpu_s", "paper gpu_s",
                 "repro gpu_s", "paper speedup", "repro speedup"],
                table_rows,
                "Fig 13 — local assembly strong scaling (WA, Summit)",
            ),
            format_table(
                ["nodes", "warps/GPU", "occupancy"],
                occ_rows,
                "decay mechanism: per-GPU work vs latency-hiding capacity",
            ),
        ]
    )
    record("fig13_la_scaling", text)

    by_nodes = {r.nodes: r for r in rows}
    assert abs(by_nodes[64].speedup - 7.0) < 0.4
    assert abs(by_nodes[1024].speedup - 2.65) < 0.4
    speedups = [by_nodes[n].speedup for n in PAPER_NODES]
    assert all(a > b for a, b in zip(speedups, speedups[1:]))


def bench_fig13_measured_ranked_la(benchmark, workload):
    """The strong-scaling *mechanism*, measured: local assembly dealt
    over real worker processes, largest tasks first (LPT).  Results stay bit-identical at
    every rank count while the critical-path CPU falls; the calibrated
    model above remains the overlay for Summit-scale node counts."""
    from conftest import record as _record

    from repro.distributed.procrank import (
        procrank_available,
        ranked_extend_tasks,
    )

    if not procrank_available():  # pragma: no cover - CI always has fork
        import pytest

        pytest.skip("process ranks need fork + POSIX shared memory")

    # the full task set (not the driver subsample): per-rank fixed costs
    # (driver setup, result shipping) need enough work to amortise against
    # before the scaling curve means anything
    tasks = workload["tasks"]
    ranked_extend_tasks(tasks, 2, mode="gpu")  # fork warmup

    def sweep():
        out = []
        for r in (1, 2, 4):
            best = None
            for _ in range(2):
                ext, report = ranked_extend_tasks(tasks, r, mode="gpu")
                if best is None or report.cpu_critical_s < best[1].cpu_critical_s:
                    best = (ext, report)
            out.append((r,) + best)
        return out

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    base_ext, base_cpu = rows[0][1], rows[0][2].cpu_critical_s
    table_rows = []
    for r, ext, report in rows:
        assert ext == base_ext, f"ranks={r} changed the extensions"
        table_rows.append(
            (r, len(ext), f"{report.cpu_critical_s:.3f}",
             f"{base_cpu / report.cpu_critical_s:.2f}x")
        )
    text = format_table(
        ["ranks", "tasks extended", "cpu critical (s)", "speedup"],
        table_rows,
        "Fig 13 (measured, process ranks): local assembly sharded across "
        "workers, bit-identical extensions (best of 2)",
    )
    _record("fig13_measured_ranked_la", text)
    # LA is embarrassingly parallel across tasks; per-rank CPU must
    # strong-scale even where the single-core wall clock cannot
    assert base_cpu / rows[2][2].cpu_critical_s > 1.5
