"""Node-level local assembly: mapping ranks/tasks onto multiple GPUs.

A Summit node carries 6 V100s shared by 42 UPC++ ranks; the paper's driver
performs "CPU-side data packing, device-to-rank mapping" (§4.3) and its
artifact runs MHM2 with ``--ranks-per-gpu=7``.  This module reproduces the
node-level structure: a :class:`NodeLocalAssembler` partitions extension
tasks across the node's simulated GPUs (balanced by estimated work, the
way the rank mapping amortises load), runs each partition through the
single-GPU driver, and reports the node wall time as the slowest GPU's
time — exposing node-level load imbalance as a first-class quantity.

Results remain bit-identical to the CPU reference regardless of the GPU
count or the partitioning (tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import GpuDriverConfig, LocalAssemblyConfig
from repro.core.driver import GpuLocalAssembler, GpuLocalAssemblyReport
from repro.core.ht_sizing import table_slots
from repro.core.tasks import TaskSet
from repro.gpusim.device import V100, DeviceSpec

__all__ = ["NodeLocalAssemblyReport", "NodeLocalAssembler", "partition_tasks_by_work"]


def partition_tasks_by_work(tasks: TaskSet, n_gpus: int) -> list[list[int]]:
    """Split task indices into *n_gpus* work-balanced groups.

    Work is estimated by table slots (= total candidate-read bases), the
    same proxy §3.2 sizes memory with.  Greedy longest-processing-time
    assignment; contigs stay whole (both sides of a contig go to the same
    GPU, so a contig's result never spans devices).
    """
    if n_gpus < 1:
        raise ValueError("need at least one GPU")
    # group task indices per contig
    by_cid: dict[int, list[int]] = {}
    for i, t in enumerate(tasks):
        by_cid.setdefault(t.cid, []).append(i)
    items = [
        (sum(table_slots(tasks[i]) for i in idxs), cid, idxs)
        for cid, idxs in by_cid.items()
    ]
    items.sort(key=lambda x: (-x[0], x[1]))
    loads = [0] * n_gpus
    groups: list[list[int]] = [[] for _ in range(n_gpus)]
    for work, _cid, idxs in items:
        g = int(np.argmin(loads))
        loads[g] += work
        groups[g].extend(idxs)
    return groups


@dataclass
class NodeLocalAssemblyReport:
    """Aggregated result of one node's multi-GPU local assembly."""

    extensions: dict[tuple[int, int], str]
    per_gpu: list[GpuLocalAssemblyReport] = field(default_factory=list)

    @property
    def n_gpus(self) -> int:
        return len(self.per_gpu)

    @property
    def gpu_times(self) -> list[float]:
        return [r.total_time_s for r in self.per_gpu]

    @property
    def wall_time_s(self) -> float:
        """Node wall time: GPUs run concurrently, the slowest gates."""
        return max(self.gpu_times, default=0.0)

    @property
    def total_gpu_time_s(self) -> float:
        return sum(self.gpu_times)

    @property
    def balance(self) -> float:
        """mean/max GPU time (1.0 = perfectly balanced node)."""
        times = self.gpu_times
        if not times or max(times) == 0:
            return 1.0
        return float(np.mean(times) / max(times))


class NodeLocalAssembler:
    """Runs local assembly across a node's simulated GPUs."""

    def __init__(
        self,
        config: LocalAssemblyConfig | None = None,
        n_gpus: int = 6,
        device: DeviceSpec = V100,
        driver: GpuDriverConfig | None = None,
    ) -> None:
        if n_gpus < 1:
            raise ValueError("need at least one GPU")
        self.config = config or LocalAssemblyConfig()
        self.n_gpus = n_gpus
        self.device = device
        self.driver = driver

    def run(self, tasks: TaskSet) -> NodeLocalAssemblyReport:
        groups = partition_tasks_by_work(tasks, self.n_gpus)
        extensions: dict[tuple[int, int], str] = {}
        per_gpu: list[GpuLocalAssemblyReport] = []
        for group in groups:
            assembler = GpuLocalAssembler(
                self.config, self.device, driver=self.driver
            )
            report = assembler.run(TaskSet([tasks[i] for i in group]))
            extensions.update(report.extensions)
            per_gpu.append(report)
        return NodeLocalAssemblyReport(extensions=extensions, per_gpu=per_gpu)
