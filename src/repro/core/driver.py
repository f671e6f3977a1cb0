"""Host-side GPU local-assembly driver (§4.3 / Fig 11 of the paper).

The driver owns everything outside the kernels: contig binning, exact
hash-table sizing, batching under the device memory budget, packing tasks
into flat device buffers, launching per-bin kernels (bin 3 — the few
contigs with the most reads — first, so the GPU always has its largest
work set available), and unpacking extension results.

Two execution shapes share one codebase:

* ``overlap="off"`` — the classic synchronous driver: stage, upload,
  launch, copy back, one batch at a time.  Every op still lands on the
  context's stream timeline, fully serialised, so the reported critical
  path equals the serial sum.
* ``overlap="on"`` — the §3.1 double-buffered pipeline: a persistent
  stager worker packs batch N+1 into host staging buffers (real NumPy
  work) while the engine executes batch N; uploads ride copy streams,
  kernels ride the compute stream, and events order them.  Bin 3 launches
  first and bin 2's transfers overlap bin 3's tail, exactly the
  prefetch/compute overlap MHM2 uses.  The memory budget is split
  ``prefetch + 1`` ways so the modelled double-residency is honest.

The host path is engineered to stay off the real-time critical path
(wall clock must track the model, not fight it):

* staging is bulk NumPy into recycled :class:`~repro.core.gpu_batch.
  StagingArena` buffers; device buffers recycle through a
  :class:`~repro.core.gpu_batch.DeviceArena` (both skipped under a
  sanitizer, which wants precise per-allocation attribution);
* on the batched engine, the overlapped driver *fuses* each wave of up
  to ``prefetch + 1`` same-bin batches into one SoA sweep
  (:meth:`~repro.gpusim.kernel.GpuContext.launch_fused`), paying the
  per-op Python overhead once per wave instead of once per batch.  The
  per-warp counters split back exactly, so every reported launch — and
  the modelled timeline — is identical to the unfused schedule;
* a :class:`~repro.perf.HostProfiler` (``profile_host=True``) times every
  stage/upload/dispatch/unpack/free block so the claims are measured.

Results are bit-identical to :func:`repro.core.cpu_local_assembly.
run_local_assembly_cpu` — and across ``overlap`` modes and engines; what
differs is the *measured machine behaviour* (instructions, transactions,
predication, modelled time, now including the stream-timeline critical
path) that the experiments consume.
"""

from __future__ import annotations

import queue
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.binning import ContigBins, bin_contigs
from repro.core.config import GpuDriverConfig, LocalAssemblyConfig
from repro.core.extension_kernel import (
    extension_task_kernel_v1,
    extension_task_kernel_v2,
)
import repro.core.extension_kernel_batched  # noqa: F401  (registers the batched v2 impl)
from repro.core.gpu_batch import (
    DeviceArena,
    StagingArena,
    TaskListView,
    free_batch,
    fuse_staged,
    stage_batch,
    upload_batch,
)
from repro.core.ht_sizing import plan_batches
from repro.core.tasks import TaskSet
from repro.gpusim.batched import batched_impl
from repro.gpusim.counters import KernelCounters
from repro.gpusim.device import V100, DeviceSpec
from repro.gpusim.kernel import GpuContext, LaunchResult
from repro.perf import HostProfiler
from repro.sequence.dna import decode

__all__ = ["GpuLocalAssemblyReport", "GpuLocalAssembler", "shutdown_stager"]

#: one entry per :data:`~repro.core.config.KERNEL_VERSIONS` value.
_KERNELS = {
    "v1": extension_task_kernel_v1,
    "v2": extension_task_kernel_v2,
}

#: timeline lane names used by the driver.
_STAGE_LANE = "host.stage"
_DRIVE_LANE = "host.drive"

#: the persistent stager worker, shared by every overlapped run in the
#: process (satellite of the per-run thread churn: one executor, reused).
_STAGER: ThreadPoolExecutor | None = None
_STAGER_LOCK = threading.Lock()


def _stager_executor() -> ThreadPoolExecutor:
    global _STAGER
    with _STAGER_LOCK:
        if _STAGER is None:
            _STAGER = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-stager"
            )
        return _STAGER


def shutdown_stager(wait: bool = True) -> None:
    """Idempotently shut down the process-wide stager executor.

    Long-lived processes (the job service's lifecycle, test harnesses)
    call this when they are done running overlapped drivers; the next
    overlapped run after a shutdown lazily recreates the executor.
    Calling it with no executor alive is a no-op.
    """
    global _STAGER
    with _STAGER_LOCK:
        stager, _STAGER = _STAGER, None
    if stager is not None:
        stager.shutdown(wait=wait)


@dataclass
class GpuLocalAssemblyReport:
    """Everything measured during one GPU local-assembly run."""

    extensions: dict[tuple[int, int], str]
    bins: ContigBins
    launches: list[LaunchResult] = field(default_factory=list)
    n_batches: int = 0
    transfer_time_s: float = 0.0
    transfer_bytes: int = 0
    h2d_bytes: int = 0
    d2h_bytes: int = 0
    high_water_bytes: int = 0
    #: effective overlap mode of the run ("on" / "off"; a sanitized run
    #: serialises, so it reports "off" even when overlap was requested).
    overlap: str = "off"
    #: the measured critical path over the stream timelines: host staging
    #: and unpacking (measured thread-CPU seconds) plus device transfers
    #: and kernels (modelled V100 seconds), placed by their dependency
    #: structure.  With ``overlap="off"`` this is the serial sum of every
    #: op; with ``overlap="on"`` it is the pipeline's makespan.
    critical_path_s: float = 0.0
    #: the :class:`~repro.gpusim.streams.StreamTimeline` of the run —
    #: call ``timeline.save_chrome_trace(path)`` for a profiler view.
    timeline: "object" = field(default=None, repr=False)
    #: SanitizerReport when the run was sanitized, else None
    sanitizer: "object" = None
    #: :class:`~repro.perf.HostProfiler` with per-phase wall-clock records
    #: when the run had ``profile_host=True``, else None.
    host_profile: "object" = field(default=None, repr=False)

    @property
    def kernel_time_s(self) -> float:
        return sum(l.time_s for l in self.launches)

    @property
    def total_time_s(self) -> float:
        """Serially-summed modelled GPU-op time: transfers + kernels.

        Kept as the legacy scalar; :attr:`critical_path_s` is the
        pipeline-aware quantity measured over the stream timelines.
        """
        return self.kernel_time_s + self.transfer_time_s

    def bin_kernel_time_s(self, bin_name: str) -> float:
        """Kernel time attributed to one contig bin ("bin2" / "bin3").

        Matches on the structured :attr:`LaunchResult.bin` field, not on
        launch-name substrings (a launch named e.g. ``"rebin3_pass"`` must
        not leak into ``bin3``'s total).
        """
        return sum(l.time_s for l in self.launches if l.bin == bin_name)

    def host_lane_time_s(self) -> float:
        """Total measured host work (staging + unpacking) on the timeline."""
        if self.timeline is None:
            return 0.0
        return self.timeline.lane_busy_s(_STAGE_LANE) + self.timeline.lane_busy_s(
            _DRIVE_LANE
        )

    def host_dispatch_s(self) -> float:
        """Real host seconds spent driving the engine across all launches."""
        return sum(l.host_dispatch_s for l in self.launches)

    def merged_counters(self) -> KernelCounters:
        merged = KernelCounters()
        for l in self.launches:
            merged.merge(l.counters)
        return merged

    def n_extended(self) -> int:
        return sum(1 for e in self.extensions.values() if e)


class GpuLocalAssembler:
    """Runs local assembly on the simulated GPU.

    Parameters
    ----------
    config:
        Algorithm tunables (shared with the CPU path).
    device:
        Simulated device spec (default V100, as on Summit).
    driver:
        The driver knobs (:class:`~repro.core.config.GpuDriverConfig`),
        passed whole by the upper layers.
    **knobs:
        Individual :class:`~repro.core.config.GpuDriverConfig` fields
        (``kernel_version="v1"``, ``overlap="on"``, ...) overriding
        *driver*; validated by the config.
    """

    def __init__(
        self,
        config: LocalAssemblyConfig | None = None,
        device: DeviceSpec = V100,
        *,
        driver: GpuDriverConfig | None = None,
        **knobs,
    ) -> None:
        self.config = config or LocalAssemblyConfig()
        self.device = device
        self.driver = replace(driver or GpuDriverConfig(), **knobs)

    def run(self, tasks: TaskSet) -> GpuLocalAssemblyReport:
        """Extend every task; returns the report with all measurements."""
        cfg = self.config
        bins = bin_contigs(tasks, cfg)
        extensions: dict[tuple[int, int], str] = {}

        tasks_by_cid: dict[int, list[int]] = defaultdict(list)
        for i, t in enumerate(tasks):
            tasks_by_cid[t.cid].append(i)

        # Bin 1: zero candidate reads — never offloaded (§3.1).
        for cid in bins.bin1:
            for i in tasks_by_cid[cid]:
                extensions[(tasks[i].cid, tasks[i].side)] = ""

        # The sanitizer's shadow state is single-threaded: serialise.
        drv = self.driver
        overlap_on = drv.overlap == "on" and drv.sanitize == "off"
        ctx = GpuContext(
            device=self.device,
            engine=drv.engine,
            sanitize=drv.sanitize,
            overlap="on" if overlap_on else "off",
            n_streams=drv.streams,
        )
        prof = HostProfiler(enabled=drv.profile_host)
        report = GpuLocalAssemblyReport(
            extensions=extensions,
            bins=bins,
            overlap="on" if overlap_on else "off",
            host_profile=prof if drv.profile_host else None,
        )

        work = self._plan_work(tasks, bins, tasks_by_cid, overlap_on)
        if overlap_on:
            self._run_overlapped(ctx, work, extensions, report, prof)
        else:
            self._run_serial(ctx, work, extensions, report, prof)

        report.launches = list(ctx.launches)
        report.transfer_time_s = ctx.transfer_time_s
        report.transfer_bytes = ctx.transfer_bytes
        report.h2d_bytes = ctx.h2d_bytes
        report.d2h_bytes = ctx.d2h_bytes
        report.high_water_bytes = ctx.allocator.high_water_bytes
        report.critical_path_s = ctx.synchronize()
        report.timeline = ctx.timeline
        report.sanitizer = ctx.sanitizer_report()
        return report

    # -- batch planning ----------------------------------------------------------

    def _plan_work(
        self, tasks, bins, tasks_by_cid, overlap_on: bool
    ) -> list[tuple[str, list, str]]:
        """The launch schedule: ``(bin_name, batch_tasks, label)`` rows,
        bin 3 first (§4.3: the GPU fares best with the most work).

        The overlapped pipeline needs at least two batches in flight to
        hide anything, and at most ``prefetch + 1`` of them resident on
        the device — so the memory budget is split that many ways, and a
        bin whose whole task list fits one batch is split evenly instead.
        An explicit ``batch_cap`` chunks further, identically in both
        overlap modes.
        """
        budget = self.device.global_mem_bytes
        if self.driver.mem_budget is not None:
            budget = min(budget, self.driver.mem_budget)
        parts = self.driver.prefetch + 1
        if overlap_on:
            budget //= parts
        work: list[tuple[str, list, str]] = []
        for bin_name, cids in (("bin3", bins.bin3), ("bin2", bins.bin2)):
            bin_tasks = [tasks[i] for cid in cids for i in tasks_by_cid[cid]]
            if not bin_tasks:
                continue
            planned = plan_batches(TaskListView(bin_tasks), budget)
            if self.driver.batch_cap is not None:
                cap = self.driver.batch_cap
                planned = [
                    ids[a : a + cap]
                    for ids in planned
                    for a in range(0, len(ids), cap)
                ]
            if overlap_on and len(planned) == 1 and len(planned[0]) > 1:
                planned = _split_even(planned[0], parts)
            for k, batch_ids in enumerate(planned):
                work.append(
                    (bin_name, [bin_tasks[i] for i in batch_ids], f"{bin_name}.{k}")
                )
        return work

    def _n_warps(self, n_tasks: int) -> int:
        # v2: one warp per task; v1 (thread-per-table): one warp carries
        # 32 tasks, one per lane.
        if self.driver.kernel_version == "v1":
            return (n_tasks + 31) // 32
        return n_tasks

    # -- synchronous driver ------------------------------------------------------

    def _run_serial(self, ctx: GpuContext, work, extensions, report, prof) -> None:
        """Stage, upload, launch, unpack — one batch at a time.

        Ops still land on the (serialised) timeline, so the critical
        path degenerates to the serial sum — the pre-stream behaviour.
        Unsanitized runs recycle host and device buffers through arenas;
        sanitized runs keep the reset-per-batch allocator discipline so
        every allocation stays individually attributable.
        """
        kernel = _KERNELS[self.driver.kernel_version]
        compute = ctx.stream("compute")
        darena = DeviceArena(ctx) if ctx.sanitizer is None else None
        sarena = StagingArena() if ctx.sanitizer is None else None
        for b, (bin_name, batch_tasks, label) in enumerate(work):
            copy = ctx.stream(f"copy{b % ctx.n_streams}")
            with ctx.timeline.host_slice(f"stage {label}", _STAGE_LANE) as st:
                with prof.phase("stage", label):
                    staged = stage_batch(batch_tasks, self.config, arena=sarena)
            if darena is None:
                ctx.allocator.reset()
            with prof.phase("upload", label):
                batch, ev_h2d = upload_batch(
                    ctx, staged, stream=copy, deps=(st.event,), arena=darena
                )
            with prof.phase("dispatch", label):
                _, ev_kernel = ctx.launch_async(
                    f"extension_{bin_name}_{self.driver.kernel_version}",
                    kernel,
                    self._n_warps(len(batch_tasks)),
                    batch,
                    np.arange(len(batch_tasks)),
                    stream=compute,
                    deps=(ev_h2d,),
                    bin_name=bin_name,
                    kernel_version=self.driver.kernel_version,
                )
            with prof.phase("unpack", label):
                self._unpack(ctx, batch, staged, extensions, copy, ev_kernel, label)
            if darena is not None:
                with prof.phase("free", label):
                    free_batch(ctx, batch, arena=darena)
            report.n_batches += 1

    # -- double-buffered driver --------------------------------------------------

    def _run_overlapped(self, ctx: GpuContext, work, extensions, report, prof) -> None:
        """The §3.1 pipeline: the persistent stager worker packs batch
        N+1 while the engine executes batch N; copies and kernels overlap
        on streams.  On the batched engine, each wave of up to
        ``prefetch + 1`` same-bin batches runs as one fused SoA sweep."""
        cfg = self.config
        staged_q: queue.Queue = queue.Queue(maxsize=self.driver.prefetch)
        stop = threading.Event()
        # Staging-arena ring: an item's big arrays must survive from the
        # stager (≤ queue + 1 in flight) through the consumer's wave
        # buffer (≤ prefetch + 1 held) until fused/uploaded.
        arenas = [StagingArena() for _ in range(2 * self.driver.prefetch + 3)]

        def stage_all() -> None:
            try:
                for i, (bin_name, batch_tasks, label) in enumerate(work):
                    if stop.is_set():
                        return
                    with ctx.timeline.host_slice(f"stage {label}", _STAGE_LANE) as st:
                        with prof.phase("stage", label):
                            staged = stage_batch(
                                batch_tasks, cfg, arena=arenas[i % len(arenas)]
                            )
                    staged_q.put((staged, st.event))
            except BaseException as exc:  # surfaces in the driver thread
                staged_q.put(exc)

        future = _stager_executor().submit(stage_all)
        kernel = _KERNELS[self.driver.kernel_version]
        compute = ctx.stream("compute")
        darena = DeviceArena(ctx) if ctx.sanitizer is None else None
        # Fused dispatch needs the batched engine (and its BatchCounters
        # row-local accounting); anything else keeps per-batch launches.
        fused_ok = (
            darena is not None
            and ctx.engine_mode == "batched"
            and batched_impl(kernel) is not None
        )
        waves = _plan_waves(work, self.driver.prefetch + 1 if fused_ok else 1)
        b = 0

        def next_staged():
            item = staged_q.get()
            if isinstance(item, BaseException):
                raise item
            return item

        try:
            for rows in waves:
                bin_name = work[rows[0]][0]
                entries = [next_staged() for _ in rows]
                copy = ctx.stream(f"copy{b % ctx.n_streams}")
                if len(rows) == 1:
                    staged, ev_stage = entries[0]
                    label = work[rows[0]][2]
                    with prof.phase("upload", label):
                        batch, ev_h2d = upload_batch(
                            ctx, staged, stream=copy, deps=(ev_stage,), arena=darena
                        )
                    with prof.phase("dispatch", label):
                        _, ev_kernel = ctx.launch_async(
                            f"extension_{bin_name}_{self.driver.kernel_version}",
                            kernel,
                            self._n_warps(len(work[rows[0]][1])),
                            batch,
                            np.arange(batch.n_tasks),
                            stream=compute,
                            deps=(ev_h2d,),
                            bin_name=bin_name,
                            kernel_version=self.driver.kernel_version,
                        )
                    with prof.phase("unpack", label):
                        self._unpack(
                            ctx, batch, staged, extensions, copy, ev_kernel, label
                        )
                else:
                    labels = [work[r][2] for r in rows]
                    wave_label = f"{labels[0]}+{len(rows) - 1}"
                    with prof.phase("stage", f"fuse {wave_label}"):
                        fused = fuse_staged([e[0] for e in entries])
                    with prof.phase("upload", wave_label):
                        batch, ev_h2d = upload_batch(
                            ctx,
                            fused,
                            stream=copy,
                            deps=tuple(e[1] for e in entries),
                            arena=darena,
                        )
                    sub_warps = [len(work[r][1]) for r in rows]
                    with prof.phase("dispatch", wave_label):
                        results = ctx.launch_fused(
                            f"extension_{bin_name}_{self.driver.kernel_version}",
                            kernel,
                            sub_warps,
                            batch,
                            np.arange(batch.n_tasks),
                            bin_name=bin_name,
                            kernel_version=self.driver.kernel_version,
                        )
                    # Per-sub kernel + D2H ops keep the modelled timeline
                    # identical to the unfused schedule.
                    deps = (ev_h2d,)
                    lo = 0
                    for res, label, n_sub in zip(results, labels, sub_warps):
                        ev_kernel = ctx.timeline.push(
                            compute, res.name, "kernel", res.time_s, deps
                        )
                        deps = (ev_kernel,)
                        with prof.phase("unpack", label):
                            self._unpack(
                                ctx, batch, fused, extensions, copy, ev_kernel,
                                label, lo, lo + n_sub,
                            )
                        lo += n_sub
                if darena is not None:
                    with prof.phase("free", work[rows[-1]][2]):
                        free_batch(ctx, batch, arena=darena)
                report.n_batches += len(rows)
                b += 1
        finally:
            # On an error path the stager may be blocked on a full queue;
            # signal it, drain so it can finish, then wait it out.
            stop.set()
            try:
                while True:
                    staged_q.get_nowait()
            except queue.Empty:
                pass
            future.exception(timeout=60.0)

    # -- unpacking ---------------------------------------------------------------

    def _unpack(
        self, ctx, batch, staged, extensions, copy_stream, ev_kernel, label,
        lo: int = 0, hi: int | None = None,
    ) -> None:
        """Copy back only the per-task extension spans and decode them.

        The kernel appends the extension at ``[init_len, seq_len)`` of
        each task's region in ``seq_buf``; everything else (the contig
        tails and unused capacity) never crosses the bus.  ``[lo, hi)``
        restricts the copy to one sub-batch of a fused wave (the byte
        totals match the unfused per-batch copies exactly).
        """
        if hi is None:
            hi = batch.n_tasks
        regions = [
            (
                int(batch.seq_offsets[j]) + int(staged.seq_len_host[j]),
                int(batch.seq_offsets[j]) + int(batch.seq_len[j]),
            )
            for j in range(lo, hi)
        ]
        spans, ev_spans = ctx.from_device_regions_async(
            batch.seq_buf, regions, copy_stream,
            f"D2H ext {label}", (ev_kernel,),
        )
        if lo == 0 and hi == batch.n_tasks:
            _, ev_len = ctx.from_device_async(
                batch.out_ext_len, copy_stream, f"D2H ext_len {label}", (ev_kernel,)
            )
        else:
            _, ev_len = ctx.from_device_regions_async(
                batch.out_ext_len, [(lo, hi)], copy_stream,
                f"D2H ext_len {label}", (ev_kernel,),
            )
        with ctx.timeline.host_slice(
            f"unpack {label}", _DRIVE_LANE, deps=(ev_spans, ev_len)
        ):
            for j in range(lo, hi):
                task = batch.tasks[j]
                extensions[(task.cid, task.side)] = decode(spans[j - lo])


def _split_even(ids: list[int], parts: int) -> list[list[int]]:
    """Split *ids* into up to *parts* contiguous near-equal chunks."""
    parts = min(parts, len(ids))
    bounds = np.linspace(0, len(ids), parts + 1).astype(int)
    return [ids[a:b] for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _plan_waves(work, wave_size: int) -> list[list[int]]:
    """Group consecutive same-bin rows of *work* into waves of up to
    *wave_size* (the fused-dispatch units; 1 = per-batch dispatch)."""
    waves: list[list[int]] = []
    i = 0
    while i < len(work):
        j = i
        while j < len(work) and work[j][0] == work[i][0] and j - i < wave_size:
            j += 1
        waves.append(list(range(i, j)))
        i = j
    return waves
