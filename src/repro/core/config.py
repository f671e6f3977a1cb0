"""Configuration for the local-assembly module (CPU and GPU paths share it).

The defaults mirror the constants the paper states or implies:

* reads are Illumina short reads of length ≤ 300 (§3.2 worst case uses 300);
* the shortest k-mer "for reasonable accuracy is 21" (§3.2);
* candidate reads per contig end are capped at 3000 (§3.1);
* mer-walks run at most ~300 steps ("a DNA walk can be up to 300 steps
  long", §4.2).

:class:`GpuDriverConfig` holds the knobs of the simulated-GPU driver
(kernel variant, warp engine, sanitizer, overlap, batching); it is built
once at the edge (CLI, job spec, :class:`~repro.pipeline.pipeline.
PipelineConfig`) and passed whole down to the driver.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GpuDriverConfig", "KERNEL_VERSIONS", "LocalAssemblyConfig"]

#: extension-kernel variants the GPU driver can launch.
KERNEL_VERSIONS = ("v1", "v2")


@dataclass(frozen=True)
class LocalAssemblyConfig:
    """Tunables of the local assembly algorithm.

    Attributes
    ----------
    k_init:
        Mer length of the first walk attempt (normally the pipeline's k).
    k_min / k_max / k_step:
        Bounds and stride of the up/down-shifting state machine (§2.3).
    max_walk_len:
        Maximum bases appended by a single walk.
    hi_q_thresh:
        Phred score at/above which an extension base counts as
        high-quality.
    min_viable:
        High-quality occurrences needed for an extension base to be
        considered real; total occurrences are used as a fallback at the
        same threshold (low-coverage rescue).
    dominance_ratio:
        When several bases are viable, the top base still wins (no fork)
        if its count is at least this multiple of the runner-up.
    max_reads_per_end:
        The paper's empirical cap on candidate reads (§3.1).
    bin2_max_reads:
        Contigs with fewer candidate reads than this go to bin 2 (§3.1:
        "fewer than 10 reads"); those with zero go to bin 1.
    """

    k_init: int = 21
    k_min: int = 13
    k_max: int = 63
    k_step: int = 8
    max_walk_len: int = 300
    hi_q_thresh: int = 20
    min_viable: int = 2
    dominance_ratio: float = 2.0
    max_reads_per_end: int = 3000
    bin2_max_reads: int = 10

    def __post_init__(self) -> None:
        if not (0 < self.k_min <= self.k_init <= self.k_max):
            raise ValueError(
                f"need k_min <= k_init <= k_max, got "
                f"{self.k_min}/{self.k_init}/{self.k_max}"
            )
        if self.k_step < 1:
            raise ValueError("k_step must be >= 1")
        if self.max_walk_len < 1:
            raise ValueError("max_walk_len must be >= 1")
        if self.dominance_ratio < 1.0:
            raise ValueError("dominance_ratio must be >= 1.0")


@dataclass(frozen=True)
class GpuDriverConfig:
    """Knobs of the simulated-GPU local-assembly driver.

    None of them changes the extensions: every combination is
    bit-identical to the CPU reference.  They change how the work is
    executed and what is measured.

    Attributes
    ----------
    kernel_version:
        ``"v2"`` — the paper's warp-cooperative kernel (default) — or
        ``"v1"`` — the thread-per-table baseline of the §4.2 roofline
        comparison.
    engine:
        Warp execution mode (:data:`repro.gpusim.ENGINE_MODES`):
        ``"auto"`` (the batched SoA engine), ``"sequential"`` or
        ``"batched"``.  v1 has no batched twin and falls back to
        sequential interpretation.
    sanitize:
        Dynamic checker mode (``"off"``, ``"memcheck"``, ``"racecheck"``,
        ``"initcheck"`` or ``"full"``).  A sanitized run serialises the
        overlapped pipeline and disables buffer arenas and fused
        dispatch, so every allocation and launch stays attributable.
    overlap:
        ``"off"`` — the synchronous driver; ``"on"`` — the double-buffered
        pipeline: the stager packs batch N+1 while the engine executes
        batch N, and transfers overlap kernels on the modelled timeline.
    prefetch:
        Batches the stager may run ahead of the engine.  The device
        memory budget is split ``prefetch + 1`` ways; on the batched
        engine each wave of up to ``prefetch + 1`` same-bin batches
        dispatches as one fused SoA sweep.
    streams:
        Copy streams batches round-robin across (one compute stream).
    batch_cap:
        Optional cap on tasks per batch, applied on top of the
        memory-budget batching in both overlap modes.
    mem_budget:
        Optional device-memory budget in bytes, capped at the device's
        global memory.  The job service sets it per tenant.
    profile_host:
        Record per-phase host wall-clock timings
        (:class:`~repro.perf.HostProfiler`) on the GPU report.
    """

    kernel_version: str = "v2"
    engine: str = "auto"
    sanitize: str = "off"
    overlap: str = "off"
    prefetch: int = 1
    streams: int = 2
    batch_cap: int | None = None
    mem_budget: int | None = None
    profile_host: bool = False

    def __post_init__(self) -> None:
        from repro.gpusim.kernel import ENGINE_MODES, OVERLAP_MODES
        from repro.sanitize import SANITIZE_MODES

        for name, allowed in (
            ("kernel_version", KERNEL_VERSIONS),
            ("engine", ENGINE_MODES),
            ("sanitize", SANITIZE_MODES),
            ("overlap", OVERLAP_MODES),
        ):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(
                    f"{name} must be one of {allowed}, got {value!r}"
                )
        for name in ("prefetch", "streams"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("batch_cap", "mem_budget"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1 (or None)")
