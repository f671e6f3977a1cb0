"""Functional SIMT ("GPU") simulator.

Stands in for CUDA + V100 hardware (see DESIGN.md §2): kernels written
against the :class:`~repro.gpusim.warp.Warp` API execute functionally on
the host while counting warp instructions, predication and 32-byte memory
transactions; an analytic V100 timing model prices each launch; the
Instruction Roofline module reproduces the paper's §4.2 analysis.
"""

from repro.gpusim.batched import (
    BatchCounters,
    WarpBatch,
    batched_impl,
    register_batched,
    set_active_sanitizer,
)
from repro.gpusim.counters import KernelCounters
from repro.gpusim.device import V100, WARP_SIZE, DeviceSpec
from repro.gpusim.kernel import (
    ENGINE_MODES,
    OVERLAP_MODES,
    GpuContext,
    LaunchResult,
)
from repro.gpusim.memory import (
    DeviceAllocator,
    DeviceArray,
    DeviceFreeError,
    DeviceOutOfMemory,
    count_sectors,
)
from repro.gpusim.streams import HOST_LANE, Event, Stream, StreamTimeline, TimelineOp
from repro.gpusim.roofline import (
    MEMORY_WALLS,
    RooflinePoint,
    render_roofline,
    roofline_point,
)
from repro.gpusim.timing import KernelTiming, TimingModel
from repro.gpusim.warp import Warp

__all__ = [
    "KernelCounters",
    "DeviceSpec",
    "V100",
    "WARP_SIZE",
    "GpuContext",
    "LaunchResult",
    "DeviceAllocator",
    "DeviceArray",
    "DeviceFreeError",
    "DeviceOutOfMemory",
    "count_sectors",
    "RooflinePoint",
    "roofline_point",
    "render_roofline",
    "MEMORY_WALLS",
    "TimingModel",
    "KernelTiming",
    "Warp",
    "ENGINE_MODES",
    "OVERLAP_MODES",
    "Event",
    "Stream",
    "StreamTimeline",
    "TimelineOp",
    "HOST_LANE",
    "BatchCounters",
    "WarpBatch",
    "register_batched",
    "batched_impl",
    "set_active_sanitizer",
]
