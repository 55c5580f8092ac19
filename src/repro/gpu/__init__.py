"""Simulated GPU: specs, cost models, timeline, device and profiler."""

from repro.gpu.spec import GPUSpec, HostSpec, PCIeSpec
from repro.gpu.kernel_cost import (
    CATEGORIES,
    CATEGORY_AGGREGATION,
    CATEGORY_ELEMENTWISE,
    CATEGORY_OTHER,
    CATEGORY_RNN,
    CATEGORY_UPDATE,
    KernelCost,
)
from repro.gpu.memory_model import (
    FLOAT_BYTES,
    RowAccessCost,
    contiguous_bytes_cost,
    row_access,
)
from repro.gpu.warp_model import (
    MAX_COALESCE_NUM,
    baseline_active_thread_ratio,
    choose_coalesce_num,
    coalesced_active_thread_ratio,
)
from repro.gpu.load_balance import (
    LoadBalanceReport,
    analyze_block_work,
    block_work_from_row_nnz,
    block_work_from_slice_nnz,
)
from repro.gpu.timeline import (
    RESOURCE_COMPUTE,
    RESOURCE_CPU,
    RESOURCE_PCIE_D2H,
    RESOURCE_PCIE_H2D,
    Timeline,
    TimelineOp,
    TimelineOps,
    op_records,
)
from repro.gpu.device import KernelStats, OutOfMemoryError, SimulatedGPU
from repro.gpu.interconnect import NVLINK, PCIE_PEER, Interconnect, LinkSpec
from repro.gpu.device_group import COMM_STREAM, RESOURCE_PEER_LINK, DeviceGroup
from repro.gpu.profiler import KernelCostCollector, estimate_event_cost

__all__ = [
    "GPUSpec",
    "HostSpec",
    "PCIeSpec",
    "CATEGORIES",
    "CATEGORY_AGGREGATION",
    "CATEGORY_ELEMENTWISE",
    "CATEGORY_OTHER",
    "CATEGORY_RNN",
    "CATEGORY_UPDATE",
    "KernelCost",
    "FLOAT_BYTES",
    "RowAccessCost",
    "contiguous_bytes_cost",
    "row_access",
    "MAX_COALESCE_NUM",
    "baseline_active_thread_ratio",
    "choose_coalesce_num",
    "coalesced_active_thread_ratio",
    "LoadBalanceReport",
    "analyze_block_work",
    "block_work_from_row_nnz",
    "block_work_from_slice_nnz",
    "RESOURCE_COMPUTE",
    "RESOURCE_CPU",
    "RESOURCE_PCIE_D2H",
    "RESOURCE_PCIE_H2D",
    "Timeline",
    "TimelineOp",
    "TimelineOps",
    "op_records",
    "KernelStats",
    "OutOfMemoryError",
    "SimulatedGPU",
    "COMM_STREAM",
    "RESOURCE_PEER_LINK",
    "DeviceGroup",
    "Interconnect",
    "LinkSpec",
    "NVLINK",
    "PCIE_PEER",
    "KernelCostCollector",
    "estimate_event_cost",
]
