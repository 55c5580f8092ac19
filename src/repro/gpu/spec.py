"""Hardware specifications of the simulated device.

Default numbers follow the paper's testbed (§5.1): one NVIDIA Tesla V100
(16 GB HBM2) attached over PCIe 3.0 x16 to a 24-core Xeon host.  Only the
architectural constants that the paper's analysis depends on are modelled:
the 32-byte minimum global-memory transaction, the 128-byte upper bound a
32-thread warp can request at once (4 bytes/thread), the widened request
size available through vector memory instructions, SM/bandwidth peaks, and
kernel-launch overheads with and without CUDA Graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive


@dataclass(frozen=True)
class GPUSpec:
    """Architectural constants of the simulated GPU (defaults: Tesla V100)."""

    name: str = "tesla-v100-sim"
    num_sms: int = 80
    warp_size: int = 32
    fp32_cores_per_sm: int = 64
    clock_ghz: float = 1.38
    #: HBM2 peak bandwidth in GB/s
    memory_bandwidth_gbs: float = 900.0
    #: sustained fraction of peak bandwidth achievable by SpMM-like kernels
    memory_efficiency: float = 0.75
    #: minimum global-memory transaction granularity in bytes
    transaction_bytes: int = 32
    #: maximum bytes one warp-level request covers with scalar 4-byte loads
    request_bytes: int = 128
    #: maximum bytes one warp-level request covers with vector memory
    #: instructions (float4 per thread, §4.2 "32/64/128 floats per request")
    vector_request_bytes: int = 512
    shared_mem_per_sm_kb: int = 96
    memory_gb: float = 16.0
    #: host-side latency to issue one kernel through the CUDA runtime (µs)
    kernel_launch_overhead_us: float = 6.5
    #: per-kernel issue latency when kernels are replayed via CUDA Graphs (µs)
    cudagraph_launch_overhead_us: float = 1.2
    #: maximum thread blocks resident per SM (occupancy bound used for the
    #: load-balance "Balanced" estimate of Fig. 12)
    max_blocks_per_sm: int = 16

    def __post_init__(self) -> None:
        for field_name in (
            "num_sms",
            "warp_size",
            "fp32_cores_per_sm",
            "clock_ghz",
            "memory_bandwidth_gbs",
            "transaction_bytes",
            "request_bytes",
            "vector_request_bytes",
            "memory_gb",
        ):
            check_positive(field_name, getattr(self, field_name))
        if not 0 < self.memory_efficiency <= 1.0:
            raise ValueError("memory_efficiency must be in (0, 1]")

    @property
    def peak_flops(self) -> float:
        """Peak FP32 throughput in FLOP/s (FMA counted as two FLOPs)."""
        return self.num_sms * self.fp32_cores_per_sm * 2.0 * self.clock_ghz * 1e9

    @property
    def effective_bandwidth(self) -> float:
        """Sustained global-memory bandwidth in bytes/s."""
        return self.memory_bandwidth_gbs * 1e9 * self.memory_efficiency

    @property
    def memory_bytes(self) -> int:
        return int(self.memory_gb * 1024**3)

    @property
    def max_active_blocks(self) -> int:
        """Upper bound on concurrently resident thread blocks."""
        return self.num_sms * self.max_blocks_per_sm


@dataclass(frozen=True)
class PCIeSpec:
    """Host↔device interconnect model (defaults: PCIe 3.0 x16)."""

    #: sustained host→device bandwidth for pinned memory, GB/s
    bandwidth_gbs: float = 12.0
    #: fixed per-transfer latency (driver + DMA setup), µs
    latency_us: float = 8.0
    #: throughput penalty for pageable (non-pinned) staging copies
    pageable_penalty: float = 1.6

    def __post_init__(self) -> None:
        check_positive("bandwidth_gbs", self.bandwidth_gbs)
        check_positive("pageable_penalty", self.pageable_penalty)

    def transfer_seconds(self, nbytes: float, *, pinned: bool = True) -> float:
        """Time to move ``nbytes`` across the link."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if nbytes == 0:
            return 0.0
        bandwidth = self.bandwidth_gbs * 1e9
        if not pinned:
            bandwidth /= self.pageable_penalty
        return self.latency_us * 1e-6 + nbytes / bandwidth


@dataclass(frozen=True)
class HostSpec:
    """CPU-side constants used for analytic host-operation costs."""

    #: per-framework-op host overhead when issuing kernels eagerly (µs);
    #: mirrors the Python/PyTorch dispatch cost the paper's CPU-side latency
    #: breakdown includes
    dispatch_overhead_us: float = 10.0
    #: per-kernel host overhead when a pre-captured CUDA Graph is replayed
    #: (the whole graph is issued with one driver call, §4.2/OOB reference)
    graph_dispatch_overhead_us: float = 0.8
    #: per-element cost of CSR -> sliced CSR conversion (ns per nnz)
    slicing_ns_per_nnz: float = 2.0
    #: per-element cost of overlap extraction between snapshots (ns per nnz)
    overlap_extract_ns_per_nnz: float = 4.0
    #: fixed per-snapshot host preparation (batching, indexing) in µs
    snapshot_prep_us: float = 40.0
    #: sustained host-memory gather throughput (feature/adjacency rows into
    #: one contiguous staging buffer), GB/s — the ``gather`` datapipe stage
    gather_bandwidth_gbs: float = 64.0
    #: sustained pageable→pinned staging-copy throughput, GB/s — the ``pin``
    #: datapipe stage
    pin_bandwidth_gbs: float = 32.0
