"""Fig. 11 and §5.3: detailed analysis of the parallel GNN.

(a) GNN-module execution-time speedup over PyGT and PyGT-G plus the
    reduction in global-memory requests/transactions versus PyGT-G;
(b) normalized GNN speedup over PyGT as the feature dimension changes
    (dimension sensitivity);
thread utilization: average warp execution efficiency of the GNN kernels
    under PyGT-G vs PiPAD with the small-dimension setting (input 2/hidden 6).

All numbers come from the kernel cost models applied to real snapshot groups
of each dataset analogue — inter-frame reuse is disabled, mirroring §5.3.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.experiments.common import ExperimentConfig, format_table, load_experiment_graph
from repro.graph.overlap import extract_overlap
from repro.gpu.spec import GPUSpec
from repro.gpu.warp_model import coalesced_active_thread_ratio, baseline_active_thread_ratio
from repro.kernels.gemm import update_gemm_cost
from repro.kernels.spmm_coo import PyGCOOAggregation
from repro.kernels.spmm_csr import GESpMMAggregation
from repro.kernels.spmm_sliced import SlicedParallelAggregation

#: snapshots per parallel group (``S_per``), capped by each dataset's limit
GROUP_SIZE = 4
#: feature dimensions of the Fig. 11(b) sweep
DIMENSIONS = (2, 8, 16, 32, 64, 128)


def _gnn_module_seconds_sequential(kernel_cls, snapshots, feature_dim, hidden_dim, spec, scale):
    """One-snapshot-at-a-time GNN (aggregation + update) time for a group."""
    seconds = 0.0
    launch = spec.kernel_launch_overhead_us * 1e-6
    requests = transactions = 0.0
    for snapshot in snapshots:
        if snapshot.adjacency.nnz:
            kernel = kernel_cls(snapshot.adjacency, spec, scale)
            cost = kernel.forward_cost((snapshot.num_nodes, feature_dim))
            seconds += cost.execution_seconds(spec) + launch * cost.launches
            requests += cost.mem_requests
            transactions += cost.mem_transactions
        update = update_gemm_cost(
            snapshot.num_nodes, feature_dim, hidden_dim, spec, reuse_group=1, scale=scale
        )
        seconds += update.execution_seconds(spec) + launch
        requests += update.mem_requests
        transactions += update.mem_transactions
    return seconds, requests, transactions


def _gnn_module_seconds_parallel(snapshots, feature_dim, hidden_dim, spec, scale):
    """PiPAD parallel GNN time for the same group (overlap + exclusives)."""
    decomposition = extract_overlap([s.adjacency for s in snapshots])
    group = len(snapshots)
    launch = spec.cudagraph_launch_overhead_us * 1e-6
    seconds = requests = transactions = 0.0
    if decomposition.overlap.nnz:
        kernel = SlicedParallelAggregation(
            decomposition.overlap, spec, scale, snapshots_coalesced=group
        )
        cost = kernel.forward_cost((snapshots[0].num_nodes, feature_dim * group))
        seconds += cost.execution_seconds(spec) + launch
        requests += cost.mem_requests
        transactions += cost.mem_transactions
    for exclusive, snapshot in zip(decomposition.exclusives, snapshots):
        if exclusive.nnz:
            kernel = SlicedParallelAggregation(exclusive, spec, scale, snapshots_coalesced=1)
            cost = kernel.forward_cost((snapshot.num_nodes, feature_dim))
            seconds += cost.execution_seconds(spec) + launch
            requests += cost.mem_requests
            transactions += cost.mem_transactions
    for snapshot in snapshots:
        update = update_gemm_cost(
            snapshot.num_nodes, feature_dim, hidden_dim, spec, reuse_group=group, scale=scale
        )
        seconds += update.execution_seconds(spec) + launch
        requests += update.mem_requests
        transactions += update.mem_transactions
    return seconds, requests, transactions


def run(config: Optional[ExperimentConfig] = None) -> Dict[str, Dict[str, float]]:
    """Per-dataset GNN-module comparison: PyGT vs PyGT-G vs PiPAD parallel."""
    config = config or ExperimentConfig()
    spec = GPUSpec()
    rows: Dict[str, Dict[str, float]] = {}
    for dataset in config.datasets:
        graph = load_experiment_graph(dataset, config)
        scale = 1.0
        if graph.metadata.get("dataset"):
            from repro.graph.datasets import get_dataset_spec

            spec_ds = get_dataset_spec(str(graph.metadata["dataset"]))
            scale = max(1.0, spec_ds.paper.num_nodes / spec_ds.config.num_nodes)
        max_s = int(graph.metadata.get("max_s_per", GROUP_SIZE))
        group = min(GROUP_SIZE, max_s, graph.num_snapshots)
        snapshots = graph.snapshots[:group]
        feature_dim = graph.feature_dim
        hidden_dim = int(graph.metadata.get("hidden_dim", 32))

        pyg_seconds, _, _ = _gnn_module_seconds_sequential(
            PyGCOOAggregation, snapshots, feature_dim, hidden_dim, spec, scale
        )
        gespmm_seconds, gespmm_req, gespmm_txn = _gnn_module_seconds_sequential(
            GESpMMAggregation, snapshots, feature_dim, hidden_dim, spec, scale
        )
        pipad_seconds, pipad_req, pipad_txn = _gnn_module_seconds_parallel(
            snapshots, feature_dim, hidden_dim, spec, scale
        )
        rows[dataset] = {
            "speedup_over_pygt": pyg_seconds / pipad_seconds,
            "speedup_over_pygt_g": gespmm_seconds / pipad_seconds,
            "request_reduction": 1.0 - pipad_req / gespmm_req if gespmm_req else 0.0,
            "transaction_reduction": 1.0 - pipad_txn / gespmm_txn if gespmm_txn else 0.0,
            "group_size": float(group),
        }
    return rows


def dimension_sensitivity(config: Optional[ExperimentConfig] = None) -> Dict[int, float]:
    """Fig. 11(b): parallel-GNN speedup over PyGT on HepTh as the feature dim changes."""
    config = config or ExperimentConfig()
    spec = GPUSpec()
    graph = load_experiment_graph("hepth", config)
    snapshots = graph.snapshots[: min(GROUP_SIZE, graph.num_snapshots)]
    hidden_dim = int(graph.metadata.get("hidden_dim", 32))
    result: Dict[int, float] = {}
    for dim in DIMENSIONS:
        pyg_seconds, _, _ = _gnn_module_seconds_sequential(
            PyGCOOAggregation, snapshots, dim, hidden_dim, spec, 1.0
        )
        pipad_seconds, _, _ = _gnn_module_seconds_parallel(snapshots, dim, hidden_dim, spec, 1.0)
        result[dim] = pyg_seconds / pipad_seconds
    return result


def thread_utilization() -> Dict[str, float]:
    """§5.3 thread-utilization comparison (warp execution efficiency).

    The paper sets input/hidden dimensions of all datasets to 2/6 and reports
    the average active-thread ratio of the GNN-related kernels: 57.2 % for
    PyGT-G and 64.9 % for PiPAD.
    """
    spec = GPUSpec()
    feature_dim, hidden_dim = 2, 6
    # GNN-related kernels: the aggregation (low thread utilization for small
    # dims under the row-per-warp mapping) and the dense update (full warps).
    gespmm_ratios = [
        baseline_active_thread_ratio(feature_dim, spec),
        baseline_active_thread_ratio(hidden_dim, spec),
        1.0,  # update GEMM
    ]
    pipad_ratios = [
        coalesced_active_thread_ratio(feature_dim * GROUP_SIZE, spec),
        coalesced_active_thread_ratio(hidden_dim * GROUP_SIZE, spec),
        1.0,
    ]
    return {
        "pygt_g_thread_utilization": float(np.mean(gespmm_ratios)),
        "pipad_thread_utilization": float(np.mean(pipad_ratios)),
    }


def format_result(rows: Dict[str, Dict[str, float]]) -> str:
    headers = ["dataset", "speedup vs PyGT", "speedup vs PyGT-G", "request reduction %",
               "transaction reduction %", "S_per"]
    body = [
        [
            name,
            row["speedup_over_pygt"],
            row["speedup_over_pygt_g"],
            row["request_reduction"] * 100,
            row["transaction_reduction"] * 100,
            row["group_size"],
        ]
        for name, row in rows.items()
    ]
    return format_table(headers, body, float_fmt="{:.2f}")
