"""Frame-pipeline scaling of PiPAD training across devices (repro extension).

The pipeline counterpart of :mod:`~repro.experiments.scaling_multi_gpu`: for
each device count the same workload trains through
:class:`~repro.core.pipeline_trainer.PipelineTrainer` (``device.kind =
"pipeline"``), which shards the *frame* — snapshot groups — across stages
instead of the node set.  The table reports the steady-state epoch time,
speedup and parallel efficiency over the one-device run, the **pipeline
bubble** (device-seconds each stage stalls on the cross-stage state chain
beyond its own local readiness) and the point-to-point state-handoff time —
itemized against the ``group`` topology's steady epoch and gradient
all-reduce time on the identical workload, so the two parallelism modes'
communication regimes are directly comparable.

Both topologies run with the same fixed partition size (``fixed_s_per``), so
every row trains bit-identically to the single-device run; only the schedule
differs.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.api.engine import Engine
from repro.api.spec import DeviceSpec
from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    load_experiment_graph,
    method_spec,
)

#: device counts swept (1 is the reference run)
DEVICE_COUNTS = (1, 2, 4, 8)


def run(config: Optional[ExperimentConfig] = None) -> List[Dict[str, float]]:
    """Train the sweep's first dataset/model at each pipeline depth over
    NVLink with the round-robin schedule."""
    config = config or ExperimentConfig.quick()
    dataset = config.datasets[0]
    model = config.models[0]
    graph = load_experiment_graph(dataset, config)
    base_spec = method_spec("pipad", model, config, dataset=dataset).replace(
        cost_scale=5000.0
    )
    # A deep pipeline needs more snapshot groups per frame than the tuner's
    # preferred s_per would produce; fixing the partition size keeps the
    # schedule (and the numerics) identical across every device count.
    base_spec = base_spec.replace(
        pipad=dataclasses.replace(base_spec.pipad, fixed_s_per=2)
    )

    results = {}
    for devices in DEVICE_COUNTS:
        spec = base_spec.replace(device=DeviceSpec(kind="pipeline", num_devices=devices))
        results[devices] = Engine.from_spec(spec, graph=graph).train()

    rows: List[Dict[str, float]] = []
    reference = results[1].steady_epoch_seconds
    for devices in DEVICE_COUNTS:
        result = results[devices]
        steady = result.steady_epoch_seconds
        speedup = reference / steady if steady > 0 else float("inf")
        # Pipeline communication/bubbles only occur in the post-preparing
        # epochs; normalize to the same per-epoch basis as
        # ``steady_epoch_seconds`` so the columns are directly comparable.
        pipeline_epochs = max(1, result.epochs - config.preparing_epochs)
        row: Dict[str, float] = {
            "dataset": dataset,
            "model": model,
            "devices": float(devices),
            "steady_epoch_seconds": steady,
            "speedup": speedup,
            "efficiency": speedup / devices,
            "bubble_seconds": result.extras.get("pipeline_bubble_seconds", 0.0)
            / pipeline_epochs,
            "peer_transfer_seconds": result.extras.get("peer_transfer_seconds", 0.0)
            / pipeline_epochs,
            "all_reduce_seconds": result.extras.get("all_reduce_seconds", 0.0)
            / pipeline_epochs,
        }
        if devices == 1:
            # A one-device group degenerates to the same plain PiPAD run
            # as a one-device pipeline; reuse the reference.
            group_steady, group_all_reduce = steady, 0.0
        else:
            group_spec = base_spec.replace(device=DeviceSpec(kind="group", num_devices=devices))
            group_result = Engine.from_spec(group_spec, graph=graph).train()
            group_steady = group_result.steady_epoch_seconds
            group_all_reduce = (
                group_result.extras.get("all_reduce_seconds", 0.0) / pipeline_epochs
            )
        row["group_steady_epoch_seconds"] = group_steady
        row["group_all_reduce_seconds"] = group_all_reduce
        rows.append(row)
    return rows


def format_result(rows: List[Dict[str, float]]) -> str:
    """Render the pipeline-scaling table (one row per device count)."""
    with_group = "group_steady_epoch_seconds" in rows[0]
    header: Tuple[str, ...] = (
        "devices",
        "steady s/epoch",
        "speedup",
        "efficiency",
        "bubble s/ep",
        "p2p s/ep",
    )
    if with_group:
        header += ("group s/epoch", "group all_reduce s/ep")
    table = []
    for row in rows:
        cells = (
            f"{row['devices']:.0f}",
            f"{row['steady_epoch_seconds']:.4f}",
            f"{row['speedup']:.2f}x",
            f"{row['efficiency']:.1%}",
            f"{row['bubble_seconds']:.4f}",
            f"{row['peer_transfer_seconds']:.6f}",
        )
        if with_group:
            cells += (
                f"{row['group_steady_epoch_seconds']:.4f}",
                f"{row['group_all_reduce_seconds']:.4f}",
            )
        table.append(cells)
    title = (
        f"Frame-pipeline scaling — {rows[0]['dataset']} / {rows[0]['model']} "
        "(bubble = device-seconds stalled on the state chain)"
    )
    return title + "\n" + format_table(header, table)
