"""Multi-GPU scaling of distributed PiPAD training (repro extension).

Not a paper artifact: the paper trains on one V100.  This experiment answers
the question its production deployment would ask next — how does the
pipelined training time scale when the node set is sharded across a device
group?  For each device count it trains the same workload through
:class:`~repro.core.distributed_trainer.DistributedTrainer` and reports the
steady-state epoch time, the speedup and parallel efficiency over the
single-device run, and the per-steady-epoch time spent in each collective
(halo exchange, state all-gather, gradient all-reduce).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.api.engine import Engine
from repro.api.spec import DeviceSpec
from repro.core.group_trainer import COLLECTIVE_KEYS
from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    load_experiment_graph,
    method_spec,
)

#: device counts swept (1 is the reference run)
DEVICE_COUNTS = (1, 2, 4, 8)


def run(config: Optional[ExperimentConfig] = None) -> List[Dict[str, float]]:
    """Train the sweep's first dataset/model at each device count over NVLink."""
    config = config or ExperimentConfig.quick()
    dataset = config.datasets[0]
    model = config.models[0]
    graph = load_experiment_graph(dataset, config)
    base_spec = method_spec("pipad", model, config, dataset=dataset).replace(
        cost_scale=5000.0
    )

    steady_by_devices: Dict[int, float] = {}
    results = {}
    for devices in DEVICE_COUNTS:
        spec = base_spec.replace(device=DeviceSpec(kind="group", num_devices=devices))
        result = Engine.from_spec(spec, graph=graph).train()
        steady_by_devices[devices] = result.steady_epoch_seconds
        results[devices] = result

    rows: List[Dict[str, float]] = []
    reference = steady_by_devices[1]
    for devices in DEVICE_COUNTS:
        result = results[devices]
        steady = steady_by_devices[devices]
        speedup = reference / steady if steady > 0 else float("inf")
        row: Dict[str, float] = {
            "dataset": dataset,
            "model": model,
            "devices": float(devices),
            "steady_epoch_seconds": steady,
            "speedup": speedup,
            "efficiency": speedup / devices,
            "halo_feature_bytes": result.extras.get("halo_feature_bytes", 0.0),
        }
        # Collectives only run in the post-preparing epochs; normalize their
        # totals to the same per-epoch basis as ``steady_epoch_seconds`` so
        # the table's columns are directly comparable (and the collective
        # share does not drift with the configured epoch count).
        collective_epochs = max(1, result.epochs - config.preparing_epochs)
        for key in COLLECTIVE_KEYS:
            row[key] = result.extras.get(key, 0.0) / collective_epochs
        rows.append(row)
    return rows


def format_result(rows: List[Dict[str, float]]) -> str:
    """Render the scaling table (one row per device count)."""
    header: Tuple[str, ...] = (
        "devices",
        "steady s/epoch",
        "speedup",
        "efficiency",
        "halo s/ep",
        "all_gather s/ep",
        "all_reduce s/ep",
    )
    table = [
        (
            f"{row['devices']:.0f}",
            f"{row['steady_epoch_seconds']:.4f}",
            f"{row['speedup']:.2f}x",
            f"{row['efficiency']:.1%}",
            f"{row['halo_exchange_seconds']:.4f}",
            f"{row['all_gather_seconds']:.4f}",
            f"{row['all_reduce_seconds']:.4f}",
        )
        for row in rows
    ]
    title = f"Multi-GPU scaling — {rows[0]['dataset']} / {rows[0]['model']}"
    return title + "\n" + format_table(header, table)
