"""Quickstart: declare two runs as specs, execute both through one Engine.

Run with ``python examples/quickstart.py``.  Every scenario in this repo —
single-GPU training with any method, multi-GPU training, streaming serving —
is described by a declarative :class:`repro.api.RunSpec` and executed by
:class:`repro.api.Engine`.  This script declares the canonical PyGT baseline
and PiPAD on the Covid-19 England analogue, runs both through
``Engine.from_spec(...)``, and compares the reports (the losses are identical
up to float noise — PiPAD changes the execution schedule, not the math).

Specs serialize to JSON (see the ``specs/`` directory for ready-made ones),
so the same two runs work from the command line::

    python -m repro run pygt-baseline
    python -m repro run pipad-single

Hand-wired constructors and the specs they correspond to:

==============================================  =====================================
hand-wired                                      spec
==============================================  =====================================
``PyGTTrainer(graph, cfg).train()``             ``Engine.from_spec(RunSpec(method="pygt", ...)).train()``
``PiPADTrainer(graph, cfg, pipad_cfg)``         ``RunSpec(method="pipad", pipad={...overrides...})``
``DistributedTrainer(graph, cfg, pc, dc)``      ``RunSpec(device={"kind": "group", "num_devices": K})``
``PipelineTrainer(graph, cfg, pc, ppc)``        ``RunSpec(device={"kind": "pipeline", "num_devices": K})``
``build_sharded_serving_engine(...)``           ``RunSpec(serving={"kind": "sharded", "num_shards": K})``
``build_fleet_serving_engine(...)``             ``RunSpec(serving={"kind": "fleet", "num_shards": K})``
``DataPipeConfig(prefetch_depth=d)``            ``RunSpec(data={"prefetch_depth": d})``
==============================================  =====================================
"""

from __future__ import annotations

from repro.api import Engine, RunSpec


def main() -> None:
    base = RunSpec(
        dataset="covid19_england",
        model="tgcn",
        method="pygt",
        num_snapshots=14,
        frame_size=8,
        epochs=3,
        lr=1e-3,
        seed=0,
    )
    pipad_spec = base.replace(method="pipad", pipad={"preparing_epochs": 1})

    pygt_engine = Engine.from_spec(base)
    graph = pygt_engine.graph
    print(f"dataset: {graph.name}  nodes={graph.num_nodes}  snapshots={graph.num_snapshots}")
    print(f"average topology change rate: {graph.average_change_rate():.3f}\n")

    pygt_result = pygt_engine.train()
    pipad_engine = Engine.from_spec(pipad_spec, graph=graph)
    pipad_result = pipad_engine.train()

    print(f"{'method':<8} {'epoch time (sim)':>18} {'GPU util':>10} {'final loss':>12}")
    for result in (pygt_result, pipad_result):
        print(
            f"{result.method:<8} {result.steady_epoch_seconds * 1e3:>15.2f} ms "
            f"{result.gpu_utilization:>9.1%} {result.final_loss:>12.4f}"
        )
    speedup = pygt_result.steady_epoch_seconds / pipad_result.steady_epoch_seconds
    print(f"\nPiPAD speedup over PyGT: {speedup:.2f}x")
    print(f"parallelism chosen per frame: {sorted(set(pipad_engine.trainer.chosen_s_per().values()))}")
    print(f"loss curves: PyGT={pygt_result.loss_curve()}  PiPAD={pipad_result.loss_curve()}")
    print(f"\nthe PiPAD spec as JSON:\n{pipad_spec.to_json()}")


if __name__ == "__main__":
    main()
