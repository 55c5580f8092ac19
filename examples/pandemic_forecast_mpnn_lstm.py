"""Pandemic forecasting with MPNN-LSTM on the Covid-19 England analogue.

This mirrors the application MPNN-LSTM was proposed for: a mobility/contact
graph between regions whose node signals (case counts) evolve quickly.  The
example declares the PyGT baseline and the PiPAD run as
:class:`repro.api.RunSpec` instances, executes both through
:class:`repro.api.Engine`, shows how the dynamic tuner picks the per-frame
parallelism level, and prints the latency breakdown so the transfer/compute/
CPU split of Fig. 3 can be inspected on a live run.
"""

from __future__ import annotations

from typing import Dict

from repro.api import Engine, RunSpec


def shares(seconds: Dict[str, float]) -> Dict[str, str]:
    """Each part's share of the parts' total, as a percentage."""
    total = sum(seconds.values())
    return {name: f"{value / total:.1%}" for name, value in seconds.items()}


def main() -> None:
    base = RunSpec(
        dataset="covid19_england",
        model="mpnn_lstm",
        method="pygt",
        num_snapshots=16,
        frame_size=8,
        epochs=3,
        lr=1e-3,
        seed=2,
    )
    baseline_engine = Engine.from_spec(base)
    graph = baseline_engine.graph
    print(f"dataset: {graph.name}  regions={graph.num_nodes}  snapshots={graph.num_snapshots}\n")

    baseline_result = baseline_engine.train()
    parts = baseline_result.breakdown
    print("PyGT latency breakdown:", shares({
        "transfer": parts["h2d"] + parts["d2h"], "compute": parts["kernel"], "cpu": parts["cpu"],
    }), f"SM utilization {baseline_result.sm_utilization:.1%}")
    print("PyGT compute breakdown:", shares(baseline_result.category_seconds))

    pipad_engine = Engine.from_spec(
        base.replace(method="pipad", pipad={"preparing_epochs": 1}), graph=graph
    )
    pipad_result = pipad_engine.train()

    print("\ndynamic tuner decisions (first 5 frames):")
    for decision in pipad_engine.trainer.tuning_decisions[:5]:
        print(f"  frame {decision.frame_index}: S_per={decision.s_per} "
              f"(OR={decision.overlap_rate:.2f}, est. speedup {decision.estimated_speedup:.2f}) — "
              f"{decision.reason}")

    speedup = baseline_result.steady_epoch_seconds / pipad_result.steady_epoch_seconds
    print(f"\nPiPAD speedup over PyGT: {speedup:.2f}x")
    print(f"final losses — PyGT: {baseline_result.final_loss:.4f}, "
          f"PiPAD: {pipad_result.final_loss:.4f}")


if __name__ == "__main__":
    main()
