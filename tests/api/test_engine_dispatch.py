"""Engine dispatch: every method/topology/serving combination resolves to the
expected class, and the unified path is numerically identical to the old
hand-wired entry points (bit-identical losses)."""

from __future__ import annotations

import pytest

from repro.api import DeviceSpec, Engine, RunSpec, ServingSpec, TraceSpec
from repro.api.registries import trainer_registry
from repro.baselines import (
    PyGTAsyncTrainer,
    PyGTGeSpMMTrainer,
    PyGTReuseTrainer,
    PyGTTrainer,
    TrainerConfig,
)
from repro.api.cli import load_spec
from repro.core import (
    DistributedTrainer,
    GroupConfig,
    PiPADConfig,
    PiPADTrainer,
    PipelineTrainer,
)
from repro.core.distributed_trainer import DistributedTrainer as CoreDistributedTrainer
from repro.distributed import FleetServingEngine, ShardedServingEngine
from repro.graph import load_dataset
from repro.serving import ServingConfig, ServingScheduler
from repro.serving.scheduler import _build_serving_scheduler

_QUICK = dict(dataset="covid19_england", model="tgcn", num_snapshots=8, frame_size=4, epochs=2)


class TestTrainerDispatch:
    @pytest.mark.parametrize(
        "method, expected",
        [
            ("pygt", PyGTTrainer),
            ("pygt-a", PyGTAsyncTrainer),
            ("pygt-r", PyGTReuseTrainer),
            ("pygt-g", PyGTGeSpMMTrainer),
            ("pipad", PiPADTrainer),
        ],
    )
    def test_single_device_methods(self, method, expected):
        engine = Engine.from_spec(RunSpec(method=method, **_QUICK))
        assert type(engine.trainer) is expected

    def test_group_device_resolves_distributed_trainer(self):
        spec = RunSpec(
            method="pipad", device=DeviceSpec(kind="group", num_devices=2), **_QUICK
        )
        engine = Engine.from_spec(spec)
        assert type(engine.trainer) is CoreDistributedTrainer
        assert engine.trainer.group_config.num_devices == 2

    def test_group_device_settings_reach_trainer(self):
        spec = RunSpec(
            method="pipad",
            device=DeviceSpec(
                kind="group", num_devices=3, interconnect="pcie", partition_mode="nodes"
            ),
            **_QUICK,
        )
        trainer = Engine.from_spec(spec).trainer
        assert trainer.group_config.interconnect == "pcie"
        assert trainer.group_config.partition_mode == "nodes"
        assert len(trainer.group.devices) == 3

    def test_pipeline_device_resolves_pipeline_trainer(self):
        spec = RunSpec(
            method="pipad", device=DeviceSpec(kind="pipeline", num_devices=2), **_QUICK
        )
        engine = Engine.from_spec(spec)
        assert type(engine.trainer) is PipelineTrainer
        assert engine.trainer.group_config.num_devices == 2

    @pytest.mark.parametrize("kind", ["single", "group", "pipeline"])
    def test_sections_reach_the_trainer_as_they_are(self, kind):
        """The spec sections are the runtime configs: the engine passes them
        through instead of copying them."""
        spec = RunSpec(
            method="pipad",
            pipad={"preparing_epochs": 2},
            device={"kind": kind, "num_devices": 1},
            data={"prefetch_depth": 3},
            memory={"block_rows": 32},
            **_QUICK,
        )
        trainer = Engine.from_spec(spec).trainer
        assert trainer.pipad is spec.pipad
        assert trainer.data is spec.data
        assert trainer.memory is spec.memory
        if kind != "single":
            assert trainer.group_config is spec.device

    def test_pipeline_device_settings_reach_trainer(self):
        spec = RunSpec(
            method="pipad",
            device=DeviceSpec(
                kind="pipeline", num_devices=4, interconnect="pcie", schedule="blocked"
            ),
            **_QUICK,
        )
        trainer = Engine.from_spec(spec).trainer
        assert trainer.group_config.interconnect == "pcie"
        assert trainer.group_config.schedule == "blocked"
        assert len(trainer.group.devices) == 4


class TestServingDispatch:
    def test_local_serving_resolves_scheduler(self):
        spec = RunSpec(serving=ServingSpec(), **_QUICK)
        engine = Engine.from_spec(spec)
        assert type(engine.serving_engine) is ServingScheduler

    def test_sharded_serving_resolves_sharded_engine(self):
        spec = RunSpec(serving=ServingSpec(kind="sharded", num_shards=3), **_QUICK)
        engine = Engine.from_spec(spec)
        assert type(engine.serving_engine) is ShardedServingEngine
        assert engine.serving_engine.num_shards == 3

    def test_fleet_serving_resolves_fleet_engine(self):
        spec = RunSpec(
            serving=ServingSpec(kind="fleet", num_shards=3, min_replicas=2),
            **_QUICK,
        )
        engine = Engine.from_spec(spec)
        serving = engine.serving_engine
        assert type(serving) is FleetServingEngine
        assert serving.num_shards == 3
        assert serving.active_replicas == 2
        # All replicas share the single node-sharded store.
        assert all(r.store is serving.store for r in serving.replicas)

    def test_fleet_knobs_reach_fleet_config(self):
        spec = RunSpec(
            serving=ServingSpec(
                kind="fleet",
                num_shards=4,
                min_replicas=1,
                max_replicas=3,
                max_batch_requests=5,
                admission_limit=5,
                slo_p99_ms=7.5,
            ),
            **_QUICK,
        )
        fleet = Engine.from_spec(spec).serving_engine
        assert fleet.fleet_config.admission_limit == 5
        assert fleet.fleet_config.slo_p99_ms == 7.5
        assert fleet.fleet_config.replica_ceiling == 3

    def test_serving_without_section_raises(self):
        engine = Engine.from_spec(RunSpec(**_QUICK))
        with pytest.raises(ValueError, match="no serving section"):
            _ = engine.serving_engine

    def test_serving_section_is_the_fleet_and_scheduler_config(self):
        spec = RunSpec(
            serving=ServingSpec(kind="fleet", num_shards=2, max_batch_requests=4),
            **_QUICK,
        )
        fleet = Engine.from_spec(spec).serving_engine
        assert fleet.fleet_config is spec.serving
        assert all(replica.config is spec.serving for replica in fleet.replicas)

    def test_serving_config_reaches_scheduler(self):
        spec = RunSpec(
            serving=ServingSpec(window=4, max_batch_requests=2, enable_reuse=False),
            **_QUICK,
        )
        scheduler = Engine.from_spec(spec).serving_engine
        assert scheduler.config.window == 4
        assert scheduler.config.max_batch_requests == 2
        assert scheduler.config.enable_reuse is False


class TestParityWithOldEntryPoints:
    """The façade builds exactly what the hand-wired paths built."""

    def test_pipad_losses_bit_identical(self):
        spec = RunSpec(method="pipad", pipad={"preparing_epochs": 1}, **_QUICK)
        new = Engine.from_spec(spec).train()

        graph = load_dataset("covid19_england", seed=0, num_snapshots=8)
        old = PiPADTrainer(
            graph,
            TrainerConfig(model="tgcn", frame_size=4, epochs=2),
            PiPADConfig(preparing_epochs=1),
        ).train()
        assert new.loss_curve() == old.loss_curve()
        assert new.final_loss == old.final_loss
        assert new.simulated_seconds == old.simulated_seconds

    def test_registry_trainer_matches_engine(self):
        spec = RunSpec(method="pygt-r", **_QUICK)
        new = Engine.from_spec(spec).train()

        graph = load_dataset("covid19_england", seed=0, num_snapshots=8)
        trainer = trainer_registry()["pygt-r"](
            graph, TrainerConfig(model="tgcn", frame_size=4, epochs=2)
        )
        old = trainer.train()
        assert new.loss_curve() == old.loss_curve()
        assert new.simulated_seconds == old.simulated_seconds

    def test_distributed_losses_bit_identical(self):
        spec = RunSpec(
            method="pipad",
            device=DeviceSpec(kind="group", num_devices=2),
            **_QUICK,
        )
        new = Engine.from_spec(spec).train()

        graph = load_dataset("covid19_england", seed=0, num_snapshots=8)
        old = DistributedTrainer(
            graph,
            TrainerConfig(model="tgcn", frame_size=4, epochs=2),
            PiPADConfig(),
            GroupConfig(num_devices=2),
        ).train()
        assert new.loss_curve() == old.loss_curve()
        assert new.simulated_seconds == old.simulated_seconds

    @pytest.mark.parametrize("model", ["tgcn", "evolvegcn", "mpnn_lstm"])
    def test_pipeline_losses_bit_identical_to_single(self, model):
        """Acceptance criterion: ``device.kind="pipeline"`` trains every model
        bit-identically in loss to the ``single`` topology."""
        quick = {**_QUICK, "model": model}
        single = Engine.from_spec(RunSpec(method="pipad", **quick)).train()
        pipelined = Engine.from_spec(
            RunSpec(
                method="pipad",
                device=DeviceSpec(kind="pipeline", num_devices=3),
                **quick,
            )
        ).train()
        assert pipelined.loss_curve() == single.loss_curve()
        assert pipelined.final_loss == single.final_loss

    def test_serving_report_matches_old_builder(self):
        spec = RunSpec(
            method="pipad",
            serving=ServingSpec(
                window=6,
                max_batch_requests=4,
                max_delay_ms=1.0,
                trace=TraceSpec(num_events=40, seed=5),
            ),
            **_QUICK,
        )
        engine = Engine.from_spec(spec)
        trace = engine.default_trace()
        new = engine.serve(trace)

        graph = load_dataset("covid19_england", seed=0, num_snapshots=8)
        trainer = PiPADTrainer(
            graph, TrainerConfig(model="tgcn", frame_size=4, epochs=2), PiPADConfig()
        )
        trainer.train()
        old_engine = _build_serving_scheduler(
            graph,
            trainer.model,
            ServingConfig(window=6, max_batch_requests=4, max_delay_ms=1.0),
        )
        old = old_engine.run_trace(trace)
        assert new.metrics.num_requests == old.metrics.num_requests
        assert new.metrics.p50_latency == old.metrics.p50_latency
        assert new.metrics.p99_latency == old.metrics.p99_latency
        assert new.simulated_seconds == old.simulated_seconds


class TestShippedSpecs:
    """The shipped presets all execute through Engine.from_spec and agree
    with the hand-wired entry points."""

    def test_pipad_single_gpu_spec(self):
        report = Engine.from_spec(load_spec("pipad-single")).run()
        graph = load_dataset("covid19_england", seed=0, num_snapshots=14)
        old = PiPADTrainer(
            graph, TrainerConfig(model="tgcn", frame_size=8, epochs=3), PiPADConfig()
        ).train()
        assert report.training.final_loss == old.final_loss
        assert report.training.loss_curve() == old.loss_curve()

    def test_pygt_baseline_spec(self):
        report = Engine.from_spec(load_spec("pygt-baseline")).run()
        graph = load_dataset("covid19_england", seed=0, num_snapshots=14)
        old = PyGTTrainer(
            graph, TrainerConfig(model="tgcn", frame_size=8, epochs=3)
        ).train()
        assert report.training.final_loss == old.final_loss
        assert report.training.loss_curve() == old.loss_curve()

    def test_distributed_4gpu_spec(self):
        report = Engine.from_spec(load_spec("distributed-4gpu")).run()
        training = report.training
        graph = load_dataset("flickr", seed=0, num_snapshots=12)
        old = DistributedTrainer(
            graph,
            TrainerConfig(model="tgcn", frame_size=8, epochs=3, cost_scale=5000.0),
            PiPADConfig(),
            GroupConfig(num_devices=4, interconnect="nvlink"),
        ).train()
        assert training.final_loss == old.final_loss
        assert training.loss_curve() == old.loss_curve()
        assert training.simulated_seconds == old.simulated_seconds
        # Distributed runs itemize their collectives in the normalized report.
        collectives = report.collective_breakdown()
        assert collectives["all_reduce_seconds"] > 0
        assert collectives["halo_exchange_seconds"] > 0

    def test_pipeline_4gpu_spec(self):
        report = Engine.from_spec(load_spec("pipeline-4gpu")).run()
        training = report.training
        graph = load_dataset("flickr", seed=0, num_snapshots=12)
        old = PipelineTrainer(
            graph,
            TrainerConfig(model="evolvegcn", frame_size=8, epochs=3, cost_scale=5000.0),
            PiPADConfig(fixed_s_per=2),
            GroupConfig(num_devices=4, interconnect="nvlink"),
        ).train()
        assert training.final_loss == old.final_loss
        assert training.loss_curve() == old.loss_curve()
        assert training.simulated_seconds == old.simulated_seconds
        # Pipeline runs itemize the state handoffs and the gradient
        # all-reduce in the normalized report, plus the bubble in extras.
        collectives = report.collective_breakdown()
        assert collectives["peer_transfer_seconds"] > 0
        assert collectives["all_reduce_seconds"] > 0
        assert training.extras["pipeline_bubble_seconds"] > 0

    def test_sharded_serving_spec(self):
        engine = Engine.from_spec(load_spec("sharded-serving"))
        report = engine.run()
        assert report.serving is not None
        assert type(engine.serving_engine) is ShardedServingEngine
        assert engine.serving_engine.num_shards == 2
        assert report.serving.metrics.num_requests > 0
        assert report.serving.extras["num_shards"] == 2.0

    def test_fleet_serving_spec(self):
        engine = Engine.from_spec(load_spec("fleet-serving"))
        report = engine.run()
        assert report.serving is not None
        assert type(engine.serving_engine) is FleetServingEngine
        assert report.serving.engine == "PiPAD-Fleet-x4"
        assert report.serving.metrics.num_requests > 0
        assert report.serving.extras["rejected_requests"] >= 0.0
        # Node-sharding keeps each replica well under the full window.
        assert (
            report.serving.extras["per_replica_store_bytes"]
            < report.serving.extras["fleet_store_bytes"]
        )
