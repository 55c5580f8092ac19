"""The staged datapipe: configs, stage costs, prefetch gating and parity.

The tentpole invariant mirrors the trainer suites: the datapipe only moves
*when* prep work runs on the simulated timelines — losses and serving
predictions must stay bit-identical across every prefetch depth and
pinning choice.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine, RunSpec
from repro.api.cli import read_preset
from repro.baselines import TrainerConfig
from repro.core import (
    DataPipe,
    DataPipeConfig,
    DistributedTrainer,
    GroupConfig,
    PiPADConfig,
    PiPADTrainer,
    PipeItem,
    PipelineTrainer,
    Prefetcher,
    STAGE_REGISTRY,
)
from repro.core.datapipe import STAGE_GATHER, STAGE_H2D, STAGE_PIN, STAGE_SLICE
from repro.gpu import SimulatedGPU
from repro.gpu.spec import HostSpec
from repro.gpu.timeline import RESOURCE_COMPUTE


def _config(model: str = "tgcn", **kwargs) -> TrainerConfig:
    defaults = dict(model=model, frame_size=4, epochs=3)
    defaults.update(kwargs)
    return TrainerConfig(**defaults)


def _pipad() -> PiPADConfig:
    return PiPADConfig(preparing_epochs=1, fixed_s_per=2)


class TestDataPipeConfig:
    def test_defaults(self):
        config = DataPipeConfig()
        assert config.prefetch_depth == 2
        assert config.pin_memory is True

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            DataPipeConfig(prefetch_depth=-1)

    @pytest.mark.parametrize("depth", [True, 2.0, "2"])
    def test_non_int_depth_rejected(self, depth):
        with pytest.raises(ValueError, match="must be an int"):
            DataPipeConfig(prefetch_depth=depth)

    def test_every_variant_is_described(self):
        """The one stage chain is exactly the described stages, in order."""
        assert tuple(STAGE_REGISTRY) == (
            STAGE_SLICE, STAGE_GATHER, STAGE_PIN, STAGE_H2D,
        )
        for pin_memory in (True, False):
            stages = DataPipe(DataPipeConfig(pin_memory=pin_memory)).stages
            assert stages[0] == STAGE_SLICE
            assert stages[-1] == STAGE_H2D
            assert all(stage in STAGE_REGISTRY for stage in stages)


class TestStageComposition:
    def test_staged_default(self):
        pipe = DataPipe()
        assert pipe.stages == (STAGE_SLICE, STAGE_GATHER, STAGE_PIN, STAGE_H2D)
        assert pipe.host_stages == (STAGE_SLICE, STAGE_GATHER, STAGE_PIN)
        assert pipe.pinned

    def test_unpinned_drops_the_pin_stage(self):
        pipe = DataPipe(DataPipeConfig(pin_memory=False))
        assert pipe.stages == (STAGE_SLICE, STAGE_GATHER, STAGE_H2D)
        assert not pipe.pinned


class TestStageCosts:
    HOST = HostSpec()
    ITEM = PipeItem(label="p0", num_snapshots=4, transfer_bytes=1e6)

    def test_slice_cost_follows_snapshot_count(self):
        pipe = DataPipe(host=self.HOST)
        expected = 4 * self.HOST.snapshot_prep_us * 1e-6
        assert pipe.stage_seconds(STAGE_SLICE, self.ITEM) == pytest.approx(expected)

    def test_gather_and_pin_follow_bandwidth(self):
        pipe = DataPipe(host=self.HOST)
        assert pipe.stage_seconds(STAGE_GATHER, self.ITEM) == pytest.approx(
            1e6 / (self.HOST.gather_bandwidth_gbs * 1e9)
        )
        assert pipe.stage_seconds(STAGE_PIN, self.ITEM) == pytest.approx(
            1e6 / (self.HOST.pin_bandwidth_gbs * 1e9)
        )

    def test_slice_scale_scales_only_the_slice_stage(self):
        """Distributed shards index a fraction of the nodes but their
        gather/pin already follow the sharded ``transfer_bytes`` — scaling
        them again would double-count the shard fraction."""
        pipe = DataPipe(host=self.HOST)
        shard = PipeItem(label="p0", num_snapshots=4, transfer_bytes=1e6, slice_scale=0.25)
        assert pipe.stage_seconds(STAGE_SLICE, shard) == pytest.approx(
            0.25 * pipe.stage_seconds(STAGE_SLICE, self.ITEM)
        )
        for stage in (STAGE_GATHER, STAGE_PIN):
            assert pipe.stage_seconds(stage, shard) == pipe.stage_seconds(stage, self.ITEM)

    def test_h2d_is_not_a_host_stage(self):
        with pytest.raises(ValueError, match="not a host stage"):
            DataPipe().stage_seconds(STAGE_H2D, self.ITEM)


class _StageOps:
    """Reads the stage-tagged ops off device timelines, in submission order,
    so tests can see per-stage op times."""

    def __init__(self, devices):
        self.devices = devices

    @property
    def events(self):
        """``(stage, item, device_index, start, end)`` per stage op."""
        tagged = [
            (op.uid, op.attrs["stage"], op.label, index, op.start, op.end)
            for index, device in enumerate(self.devices)
            for op in device.timeline.ops
            if "stage" in op.attrs
        ]
        return [
            (stage, label[len(stage) + 1 :], index, start, end)
            for _, stage, label, index, start, end in sorted(tagged)
        ]

    def first_host_start(self, label):
        return min(e[3] for e in self.events if e[1] == label and e[0] != STAGE_H2D)


def _drive(depth, items, *, compute_seconds=1e-3):
    """Schedule/consume ``items`` through a fresh prefetcher; returns the
    stage ops it scheduled plus the consume op of every item."""
    device = SimulatedGPU()
    pipe = DataPipe(DataPipeConfig(prefetch_depth=depth))
    hooks = _StageOps([device])
    prefetcher = Prefetcher(pipe, device)
    consumes = []
    for index, transfer_bytes in enumerate(items):
        item = PipeItem(label=f"p{index}", num_snapshots=2, transfer_bytes=transfer_bytes)
        (transfer,) = prefetcher.schedule(item)
        # A compute-resource op stands in for the kernels reading the item;
        # host_op would serialize with the prep stages on the CPU resource.
        consume = device.timeline.submit(
            label=f"consume_p{index}",
            kind="kernel",
            resource=RESOURCE_COMPUTE,
            duration=compute_seconds,
            depends_on=[transfer],
        )
        prefetcher.mark_consumed([consume])
        consumes.append(consume)
    return hooks, consumes, prefetcher


class TestPrefetcherGating:
    def test_depth_zero_serializes_prep_behind_consumption(self):
        hooks, consumes, _ = _drive(0, [1e6, 1e6, 1e6])
        for index in range(1, 3):
            assert hooks.first_host_start(f"p{index}") >= consumes[index - 1].end

    def test_depth_one_overlaps_next_item_with_current_compute(self):
        hooks, consumes, _ = _drive(1, [1e6, 1e6, 1e6])
        # Item 1 may prepare while item 0 computes...
        assert hooks.first_host_start("p1") < consumes[0].end
        # ...but item 2 still waits for item 0's consumption (depth bound).
        assert hooks.first_host_start("p2") >= consumes[0].end

    def test_transfers_stay_fifo_on_the_copy_engine(self):
        hooks, _, _ = _drive(3, [4e6, 1e6, 2e6, 3e6])
        transfers = [e for e in hooks.events if e[0] == STAGE_H2D]
        starts = [e[3] for e in transfers]
        assert starts == sorted(starts)
        assert [e[1] for e in transfers] == ["p0", "p1", "p2", "p3"]

    def test_mark_consumed_without_outstanding_items_is_a_noop(self):
        device = SimulatedGPU()
        prefetcher = Prefetcher(DataPipe(), device)
        prefetcher.mark_consumed([device.host_op(1e-6, label="c")])
        assert prefetcher.stats()["prefetch_items"] == 0.0

    def test_stats_report_depth_items_and_host_seconds(self):
        hooks, _, prefetcher = _drive(2, [1e6, 1e6])
        stats = prefetcher.stats()
        assert stats["prefetch_depth"] == 2.0
        assert stats["prefetch_items"] == 2.0
        host_spans = [e for e in hooks.events if e[0] != STAGE_H2D]
        assert stats["prefetch_host_seconds"] == pytest.approx(
            sum(end - start for (_, _, _, start, end) in host_spans)
        )

    def _two_device_drive(self, depth):
        """One item per device through prefetchers sharing a single pipe,
        consuming on device 0 between the two schedules."""
        pipe = DataPipe(DataPipeConfig(prefetch_depth=depth))
        devices = [SimulatedGPU(), SimulatedGPU()]
        hooks = _StageOps(devices)
        prefetchers = [
            Prefetcher(pipe, dev, device_index=i) for i, dev in enumerate(devices)
        ]
        (transfer,) = prefetchers[0].schedule(
            PipeItem(label="a", num_snapshots=2, transfer_bytes=1e6)
        )
        consume = devices[0].timeline.submit(
            label="consume_a",
            kind="kernel",
            resource=RESOURCE_COMPUTE,
            duration=1e-3,
            depends_on=[transfer],
        )
        prefetchers[0].mark_consumed([consume])
        prefetchers[1].schedule(
            PipeItem(label="b", num_snapshots=2, transfer_bytes=1e6)
        )
        return hooks, consume

    def test_depth_zero_serializes_across_devices(self):
        """No prefetching means ONE synchronous host thread: item b's prep on
        device 1 cannot start until item a — on device 0 — was consumed."""
        hooks, consume = self._two_device_drive(0)
        assert hooks.first_host_start("b") >= consume.end

    def test_depth_one_gives_each_device_its_own_worker(self):
        hooks, consume = self._two_device_drive(1)
        assert hooks.first_host_start("b") < consume.end


class TestPrefetcherProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        depth=st.integers(min_value=0, max_value=3),
        sizes=st.lists(
            st.floats(min_value=1e3, max_value=1e7), min_size=1, max_size=6
        ),
    )
    def test_order_preserved_and_depth_bound_holds(self, depth, sizes):
        hooks, consumes, prefetcher = _drive(depth, sizes)
        # Order: transfers complete in schedule order on the copy stream.
        transfers = [e for e in hooks.events if e[0] == STAGE_H2D]
        ends = [e[4] for e in transfers]
        assert ends == sorted(ends)
        # Depth bound: item i's prep never starts before the consumption of
        # item i - depth - 1, so at most ``depth`` items run ahead.
        for index in range(len(sizes)):
            gate = index - depth - 1
            if gate >= 0:
                assert hooks.first_host_start(f"p{index}") >= consumes[gate].end
        assert None not in prefetcher._consumed  # balanced schedule/consume


class TestTrainerParity:
    """Prefetching reorders prep on the timelines; the math is untouched."""

    @pytest.mark.parametrize("model", ["tgcn", "evolvegcn", "mpnn_lstm"])
    def test_pipad_losses_bit_identical_across_depths(self, small_graph, model):
        curves = {}
        for depth in (0, 4):
            trainer = PiPADTrainer(
                small_graph,
                _config(model),
                _pipad(),
                data_config=DataPipeConfig(prefetch_depth=depth),
            )
            curves[depth] = trainer.train().loss_curve()
        assert curves[0] == curves[4]

    def test_pipeline_trainer_parity_and_prefetch_wins(self, small_graph):
        results = {}
        for depth in (0, 2):
            results[depth] = PipelineTrainer(
                small_graph,
                _config(cost_scale=2000.0),
                _pipad(),
                GroupConfig(num_devices=3),
                data_config=DataPipeConfig(prefetch_depth=depth),
            ).train()
        assert results[0].loss_curve() == results[2].loss_curve()
        # Overlapping host prep with device compute must not slow the run.
        assert results[2].simulated_seconds <= results[0].simulated_seconds

    def test_distributed_trainer_parity(self, small_graph):
        results = {}
        for depth in (0, 2):
            results[depth] = DistributedTrainer(
                small_graph,
                _config(cost_scale=2000.0),
                _pipad(),
                GroupConfig(num_devices=4),
                data_config=DataPipeConfig(prefetch_depth=depth),
            ).train()
        assert results[0].loss_curve() == results[2].loss_curve()
        assert results[2].simulated_seconds <= results[0].simulated_seconds

    def test_prefetch_stats_reported(self, small_graph):
        result = PiPADTrainer(
            small_graph, _config(), _pipad(), data_config=DataPipeConfig()
        ).train()
        assert result.extras["prefetch_depth"] == 2.0
        assert result.extras["prefetch_items"] > 0
        assert result.extras["prefetch_host_seconds"] > 0

    def test_disabled_pipeline_forces_serial_unpinned_prep(self, small_graph):
        trainer = PiPADTrainer(
            small_graph,
            _config(),
            PiPADConfig(preparing_epochs=1, enable_pipeline=False),
            data_config=DataPipeConfig(prefetch_depth=4, pin_memory=True),
        )
        assert trainer.data.prefetch_depth == 0
        assert trainer.data.pin_memory is False
        assert trainer.prefetcher.depth == 0


class TestPrefetchDepthSweep:
    """The pipeline-4gpu preset (8 snapshots, 2 epochs) at depths 0, 1, 2 and 4."""

    @pytest.fixture(scope="class")
    def results(self):
        results = {}
        for depth in (0, 1, 2, 4):
            data = {**read_preset("pipeline-4gpu"), "num_snapshots": 8, "epochs": 2}
            data["data"] = {**data["data"], "prefetch_depth": depth}
            results[depth] = Engine.from_spec(RunSpec.from_dict(data)).run().training
        return results

    def test_every_depth_trains_bit_identically(self, results):
        for depth in (1, 2, 4):
            assert results[depth].loss_curve() == results[0].loss_curve()

    def test_prefetch_beats_serial_prep_and_deeper_never_slows(self, results):
        for depth in (1, 2, 4):
            assert results[depth].steady_epoch_seconds < results[0].steady_epoch_seconds
        assert results[4].steady_epoch_seconds <= results[1].steady_epoch_seconds


class TestServingParity:
    def _scheduler(self, small_graph, depth):
        from repro.nn import build_model
        from repro.serving import ServingConfig
        from repro.serving.scheduler import _build_serving_scheduler

        model = build_model("tgcn", small_graph.feature_dim, 8, seed=0)
        return _build_serving_scheduler(
            small_graph,
            model,
            ServingConfig(window=4, max_batch_requests=4, max_delay_ms=0.5),
            data=DataPipeConfig(prefetch_depth=depth),
        )

    def test_predictions_bit_identical_across_depths(self, small_graph):
        outputs = {}
        for depth in (0, 2):
            scheduler = self._scheduler(small_graph, depth)
            scheduler.submit(np.arange(6), at=0.0)
            (first,) = scheduler.pump(0.0, force=True)
            scheduler.submit(np.arange(10, 16), at=1.0)
            (second,) = scheduler.pump(1.0, force=True)
            outputs[depth] = (first.predictions, second.predictions)
        for batch0, batch2 in zip(outputs[0], outputs[2]):
            assert set(batch0) == set(batch2)
            for rid in batch0:
                np.testing.assert_array_equal(batch0[rid], batch2[rid])

    def test_trace_reports_agree_on_everything_but_timing(self, small_graph):
        from repro.serving import synthesize_serving_trace

        reports = {}
        for depth in (0, 2):
            scheduler = self._scheduler(small_graph, depth)
            trace = synthesize_serving_trace(scheduler.store.head, 40, seed=3)
            reports[depth] = scheduler.run_trace(trace)
        assert reports[0].metrics.num_requests == reports[2].metrics.num_requests
        assert reports[0].metrics.deltas_ingested == reports[2].metrics.deltas_ingested
        assert reports[0].metrics.cache_hit_rate == reports[2].metrics.cache_hit_rate
        assert reports[0].reuse_stats == reports[2].reuse_stats
        assert reports[2].extras["prefetch_depth"] == 2.0
        assert reports[2].extras["prefetch_items"] > 0
