"""RunSpec construction, validation and serialization round-trips."""

from __future__ import annotations

import json

import pytest

from repro.api import DataSpec, DeviceSpec, RunSpec, ServingSpec, TraceSpec


class TestRoundTrip:
    def test_dict_round_trip_defaults(self):
        spec = RunSpec(dataset="covid19_england")
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_dict_round_trip_full(self):
        spec = RunSpec(
            dataset="flickr",
            model="evolvegcn",
            method="pygt-a",
            num_snapshots=9,
            frame_size=4,
            epochs=2,
            lr=5e-3,
            seed=11,
            hidden_dim=12,
            cost_scale=42.0,
            pipad={"preparing_epochs": 2, "fixed_s_per": 2},
            device=DeviceSpec(kind="single"),
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_with_serving(self):
        spec = RunSpec(
            dataset="covid19_england",
            serving=ServingSpec(
                kind="sharded",
                num_shards=3,
                window=6,
                fixed_s_per=2,
                trace=TraceSpec(num_events=50, seed=99),
            ),
            device=DeviceSpec(kind="group", num_devices=2, interconnect="pcie"),
        )
        restored = RunSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.serving.trace.seed == 99

    def test_json_round_trip_with_fleet_serving(self):
        spec = RunSpec(
            dataset="covid19_england",
            serving=ServingSpec(
                kind="fleet",
                num_shards=4,
                min_replicas=2,
                max_batch_requests=8,
                admission_limit=8,
                slo_p99_ms=1.5,
                trace=TraceSpec(num_events=40, seed=3),
            ),
        )
        restored = RunSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.serving.min_replicas == 2
        assert restored.serving.slo_p99_ms == 1.5

    def test_to_dict_is_plain_json_data(self):
        spec = RunSpec(dataset="pems08", serving=ServingSpec())
        data = spec.to_dict()
        # Must survive a JSON encode/decode without type loss.
        assert json.loads(json.dumps(data)) == data
        assert isinstance(data["device"], dict)
        assert isinstance(data["serving"]["trace"], dict)

    def test_file_round_trip(self, tmp_path):
        spec = RunSpec(dataset="hepth", method="pygt-r", epochs=5)
        path = spec.save(tmp_path / "spec.json")
        assert RunSpec.load(path) == spec

    def test_data_section_round_trips(self):
        spec = RunSpec(
            dataset="flickr",
            data=DataSpec(prefetch_depth=0, pin_memory=False),
        )
        restored = RunSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.data.prefetch_depth == 0
        assert restored.data.pin_memory is False


class TestUnknownKeyRejection:
    def test_top_level_unknown_key(self):
        with pytest.raises(ValueError, match="unknown RunSpec key.*typo_field"):
            RunSpec.from_dict({"dataset": "flickr", "typo_field": 1})

    def test_device_unknown_key(self):
        with pytest.raises(ValueError, match="unknown DeviceSpec key"):
            RunSpec.from_dict({"dataset": "flickr", "device": {"gpus": 4}})

    def test_serving_unknown_key(self):
        with pytest.raises(ValueError, match="unknown ServingSpec key"):
            RunSpec.from_dict({"dataset": "flickr", "serving": {"shards": 2}})

    def test_trace_unknown_key(self):
        with pytest.raises(ValueError, match="unknown TraceSpec key"):
            RunSpec.from_dict(
                {"dataset": "flickr", "serving": {"trace": {"events": 10}}}
            )

    def test_pipad_override_unknown_key(self):
        with pytest.raises(ValueError, match="unknown PiPADConfig key"):
            RunSpec(dataset="flickr", pipad={"enable_warp_drive": True})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("s_per_candidates", [2, 4]),
            ("slice_capacity", 16),
            ("gpu_reuse_buffer_fraction", 0.5),
            ("memory_safety_fraction", 0.8),
        ],
    )
    def test_removed_pipad_knob_rejected_with_valid_keys(self, key, value):
        """The runtime's fixed sizing is not a PiPADConfig override."""
        with pytest.raises(ValueError, match="unknown PiPADConfig key") as info:
            RunSpec(dataset="flickr", pipad={key: value})
        message = str(info.value)
        assert repr(key) in message
        valid = message.split("valid keys: ")[1].split(", ")
        assert valid == [
            "enable_inter_frame_reuse",
            "enable_pipeline",
            "enable_weight_reuse",
            "fixed_s_per",
            "preparing_epochs",
            "use_cuda_graph",
            "use_sliced_csr",
        ]

    def test_data_unknown_key(self):
        with pytest.raises(ValueError, match="unknown DataSpec key"):
            RunSpec.from_dict({"dataset": "flickr", "data": {"depth": 3}})


class TestLoadTimeTypes:
    @pytest.mark.parametrize(
        "data, field",
        [
            ({"epochs": 2.5}, "RunSpec.epochs"),
            ({"num_snapshots": 7.5}, "RunSpec.num_snapshots"),
            ({"epochs": True}, "RunSpec.epochs"),
            ({"epochs": "3"}, "RunSpec.epochs"),
            ({"data": {"prefetch_depth": 1.0}}, "DataSpec.prefetch_depth"),
            ({"serving": {"trace": {"num_events": 40.0}}}, "TraceSpec.num_events"),
        ],
    )
    def test_non_integer_in_an_int_field_rejected(self, data, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            RunSpec.from_dict({"dataset": "flickr", **data})

    def test_integers_still_load(self):
        spec = RunSpec.from_dict({"dataset": "flickr", "epochs": 2, "seed": 0})
        assert (spec.epochs, spec.seed) == (2, 0)

    @pytest.mark.parametrize(
        "section", ["device", "pipad", "data", "memory", "telemetry", "analysis"]
    )
    def test_null_required_section_rejected(self, section):
        with pytest.raises(ValueError, match=f"RunSpec.{section} must be a mapping, got null"):
            RunSpec.from_dict({"dataset": "flickr", section: None})
        with pytest.raises(ValueError, match=f"RunSpec.{section} must be a mapping"):
            RunSpec(dataset="flickr", **{section: None})

    def test_null_serving_is_a_training_only_run(self):
        assert RunSpec.from_dict({"dataset": "flickr", "serving": None}).serving is None


class TestValidation:
    def test_unknown_dataset_names_choices(self):
        with pytest.raises(ValueError, match="unknown dataset 'mnist'.*covid19_england"):
            RunSpec(dataset="mnist")

    def test_unknown_model_names_choices(self):
        with pytest.raises(ValueError, match="unknown model 'gpt'.*tgcn"):
            RunSpec(dataset="flickr", model="gpt")

    def test_unknown_method_names_choices(self):
        with pytest.raises(ValueError, match="unknown method 'dgl'.*pipad"):
            RunSpec(dataset="flickr", method="dgl")

    def test_name_normalization(self):
        spec = RunSpec(dataset="COVID19-England", model="MPNN-LSTM", method="PyGT_A")
        assert spec.dataset == "covid19_england"
        assert spec.model == "mpnn_lstm"
        assert spec.method == "pygt-a"

    def test_group_device_requires_pipad(self):
        with pytest.raises(ValueError, match="only supported by method 'pipad'"):
            RunSpec(
                dataset="flickr",
                method="pygt",
                device=DeviceSpec(kind="group", num_devices=2),
            )

    def test_pipeline_device_requires_pipad(self):
        with pytest.raises(ValueError, match="only supported by method 'pipad'"):
            RunSpec(
                dataset="flickr",
                method="pygt-g",
                device=DeviceSpec(kind="pipeline", num_devices=2),
            )

    def test_pipeline_device_round_trips(self):
        spec = RunSpec(
            dataset="flickr",
            device=DeviceSpec(
                kind="pipeline", num_devices=4, interconnect="pcie", schedule="blocked"
            ),
        )
        restored = RunSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.device.schedule == "blocked"

    def test_unknown_schedule(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            DeviceSpec(kind="pipeline", num_devices=2, schedule="zigzag")

    def test_single_device_rejects_multiple_devices(self):
        with pytest.raises(ValueError, match="requires num_devices=1"):
            DeviceSpec(kind="single", num_devices=4)

    def test_unknown_device_kind(self):
        with pytest.raises(ValueError, match="unknown device kind"):
            DeviceSpec(kind="tpu_pod")

    def test_unknown_interconnect(self):
        with pytest.raises(ValueError, match="unknown interconnect"):
            DeviceSpec(kind="group", num_devices=2, interconnect="infiniband")
        # Checked for every kind, not only the ones that use a peer link.
        with pytest.raises(ValueError, match="unknown interconnect 'x'; valid kinds"):
            DeviceSpec(kind="single", interconnect="x")

    def test_unknown_serving_kind(self):
        with pytest.raises(ValueError, match="unknown serving kind"):
            ServingSpec(kind="edge")

    def test_local_serving_rejects_shards(self):
        with pytest.raises(ValueError, match="requires num_shards=1"):
            ServingSpec(kind="local", num_shards=2)

    def test_sharded_serving_requires_shards(self):
        with pytest.raises(ValueError, match="requires num_shards>=2"):
            ServingSpec(kind="sharded", num_shards=1)

    def test_fleet_serving_requires_shards(self):
        with pytest.raises(ValueError, match="requires num_shards>=2"):
            ServingSpec(kind="fleet", num_shards=1)

    def test_fleet_replica_floor_within_shards(self):
        with pytest.raises(ValueError, match="min_replicas <= num_shards"):
            ServingSpec(kind="fleet", num_shards=2, min_replicas=3)

    def test_fleet_admission_limit_positive(self):
        with pytest.raises(ValueError, match="admission_limit"):
            ServingSpec(kind="fleet", num_shards=2, admission_limit=0)

    @pytest.mark.parametrize(
        "knob",
        [
            {"window": 0},
            {"max_batch_requests": 0},
            {"max_delay_ms": -1},
            {"fixed_s_per": 0},
        ],
        ids=lambda knob: next(iter(knob)),
    )
    def test_scheduler_knobs_rejected_before_an_engine_exists(self, knob):
        """An invalid scheduler knob fails at spec construction, not when
        the serving engine is first built after training."""
        (name,) = knob
        with pytest.raises(ValueError, match=f"{name} must be"):
            ServingSpec(**knob)
        with pytest.raises(ValueError, match=f"{name} must be"):
            RunSpec(dataset="flickr", serving=knob)

    def test_trace_fraction_bounds(self):
        with pytest.raises(ValueError, match="request_fraction"):
            TraceSpec(request_fraction=1.5)

    def test_bad_optimizer(self):
        # the optimizer is Adam; a spec cannot name another one
        with pytest.raises(ValueError, match="optimizer"):
            RunSpec.from_dict({"dataset": "flickr", "optimizer": "lion"})

    def test_unknown_datapipe_pipeline_names_choices(self):
        for name in ("turbo", "monolithic"):
            with pytest.raises(
                ValueError, match=f"unknown datapipe pipeline '{name}'.*staged"
            ):
                DataSpec(pipeline=name)

    def test_negative_prefetch_depth_rejected(self):
        with pytest.raises(ValueError, match="prefetch_depth must be >= 0"):
            DataSpec(prefetch_depth=-1)

    def test_bool_prefetch_depth_rejected(self):
        with pytest.raises(ValueError, match="prefetch_depth must be an int"):
            DataSpec(prefetch_depth=True)


class TestSectionsAreConfigs:
    """Each section is, or extends, the runtime config it feeds."""

    def test_trainer_config_matches_fields(self):
        spec = RunSpec(
            dataset="flickr", model="tgcn", frame_size=4, epochs=7, lr=2e-3, seed=5
        )
        tc = spec.trainer_config()
        assert (tc.model, tc.frame_size, tc.epochs, tc.lr, tc.seed) == (
            "tgcn", 4, 7, 2e-3, 5,
        )

    def test_pipad_section_is_a_pipad_config(self):
        from repro.core.config import PiPADConfig

        spec = RunSpec(
            dataset="flickr",
            pipad={"preparing_epochs": 3, "use_sliced_csr": False},
        )
        assert spec.pipad == PiPADConfig(preparing_epochs=3, use_sliced_csr=False)
        assert RunSpec(dataset="flickr").pipad == PiPADConfig()

    def test_serving_spec_is_a_serving_config(self):
        from repro.serving import ServingConfig

        cfg = ServingSpec(window=6, max_batch_requests=4, enable_reuse=False)
        assert isinstance(cfg, ServingConfig)
        assert cfg.window == 6
        assert cfg.max_batch_requests == 4
        assert cfg.enable_reuse is False

    def test_serving_spec_is_a_fleet_config(self):
        from repro.distributed import FleetConfig

        cfg = ServingSpec(
            kind="fleet",
            num_shards=4,
            min_replicas=2,
            max_batch_requests=4,
            admission_limit=6,
            slo_p99_ms=3.0,
        )
        assert isinstance(cfg, FleetConfig)
        assert cfg.num_shards == 4
        assert cfg.min_replicas == 2
        assert cfg.admission_limit == 6
        assert cfg.slo_p99_ms == 3.0

    def test_data_spec_is_a_pipe_config(self):
        from repro.core.datapipe import DataPipeConfig

        data = DataSpec(prefetch_depth=3, pin_memory=False)
        assert isinstance(data, DataPipeConfig)
        assert (data.prefetch_depth, data.pin_memory) == (3, False)

    def test_device_spec_is_the_group_config(self):
        from repro.core.group_trainer import GroupConfig

        device = DeviceSpec(kind="pipeline", num_devices=4, schedule="blocked")
        assert isinstance(device, GroupConfig)
        assert (device.num_devices, device.schedule) == (4, "blocked")

    def test_parent_report_spec_form_still_loads(self):
        """A report saved before the sections became configs stored ``pipad``
        as its overrides only; it loads to the same spec."""
        from repro.api import RunReport

        old = {
            "dataset": "flickr",
            "pipad": {"fixed_s_per": 2},
            "device": {"kind": "pipeline", "num_devices": 4, "interconnect": "nvlink",
                       "schedule": "round_robin"},
            "data": {"pipeline": "staged", "prefetch_depth": 2, "pin_memory": True},
            "memory": {"feature_cache": True, "gpu_budget_mb": 2048.0,
                       "pinned_budget_mb": 1024.0, "block_rows": 64},
        }
        report = RunReport.from_dict(
            {"spec": old, "training": None, "serving": None, "metrics": {}, "extras": {}}
        )
        assert report.spec == RunSpec.from_dict(old)
        assert report.spec.pipad.fixed_s_per == 2
        assert RunSpec.from_dict(report.spec.to_dict()) == report.spec
