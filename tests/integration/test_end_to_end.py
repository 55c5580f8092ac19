"""Integration tests: training convergence, cross-method agreement, paper shapes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.registries import trainer_registry
from repro.baselines import PyGTGeSpMMTrainer, PyGTTrainer, TrainerConfig
from repro.core import PiPADConfig, PiPADTrainer
from repro.graph import load_dataset


@pytest.fixture(scope="module")
def covid_graph():
    return load_dataset("covid19_england", seed=0, num_snapshots=10)


class TestConvergence:
    def test_loss_decreases_over_epochs(self, covid_graph):
        config = TrainerConfig(model="tgcn", frame_size=5, epochs=6, lr=5e-3)
        result = PyGTTrainer(covid_graph, config).train()
        curve = result.loss_curve()
        assert curve[-1] < curve[0]

    def test_pipad_training_converges_identically(self, covid_graph):
        config = TrainerConfig(model="mpnn_lstm", frame_size=5, epochs=4, lr=5e-3)
        baseline = PyGTTrainer(covid_graph, config).train()
        pipad = PiPADTrainer(
            covid_graph, config, PiPADConfig(preparing_epochs=1)
        ).train()
        np.testing.assert_allclose(baseline.loss_curve(), pipad.loss_curve(), rtol=1e-3)


class TestPaperShapes:
    @pytest.mark.parametrize("model", ["tgcn", "evolvegcn", "mpnn_lstm"])
    def test_pipad_fastest_on_small_dataset(self, covid_graph, model):
        config = TrainerConfig(model=model, frame_size=5, epochs=3)
        times = {}
        for method in ("pygt", "pygt-g", "pipad"):
            kwargs = {"pipad_config": PiPADConfig(preparing_epochs=1)} if method == "pipad" else {}
            trainer = trainer_registry()[method](covid_graph, config, **kwargs)
            times[method] = trainer.train().steady_epoch_seconds
        assert times["pipad"] < times["pygt-g"] <= times["pygt"] * 1.05
        assert times["pygt"] / times["pipad"] > 1.5

    def test_speedup_band_matches_paper_range(self, covid_graph):
        """End-to-end speedup falls in (or above) the paper's 1.22x–9.57x band."""
        config = TrainerConfig(model="tgcn", frame_size=5, epochs=3)
        baseline = PyGTTrainer(covid_graph, config).train()
        pipad = PiPADTrainer(
            covid_graph, config, PiPADConfig(preparing_epochs=1)
        ).train()
        speedup = baseline.steady_epoch_seconds / pipad.steady_epoch_seconds
        assert speedup > 1.22

    def test_large_dataset_transfer_dominates_pygt(self):
        graph = load_dataset("flickr", seed=0, num_snapshots=8)
        config = TrainerConfig(model="evolvegcn", frame_size=5, epochs=2)
        result = PyGTTrainer(graph, config).train()
        transfer_fraction = result.breakdown.get("h2d", 0.0) / result.simulated_seconds
        assert transfer_fraction > 0.2  # the Fig. 3 observation (≈39 % on average)

    def test_large_dataset_limited_parallelism(self):
        graph = load_dataset("flickr", seed=0, num_snapshots=8)
        config = TrainerConfig(model="evolvegcn", frame_size=5, epochs=2)
        trainer = PiPADTrainer(graph, config, PiPADConfig(preparing_epochs=1))
        trainer.train()
        assert max(trainer.chosen_s_per().values()) <= 2

    def test_whole_run_time_lower_for_pipad_despite_preparing_epoch(self, covid_graph):
        """Even counting the canonical-mode preparing epoch, the whole PiPAD run
        finishes earlier than PyGT-G on the simulated device."""
        config = TrainerConfig(model="evolvegcn", frame_size=5, epochs=3)
        pygt_g = PyGTGeSpMMTrainer(covid_graph, config).train()
        pipad = PiPADTrainer(
            covid_graph, config, PiPADConfig(preparing_epochs=1)
        ).train()
        assert pipad.simulated_seconds < pygt_g.simulated_seconds
