"""Memory-watermark checker: replayed budgets, tier capacity, HBM peaks."""

from __future__ import annotations

from types import SimpleNamespace

from repro.analysis import ExecutionArtifacts
from repro.analysis.watermark import check_memory_watermark
from repro.gpu import Timeline
from repro.memory import TIER_PINNED, FeatureCache

MIB = 1024.0 * 1024.0


def pin_and_transfer(timeline, *, acquire, budget, tier_used=0.0,
                     transfer_duration=5.0):
    pin = timeline.submit(
        label="pin", kind="cpu", resource="cpu", duration=1.0, stream="prep"
    )
    timeline.annotate(
        pin,
        pinned_acquire_bytes=acquire,
        pinned_tier_used_bytes=tier_used,
        pinned_budget_bytes=budget,
    )
    h2d = timeline.submit(
        label="h2d", kind="h2d", resource="pcie_h2d",
        duration=transfer_duration, stream="copy", depends_on=[pin],
    )
    timeline.annotate(h2d, pinned_release_bytes=acquire)
    return pin, h2d


class TestPinnedReplay:
    def test_overlapping_staging_over_budget_fires(self):
        # Two 600 MiB staging buffers live at once against a 1000 MiB
        # budget: the overshoot ROADMAP item 3 described, seeded directly.
        timeline = Timeline()
        pin_and_transfer(timeline, acquire=600 * MIB, budget=1000 * MIB)
        pin_and_transfer(timeline, acquire=600 * MIB, budget=1000 * MIB)
        violations = check_memory_watermark(
            ExecutionArtifacts(timelines=[("gpu0", "train", timeline)])
        )
        assert len(violations) == 1
        v = violations[0]
        assert v.check == "memory-watermark"
        assert "pinned watermark 1200.0 MiB" in v.message
        assert "raise memory.pinned_budget_mb" in v.message
        assert v.source == "gpu0" and v.time > 0.0

    def test_within_budget_is_clean(self):
        timeline = Timeline()
        pin_and_transfer(timeline, acquire=600 * MIB, budget=1300 * MIB)
        pin_and_transfer(timeline, acquire=600 * MIB, budget=1300 * MIB)
        assert check_memory_watermark(
            ExecutionArtifacts(timelines=[("gpu0", "train", timeline)])
        ) == []

    def test_release_frees_room_for_later_pins(self):
        # Sequential staging (transfer done before the next pin) never
        # stacks: budget equal to one buffer passes.
        timeline = Timeline()
        _, h2d = pin_and_transfer(
            timeline, acquire=600 * MIB, budget=600 * MIB, transfer_duration=0.5
        )
        pin2 = timeline.submit(
            label="pin", kind="cpu", resource="cpu", duration=1.0,
            stream="prep", depends_on=[h2d],
        )
        timeline.annotate(
            pin2,
            pinned_acquire_bytes=600 * MIB,
            pinned_tier_used_bytes=0.0,
            pinned_budget_bytes=600 * MIB,
        )
        assert check_memory_watermark(
            ExecutionArtifacts(timelines=[("gpu0", "train", timeline)])
        ) == []

    def test_tier_residency_counts_against_budget(self):
        # 300 MiB of resident pinned rows + 800 MiB staging > 1000 MiB.
        timeline = Timeline()
        pin_and_transfer(
            timeline, acquire=800 * MIB, budget=1000 * MIB, tier_used=300 * MIB
        )
        violations = check_memory_watermark(
            ExecutionArtifacts(timelines=[("gpu0", "train", timeline)])
        )
        assert len(violations) == 1

    def test_unannotated_timeline_is_skipped(self):
        timeline = Timeline()
        timeline.submit(label="k", kind="kernel", resource="compute",
                        duration=1.0)
        assert check_memory_watermark(
            ExecutionArtifacts(timelines=[("gpu0", "train", timeline)])
        ) == []


class TestCacheTiers:
    def test_reservation_overcommit_fires(self):
        cache = FeatureCache(gpu_budget_bytes=100, pinned_budget_bytes=100)
        cache.tiers[TIER_PINNED].reserved_bytes = 200.0
        violations = check_memory_watermark(
            ExecutionArtifacts(caches=[("gpu0", "train", cache)])
        )
        assert any("residency + reservations" in v.message for v in violations)

    def test_recorded_peak_over_budget_fires(self):
        cache = FeatureCache(gpu_budget_bytes=100, pinned_budget_bytes=100)
        cache.peak_pinned_bytes = 150.0
        violations = check_memory_watermark(
            ExecutionArtifacts(caches=[("gpu0", "train", cache)])
        )
        assert len(violations) == 1
        assert "peak pinned bytes" in violations[0].message

    def test_reserve_staging_never_overcommits(self):
        # The production API itself cannot overshoot: requests are clamped
        # to the bounce-buffer room actually available.
        cache = FeatureCache(gpu_budget_bytes=0, pinned_budget_bytes=1000)
        first = cache.reserve_staging(700.0)
        second = cache.reserve_staging(700.0)
        assert first == 700.0 and second == 300.0
        assert cache.peak_pinned_bytes <= 1000.0
        assert check_memory_watermark(
            ExecutionArtifacts(caches=[("gpu0", "train", cache)])
        ) == []
        cache.release_staging(first)
        cache.release_staging(second)
        assert cache.tiers[TIER_PINNED].reserved_bytes == 0.0


class TestDeviceHBM:
    def fake_device(self, peak, capacity):
        return SimpleNamespace(
            peak_bytes=peak,
            spec=SimpleNamespace(memory_bytes=capacity, name="FakeGPU"),
        )

    def test_peak_over_capacity_fires(self):
        device = self.fake_device(peak=2 * 1024**3, capacity=1 * 1024**3)
        violations = check_memory_watermark(
            ExecutionArtifacts(devices=[("gpu0", "train", device)])
        )
        assert len(violations) == 1
        assert "peak HBM allocation" in violations[0].message
        assert "FakeGPU" in violations[0].message

    def test_peak_within_capacity_is_clean(self):
        device = self.fake_device(peak=1 * 1024**3, capacity=2 * 1024**3)
        assert check_memory_watermark(
            ExecutionArtifacts(devices=[("gpu0", "train", device)])
        ) == []

    def test_shapeless_devices_are_skipped(self):
        assert check_memory_watermark(
            ExecutionArtifacts(devices=[("gpu0", "train", object())])
        ) == []
