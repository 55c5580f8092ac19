"""Static spec lint rules and the check registry/runner machinery.

The cross-section errors are enforced by spec construction; their
rejection tests live in ``tests/api/test_cross_section_rules.py``.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    CHECK_REGISTRY,
    FAMILY_EXECUTION,
    FAMILY_STATIC,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Violation,
    register_check,
    resolve_checks,
    run_checks,
)
from repro.api import AnalysisSpec, RunSpec


def make_spec(**overrides):
    base = {"dataset": "covid19_england", "model": "tgcn", "method": "pipad"}
    base.update(overrides)
    return RunSpec.from_dict(base)


def static_checks():
    return {name for name, info in CHECK_REGISTRY.items() if info.family == FAMILY_STATIC}


def fired(spec, check):
    return [v for v in run_checks(spec).violations if v.check == check]


class TestSpecLintRules:
    def test_default_spec_is_clean(self):
        report = run_checks(make_spec())
        assert report.ok and not report.violations

    def test_static_family_is_the_two_warnings(self):
        assert set(static_checks()) == {"spec-dead-memory", "spec-prefetch-pipeline"}
        assert len(CHECK_REGISTRY) == 7

    def test_dead_memory_knobs_warn(self):
        spec = make_spec(memory={"feature_cache": False, "gpu_budget_mb": 512.0})
        (violation,) = fired(spec, "spec-dead-memory")
        assert violation.severity == SEVERITY_WARNING
        assert "memory.gpu_budget_mb" in violation.message

    def test_prefetch_depth_under_disabled_pipeline(self):
        spec = make_spec(
            pipad={"enable_pipeline": False},
            data={"prefetch_depth": 2},
        )
        (violation,) = fired(spec, "spec-prefetch-pipeline")
        assert violation.severity == SEVERITY_WARNING
        assert "enable_pipeline" in violation.message


class TestRegistry:
    def test_catalog_covers_both_families(self):
        families = {info.family for info in CHECK_REGISTRY.values()}
        assert families == {FAMILY_STATIC, FAMILY_EXECUTION}

    def test_resolve_defaults_to_all(self):
        assert resolve_checks(None) == tuple(CHECK_REGISTRY)
        assert resolve_checks(()) == tuple(CHECK_REGISTRY)

    def test_resolve_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown analysis check"):
            resolve_checks(["hb-race", "not-a-check"])

    def test_resolve_deduplicates_preserving_order(self):
        assert resolve_checks(["hb-race", "hb-race", "spec-dead-memory"]) == (
            "hb-race",
            "spec-dead-memory",
        )

    def test_register_rejects_duplicates_and_bad_family(self):
        with pytest.raises(ValueError, match="already registered"):
            register_check("hb-race", FAMILY_STATIC, "dup", lambda s, a: [])
        with pytest.raises(ValueError, match="family must be"):
            register_check("x", "dynamic", "bad", lambda s, a: [])

    def test_run_checks_without_artifacts_is_static_only(self):
        report = run_checks(make_spec())
        assert set(report.checks) == set(static_checks())

    def test_run_checks_honors_selection(self):
        report = run_checks(make_spec(), checks=["spec-dead-memory"])
        assert report.checks == ("spec-dead-memory",)

    def test_registered_check_participates(self):
        name = "test-always-fires"
        register_check(
            name,
            FAMILY_STATIC,
            "test fixture",
            lambda spec, artifacts: [Violation(check=name, message="boom")],
        )
        try:
            report = run_checks(make_spec(), checks=[name])
            assert not report.ok
            assert [v.message for v in report.violations if v.check == name] == ["boom"]
        finally:
            CHECK_REGISTRY.pop(name)


class TestAnalysisSpec:
    def test_defaults(self):
        spec = AnalysisSpec()
        assert not spec.enabled and spec.checks == ()

    def test_checks_coerce_to_tuple(self):
        spec = AnalysisSpec.from_dict({"checks": ["hb-race"]})
        assert spec.checks == ("hb-race",)

    def test_unknown_check_rejected_at_spec_level(self):
        with pytest.raises(ValueError, match="unknown analysis check"):
            AnalysisSpec(checks=("no-such-check",))

    def test_runspec_nests_and_round_trips(self):
        spec = make_spec(
            analysis={"enabled": True, "checks": ["memory-watermark"]}
        )
        assert spec.analysis.enabled
        assert spec.analysis.checks == ("memory-watermark",)
        restored = RunSpec.from_dict(spec.to_dict())
        assert restored.analysis == spec.analysis

    def test_violation_severity_validated(self):
        with pytest.raises(ValueError, match="severity"):
            Violation(check="x", message="y", severity="fatal")
        assert Violation(check="x", message="y").severity == SEVERITY_ERROR
