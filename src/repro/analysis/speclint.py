"""Static spec lint: legal specs with knobs that do nothing.

Each rule inspects one :class:`~repro.api.spec.RunSpec` and returns
warnings.  A spec that could not run never gets here: construction
already rejects the cross-section errors (``pipad.fixed_s_per`` above
``frame_size``, serving ``fixed_s_per`` above the ``window``, a
``window`` above ``num_snapshots``, a fleet ``max_batch_requests`` above
its ``admission_limit``).  What is left is legal but useless: tier
budget with the feature cache off (``spec-dead-memory``) and a prefetch
depth under the pipeline ablation (``spec-prefetch-pipeline``).  Rules
are registered individually in ``CHECK_REGISTRY`` so
``python -m repro list`` shows the full catalog and ``analysis.checks``
can select them one by one.
"""

from __future__ import annotations

from typing import List

from .base import SEVERITY_WARNING, Violation


def lint_dead_memory_knobs(spec: object) -> List[Violation]:
    """A GPU-tier budget declared while the feature cache is off does nothing."""
    memory = spec.memory
    if memory.feature_cache or memory.gpu_budget_mb is None:
        return []
    return [
        Violation(
            check="spec-dead-memory",
            message=(
                "memory.gpu_budget_mb set while memory.feature_cache is false — "
                "the tier budget is ignored; enable the cache or drop it"
            ),
            severity=SEVERITY_WARNING,
            source="spec.memory",
        )
    ]


def lint_prefetch_pipeline(spec: object) -> List[Violation]:
    """Prefetch depth is silently forced to 0 when the pipeline is disabled."""
    if spec.method != "pipad":
        return []
    if spec.pipad.enable_pipeline or spec.data.prefetch_depth == 0:
        return []
    return [
        Violation(
            check="spec-prefetch-pipeline",
            message=(
                f"data.prefetch_depth ({spec.data.prefetch_depth}) has no "
                "effect while pipad.enable_pipeline is false (the ablation "
                "forces fully serialized prep); set the depth to 0 or "
                "re-enable the pipeline"
            ),
            severity=SEVERITY_WARNING,
            source="spec.data",
        )
    ]
