"""Host-clock spans around the public boundaries of each ``repro`` package.

The traced benchmark run installs wrappers from :data:`LAYER_TARGETS` in the
worker interpreter only; no file under ``src/`` changes.  A span is
``[name, layer, start, end, parent]`` (``parent`` is the index of the
enclosing span, -1 for a root), kept in memory and written out once the run
ends.  A layer's self time is the time its spans cover minus the time their
child spans cover, so nested layers (a trainer calling a model calling the
timeline) are never counted twice.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import importlib
import pkgutil
import sys
import time
from collections import Counter
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

#: layer -> boundary functions, as ``module:function`` or ``module:Class.method``.
#: A method name ending in ``*`` selects every public attribute of the class
#: with that prefix (``*`` alone: every public method and property).  Methods
#: are wrapped on the named class and on every subclass that overrides them.
LAYER_TARGETS: Dict[str, Tuple[str, ...]] = {
    "gpu": (
        "repro.gpu.timeline:Timeline.*",
        "repro.gpu.device:SimulatedGPU.launch_kernel",
        "repro.gpu.device:SimulatedGPU.transfer_h2d",
        "repro.gpu.device:SimulatedGPU.transfer_d2h",
        "repro.gpu.device:SimulatedGPU.elapsed_seconds",
        "repro.gpu.device:SimulatedGPU.gpu_utilization",
        "repro.gpu.device:SimulatedGPU.sm_utilization",
        "repro.gpu.device:SimulatedGPU.breakdown",
        "repro.gpu.device:SimulatedGPU.category_seconds",
        "repro.gpu.device:SimulatedGPU.average_thread_ratio",
        "repro.gpu.device:SimulatedGPU.memory_statistics",
        "repro.gpu.profiler:estimate_event_cost",
        "repro.gpu.device_group:DeviceGroup.all_reduce",
        "repro.gpu.device_group:DeviceGroup.all_gather",
        "repro.gpu.device_group:DeviceGroup.halo_exchange",
        "repro.gpu.device_group:DeviceGroup.send",
        "repro.gpu.device_group:DeviceGroup.barrier",
    ),
    "nn": (
        "repro.nn.base_model:DGNNModel.forward_partition",
        "repro.nn.base_model:DGNNModel.predict_frame",
    ),
    "tensor": (
        "repro.tensor.tensor:Tensor.backward",
        "repro.tensor.optim:Optimizer.step",
    ),
    "kernels": (
        "repro.kernels.base:BaseAggregationKernel.forward",
        "repro.kernels.base:BaseAggregationKernel.backward",
        "repro.kernels.gemm:UpdateGEMM.forward",
        "repro.kernels.gemm:UpdateGEMM.backward",
    ),
    "core": (
        "repro.core.datapipe:DataPipe.partition*",
        "repro.core.datapipe:Prefetcher.schedule",
        "repro.core.datapipe:Prefetcher.mark_consumed",
        "repro.core.tuner:DynamicTuner.decide",
        "repro.core.tuner:DynamicTuner.decide_forward",
        "repro.core.reuse:ReuseManager.*",
    ),
    "baselines": (
        "repro.baselines.base:DGNNTrainerBase.run_epoch",
        "repro.baselines.base:DGNNTrainerBase.train",
    ),
    "memory": (
        "repro.memory.cache:FeatureCache.access",
        "repro.memory.cache:FeatureCache.invalidate",
        "repro.memory.cache:FeatureCache.reserve_staging",
        "repro.memory.cache:FeatureCache.release_staging",
    ),
    "serving": (
        "repro.serving.scheduler:ServingScheduler.submit",
        "repro.serving.scheduler:ServingScheduler.ingest",
        "repro.serving.scheduler:ServingScheduler.absorb_delta",
        "repro.serving.scheduler:ServingScheduler.pump",
        "repro.serving.scheduler:ServingScheduler.run_trace",
        "repro.serving.session:InferenceSession.predict",
    ),
    "distributed": (
        "repro.distributed.fleet:FleetServingEngine.submit",
        "repro.distributed.fleet:FleetServingEngine.ingest",
        "repro.distributed.fleet:FleetServingEngine.pump",
        "repro.distributed.fleet:FleetServingEngine.run_trace",
    ),
    "graph": (
        "repro.graph.datasets:load_dataset",
        "repro.graph.overlap:extract_overlap",
        "repro.graph.overlap:refine_overlap",
        "repro.graph.partition:GraphPartitioner.*",
        "repro.graph.partition:FramePartitioner.*",
    ),
    "api": (
        "repro.api.engine:Engine.from_spec",
        "repro.api.engine:Engine.report",
        "repro.api.registries:build_trainer",
        "repro.api.registries:build_serving",
    ),
    "telemetry": (
        "repro.telemetry.hooks:CallbackList.on_*",
        "repro.telemetry.runtime:Telemetry.collect",
    ),
    "analysis": ("repro.analysis.registry:run_checks",),
}

#: layer of the spans the benchmark opens around its own API calls;
#: their self time is the host time no package boundary accounts for
BENCH_LAYER = "bench"

#: ``calls.<name>`` metric -> substring of the span names it counts
CALL_COUNTS: Dict[str, str] = {
    "timeline_submit": "Timeline.submit",
    "launch_kernel": "SimulatedGPU.launch_kernel",
    "estimate_event_cost": "estimate_event_cost",
    "cache_access": "FeatureCache.access",
    "hooks": "CallbackList.on_",
    "forward_partition": ".forward_partition",
}


class Tracer:
    """Records nested host-clock spans into one in-memory list.

    Times come from ``time.monotonic``, the clock the worker's speed probe
    and call stamps use.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrap(self, func: Callable, name: str, layer: str) -> Callable:
        """``func`` with a span recorded around every call."""
        spans, stack, clock = self.spans, self._stack, time.monotonic

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, layer, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()

        return traced

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()


def layer_self_times(
    spans: Sequence[Sequence], pauses: Iterable[Tuple[float, float]] = ()
) -> Dict[str, float]:
    """Seconds per layer, each span counted minus the time its children cover.

    ``pauses`` are ``(start, seconds)`` intervals in which the program did
    not run, such as the worker's speed samples; each is taken out of the
    innermost span open at its start.
    """
    child_seconds = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child_seconds[parent] += end - start
    starts = [span[2] for span in spans]  # spans are recorded in start order
    for at, seconds in pauses:
        index = bisect.bisect_right(starts, at) - 1
        while index >= 0 and spans[index][3] <= at:
            index = spans[index][4]
        if index >= 0:
            child_seconds[index] += seconds
    totals: Dict[str, float] = {}
    for index, (_, layer, start, end, _) in enumerate(spans):
        totals[layer] = totals.get(layer, 0.0) + (end - start) - child_seconds[index]
    return totals


def span_seconds(
    spans: Iterable[Sequence], prefix: str, pauses: Sequence[Tuple[float, float]] = ()
) -> Dict[str, float]:
    """Inclusive seconds of every span whose name starts with ``prefix``,
    less the ``pauses`` (see :func:`layer_self_times`) that start inside it."""
    totals: Dict[str, float] = {}
    for name, _, start, end, _ in spans:
        if name.startswith(prefix):
            key = name[len(prefix):]
            paused = sum(seconds for at, seconds in pauses if start <= at < end)
            totals[key] = totals.get(key, 0.0) + end - start - paused
    return totals


def call_counts(spans: Iterable[Sequence]) -> Dict[str, int]:
    """The ``calls.*`` counters: spans per boundary in :data:`CALL_COUNTS`."""
    by_name = Counter(span[0] for span in spans)
    return {
        metric: sum(n for name, n in by_name.items() if pattern in name)
        for metric, pattern in CALL_COUNTS.items()
    }


# ---------------------------------------------------------------------- install
def _subclasses(cls: type) -> List[type]:
    found, pending = [], list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return found


def _wrap_descriptor(tracer: Tracer, raw: object, name: str, layer: str) -> object:
    if isinstance(raw, property):
        return property(tracer.wrap(raw.fget, name, layer), raw.fset, raw.fdel, raw.__doc__)
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(tracer.wrap(raw.__func__, name, layer))
    if callable(raw):
        return tracer.wrap(raw, name, layer)
    raise TypeError(f"cannot trace {name}: {type(raw).__name__} is not callable")


def _selected(cls: type, pattern: str) -> List[str]:
    if not pattern.endswith("*"):
        return [pattern]
    prefix = pattern[:-1]
    return [
        name
        for name, value in vars(cls).items()
        if name.startswith(prefix)
        and not name.startswith("_")
        and (isinstance(value, (property, classmethod, staticmethod)) or callable(value))
    ]


def _install_method(tracer: Tracer, cls: type, method: str, layer: str) -> None:
    for owner in [cls] + _subclasses(cls):
        if owner is not cls and method not in vars(owner):
            continue  # inherits the wrapper installed on ``cls``
        raw = next(vars(k)[method] for k in owner.__mro__ if method in vars(k))
        label = f"{owner.__name__}.{method}"
        setattr(owner, method, _wrap_descriptor(tracer, raw, label, layer))


def _install_function(tracer: Tracer, module: object, name: str, layer: str) -> None:
    """Wrap a module-level function wherever a ``repro`` module bound it."""
    original = getattr(module, name)
    wrapped = tracer.wrap(original, name, layer)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every boundary in :data:`LAYER_TARGETS` plus each analysis check.

    Every ``repro`` module is imported first, so functions bound by name in
    lazily imported modules, and subclasses defined there, are wrapped too.
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    for layer, specs in LAYER_TARGETS.items():
        for spec in specs:
            module_name, _, attr = spec.partition(":")
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, pattern = attr.split(".", 1)
                cls = getattr(module, cls_name)
                for method in _selected(cls, pattern):
                    _install_method(tracer, cls, method, layer)
            else:
                _install_function(tracer, module, attr, layer)
    from repro.analysis.registry import CHECK_REGISTRY

    for name, info in list(CHECK_REGISTRY.items()):
        runner = tracer.wrap(info.runner, f"check:{name}", "analysis")
        CHECK_REGISTRY[name] = dataclasses.replace(info, runner=runner)
