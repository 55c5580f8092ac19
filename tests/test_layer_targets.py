"""Every span target of the traced benchmark names code that exists.

``benchmarks/e2e/spans.py`` wraps the functions and methods listed in its
``LAYER_TARGETS`` by name.  A deletion or rename under ``src/`` that drops
one of them would only fail the traced benchmark run; this test fails first.
The benchmark's files are read, never changed.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("e2e_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()
TARGETS = [(layer, target) for layer, targets in SPANS.LAYER_TARGETS.items() for target in targets]


@pytest.mark.parametrize("layer,target", TARGETS, ids=[t for _, t in TARGETS])
def test_target_resolves(layer, target):
    module_name, _, attr = target.partition(":")
    module = importlib.import_module(module_name)
    if "." not in attr:
        assert callable(getattr(module, attr, None)), f"{module_name} has no function {attr}"
        return
    cls_name, pattern = attr.split(".", 1)
    cls = getattr(module, cls_name, None)
    assert isinstance(cls, type), f"{module_name} has no class {cls_name}"
    if pattern.endswith("*"):
        assert SPANS._selected(cls, pattern), f"{target} matches no public attribute"
    else:
        assert hasattr(cls, pattern), f"{cls_name} has no attribute {pattern}"


def test_every_layer_has_targets():
    assert all(SPANS.LAYER_TARGETS.values())
