"""The ``repro.core.reuse`` path of the inter-frame reuse cache.

:class:`~repro.nn.aggregation.ReuseManager` lives next to the aggregation
provider that consults it: every trainer builds one, the PyGT baselines
too, and ``repro.core`` imports the baselines.  This module only keeps the
``repro.core.reuse:ReuseManager`` name that the host-clock span table of
``benchmarks/e2e/spans.py`` wraps.
"""

from repro.nn.aggregation import ReuseManager

__all__ = ["ReuseManager"]
