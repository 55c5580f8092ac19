"""Global-memory access model (§3.2 of the paper).

Mainstream GPUs serve global memory in 32-byte transactions, and a warp of
32 threads issuing 4-byte scalar loads covers at most 128 bytes per request.
Reading one dense feature row of dimension ``F`` therefore exhibits two
inefficiency regimes:

- **bandwidth unsaturation** when ``4*F < 32``: the transaction moves more
  bytes than are useful;
- **request burst** when ``4*F > 128``: a single row needs several requests.

Vector memory instructions (float2/float4 per thread) widen the per-request
coverage and are how PiPAD handles large dimensions (§4.2).  These helpers
compute request/transaction counts for a *row access* performed by one warp;
kernel estimators multiply them by the number of accesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.gpu.spec import GPUSpec

#: bytes per float32 feature element
FLOAT_BYTES = 4


@dataclass(frozen=True)
class RowAccessCost:
    """Requests/transactions/useful bytes for one warp reading one dense row."""

    requests: float
    transactions: float
    useful_bytes: float
    wasted_bytes: float

    @property
    def total_bytes(self) -> float:
        return self.useful_bytes + self.wasted_bytes


def row_access(feature_dim: int, spec: GPUSpec, *, vectorized: bool = False) -> RowAccessCost:
    """Cost of one warp fetching one feature row of ``feature_dim`` float32s.

    ``vectorized`` uses vector memory instructions (wider per-request
    coverage).
    """
    if feature_dim <= 0:
        raise ValueError("feature_dim must be > 0")
    useful = float(feature_dim * FLOAT_BYTES)
    request_capacity = spec.vector_request_bytes if vectorized else spec.request_bytes
    requests = max(1.0, math.ceil(useful / request_capacity))
    transactions = max(1.0, math.ceil(useful / spec.transaction_bytes))
    wasted = transactions * spec.transaction_bytes - useful
    return RowAccessCost(
        requests=float(requests),
        transactions=float(transactions),
        useful_bytes=useful,
        wasted_bytes=float(max(0.0, wasted)),
    )


def feature_cache_budget_bytes(
    spec: GPUSpec,
    *,
    model_bytes: float = 0.0,
    activation_bytes: float = 0.0,
) -> int:
    """GPU-tier budget for the feature cache: what HBM can spare.

    Reserves the model parameters and the frame's activation working set
    (plus 10 % of HBM as headroom for allocator slack), then grants half of
    the remainder to feature rows.  Clamped at zero: an over-committed
    device simply gets no GPU tier and every row stages through the
    pinned-host tier instead.
    """
    available = spec.memory_bytes * 0.9 - model_bytes - activation_bytes
    return int(max(0.0, available) * 0.5)


def contiguous_bytes_cost(nbytes: float, spec: GPUSpec) -> RowAccessCost:
    """Requests/transactions for a fully coalesced streaming access of ``nbytes``."""
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    if nbytes == 0:
        return RowAccessCost(0.0, 0.0, 0.0, 0.0)
    return RowAccessCost(
        requests=float(math.ceil(nbytes / spec.request_bytes)),
        transactions=float(math.ceil(nbytes / spec.transaction_bytes)),
        useful_bytes=float(nbytes),
        wasted_bytes=0.0,
    )
