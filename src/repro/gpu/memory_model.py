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


def row_access(
    feature_dim: int,
    spec: GPUSpec,
    *,
    vectorized: bool = False,
    coalesced_rows: int = 1,
) -> RowAccessCost:
    """Cost of one warp fetching ``coalesced_rows`` feature rows of ``feature_dim``.

    Parameters
    ----------
    feature_dim:
        Number of float32 elements per row.
    vectorized:
        Use vector memory instructions (wider per-request coverage).
    coalesced_rows:
        Number of rows fetched back-to-back in one coalesced access (PiPAD's
        coalescent feature matrices make this ``S_per``; slice coalescing adds
        multiple slices per warp on top).
    """
    if feature_dim <= 0:
        raise ValueError("feature_dim must be > 0")
    if coalesced_rows <= 0:
        raise ValueError("coalesced_rows must be > 0")
    useful = float(feature_dim * FLOAT_BYTES * coalesced_rows)
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


def classify_dimension(feature_dim: int, spec: GPUSpec) -> str:
    """Classify a feature dimension into the paper's §3.2 regimes."""
    row_bytes = feature_dim * FLOAT_BYTES
    if row_bytes < spec.transaction_bytes:
        return "bandwidth-unsaturated"
    if row_bytes > spec.request_bytes:
        return "request-burst"
    return "balanced"


def feature_cache_budget_bytes(
    spec: GPUSpec,
    *,
    model_bytes: float = 0.0,
    activation_bytes: float = 0.0,
    fraction: float = 0.5,
    safety: float = 0.9,
) -> int:
    """GPU-tier budget for the feature cache: what HBM can spare.

    Reserves the model parameters and the frame's activation working set
    (plus a ``safety`` headroom for allocator slack), then grants
    ``fraction`` of the remainder to feature rows.  Clamped at zero: an
    over-committed device simply gets no GPU tier and every row stages
    through the pinned-host tier instead.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety must be within (0, 1]")
    available = spec.memory_bytes * safety - model_bytes - activation_bytes
    return int(max(0.0, available) * fraction)


def contiguous_bytes_cost(nbytes: float, spec: GPUSpec, *, vectorized: bool = False) -> RowAccessCost:
    """Requests/transactions for a fully coalesced streaming access of ``nbytes``."""
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    if nbytes == 0:
        return RowAccessCost(0.0, 0.0, 0.0, 0.0)
    request_capacity = spec.vector_request_bytes if vectorized else spec.request_bytes
    return RowAccessCost(
        requests=float(math.ceil(nbytes / request_capacity)),
        transactions=float(math.ceil(nbytes / spec.transaction_bytes)),
        useful_bytes=float(nbytes),
        wasted_bytes=0.0,
    )
