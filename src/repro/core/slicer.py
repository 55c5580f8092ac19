"""Online graph analyzer: CSR → sliced CSR conversion (❶ in Fig. 7).

The slicer runs on the host during the preparing epochs and charges how
long converting every snapshot's adjacency into the sliced format takes
(an analytic per-nnz cost, charged to the CPU resource of the timeline so
it can overlap with device work).  The sliced matrices themselves are built
by the sliced-parallel aggregation kernels that use them.
"""

from __future__ import annotations

from typing import Optional

from repro.graph.csr import CSRMatrix
from repro.gpu.spec import HostSpec


class GraphSlicer:
    """Accounts the host time of CSR → sliced CSR conversions."""

    def __init__(self, host: Optional[HostSpec] = None) -> None:
        self.host = host or HostSpec()
        self.total_host_seconds = 0.0

    def conversion_seconds(self, adjacency: CSRMatrix) -> float:
        """Analytic host time of one CSR→sliced conversion."""
        return adjacency.nnz * self.host.slicing_ns_per_nnz * 1e-9
