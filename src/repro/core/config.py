"""PiPAD runtime configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.utils.validation import check_positive


@dataclass(frozen=True)
class PiPADConfig:
    """Knobs of the PiPAD runtime (§4).

    Every optimization can be disabled individually so the ablation benches
    can quantify its contribution.  The runtime's sizing is fixed where it
    is defined: the tuner's candidate levels are
    :data:`~repro.core.tuner.S_PER_CANDIDATES` (2/4/8) and its memory bound
    keeps 10 % of HBM free (:class:`~repro.core.tuner.DynamicTuner`), the
    GPU-side reuse buffer may take a quarter of free HBM
    (:class:`~repro.core.reuse.ReuseManager`), and sliced CSR holds at most
    :data:`~repro.graph.sliced_csr.DEFAULT_SLICE_CAPACITY` (32) non-zeros per
    slice.  Serving runs the same runtime with its own three switches
    (:class:`~repro.serving.scheduler.ServingConfig`).
    """

    #: force a fixed parallelism level (bypasses the tuner) when set
    fixed_s_per: Optional[int] = None
    #: number of profiling ("preparing") epochs run in the canonical
    #: one-snapshot manner before switching to partition-parallel training
    preparing_epochs: int = 1
    #: cache first-layer aggregation results across frames and epochs (§4.4)
    enable_inter_frame_reuse: bool = True
    #: keep one weight tile resident while sweeping all snapshots of a
    #: partition in the update GEMM (§4.2)
    enable_weight_reuse: bool = True
    #: overlap transfers/compute/CPU work on separate streams (§4.3);
    #: disabling serializes everything (ablation)
    enable_pipeline: bool = True
    #: launch the per-partition kernel group through CUDA Graphs
    use_cuda_graph: bool = True
    #: use sliced CSR for overlap/exclusive adjacencies; ``False`` falls back
    #: to the plain-CSR kernel (the Fig. 12 ablation)
    use_sliced_csr: bool = True

    def __post_init__(self) -> None:
        if self.fixed_s_per is not None:
            check_positive("fixed_s_per", self.fixed_s_per)
        if self.preparing_epochs < 0:
            raise ValueError("preparing_epochs must be >= 0")
