"""Peer-to-peer interconnect cost model for multi-GPU device groups.

Models the device-to-device links (NVLink or PCIe peer transfers) and the
bulk-synchronous collectives scheduled over them.  Collectives use the
standard ring algorithms, so their cost follows the usual α–β form: an
``all_reduce`` of ``N`` bytes over ``K`` devices runs ``2(K-1)`` steps each
moving ``N/K`` bytes per link; an ``all_gather`` runs ``K-1`` such steps.
The cost is symmetric in the endpoints — the rings are bidirectional — which
the distributed tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.utils.validation import check_positive


@dataclass(frozen=True)
class LinkSpec:
    """One peer link: sustained bandwidth plus per-message latency."""

    #: sustained per-direction bandwidth in GB/s
    bandwidth_gbs: float
    #: per-message latency (driver + routing) in µs
    latency_us: float

    def __post_init__(self) -> None:
        check_positive("bandwidth_gbs", self.bandwidth_gbs)
        if self.latency_us < 0:
            raise ValueError("latency_us must be >= 0")

    def transfer_seconds(self, nbytes: float) -> float:
        """Time to move ``nbytes`` across one hop of this link."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if nbytes == 0:
            return 0.0
        return self.latency_us * 1e-6 + nbytes / (self.bandwidth_gbs * 1e9)


#: NVLink 2.0 (V100 era): ~25 GB/s per direction per link, sub-µs routing
NVLINK = LinkSpec(bandwidth_gbs=25.0, latency_us=2.0)
#: PCIe 3.0 peer-to-peer through the switch: lower bandwidth, higher latency
PCIE_PEER = LinkSpec(bandwidth_gbs=10.0, latency_us=10.0)

_LINK_KINDS = {"nvlink": NVLINK, "pcie": PCIE_PEER}

#: peer-link models selectable by name (``Interconnect(kind=...)``)
INTERCONNECT_KINDS: Tuple[str, ...] = tuple(_LINK_KINDS)


class Interconnect:
    """Ring-topology interconnect among ``num_devices`` peers."""

    def __init__(self, num_devices: int, *, kind: str = "nvlink") -> None:
        check_positive("num_devices", num_devices)
        if kind not in _LINK_KINDS:
            raise ValueError(
                f"unknown interconnect kind {kind!r}; expected one of {sorted(_LINK_KINDS)}"
            )
        self.num_devices = num_devices
        self.link = _LINK_KINDS[kind]
        self.kind = kind

    # ------------------------------------------------------------------ point to point
    def ring_distance(self, src: int, dst: int) -> int:
        """Hop count between two peers on the bidirectional ring."""
        for name, device in (("src", src), ("dst", dst)):
            if not 0 <= device < self.num_devices:
                raise ValueError(f"{name} {device} out of range [0, {self.num_devices})")
        direct = abs(src - dst)
        return min(direct, self.num_devices - direct)

    def peer_seconds(self, nbytes: float, src: int, dst: int) -> float:
        """Time for a point-to-point copy between two peers (0 for src == dst)."""
        hops = self.ring_distance(src, dst)
        if hops == 0 or nbytes == 0:
            return 0.0
        return hops * self.link.latency_us * 1e-6 + nbytes / (self.link.bandwidth_gbs * 1e9)

    # ------------------------------------------------------------------ collectives
    def all_reduce_seconds(self, nbytes: float) -> float:
        """Ring all-reduce of an ``nbytes`` buffer replicated on every device.

        Reduce-scatter plus all-gather: ``2(K-1)`` steps, each shipping one
        ``nbytes/K`` chunk over every link in parallel.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        k = self.num_devices
        if k == 1 or nbytes == 0:
            return 0.0
        steps = 2 * (k - 1)
        return steps * self.link.transfer_seconds(nbytes / k)

    def all_gather_seconds(self, nbytes_per_device: float) -> float:
        """Ring all-gather where every device contributes ``nbytes_per_device``."""
        if nbytes_per_device < 0:
            raise ValueError("nbytes_per_device must be >= 0")
        k = self.num_devices
        if k == 1 or nbytes_per_device == 0:
            return 0.0
        return (k - 1) * self.link.transfer_seconds(nbytes_per_device)

    def halo_exchange_seconds(self, max_bytes_per_device: float) -> float:
        """Neighbor halo exchange; bounded by the busiest device's halo volume.

        Each device swaps halo rows with its ring neighbors in both
        directions concurrently, so the exchange finishes when the device
        with the largest halo volume has shipped it over one hop.
        """
        if max_bytes_per_device < 0:
            raise ValueError("max_bytes_per_device must be >= 0")
        if self.num_devices == 1 or max_bytes_per_device == 0:
            return 0.0
        return self.link.transfer_seconds(max_bytes_per_device)
