"""Collective lint: mismatch/deadlock detection over DeviceGroup traffic.

The simulator schedules collectives bulk-synchronously, so a mismatched
program — rank A entering ``all_reduce`` while rank B entered
``all_gather``, a ``send`` with no matching ``recv``, a barrier some rank
never reaches — still *runs*; on real NCCL it hangs or corrupts.  These
checks replay each group's per-rank communication sequences the way the
NCCL kernel matcher would:

- ``collective-match`` — the k-th group collective must agree across every
  rank in kind and byte count, and every rank must issue the same number;
- ``p2p-pairing`` — each point-to-point send must pair with exactly one
  recv on its peer, same label and bytes, in channel order;
- ``pipeline-order`` — within one backward pass (delimited by
  ``grad_all_reduce``), the gradient hops a stage participates in must walk
  the group chain strictly backward (1F1B's reverse stage order).
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from .base import ExecutionArtifacts, Violation

_GRAD_HOP = re.compile(r"^grad_p(\d+)_(send|recv)$")
_GRAD_REDUCE = "grad_all_reduce"


def _rank_sequences(group: object) -> List[List[object]]:
    """Per-rank list of collective ops (kind ``collective``), program order.

    Reads the kind column and builds a view of the collective ops only.
    """
    return [
        [columns.view(row) for row, kind in enumerate(columns.kind) if kind == "collective"]
        for columns in (device.timeline.columns for device in group.devices)
    ]


def check_collective_match(
    artifacts: ExecutionArtifacts, spec: Optional[object] = None
) -> List[Violation]:
    violations: List[Violation] = []
    for name, domain, group in artifacts.groups:
        ranks = _rank_sequences(group)
        group_seqs = [
            [op for op in seq if op.attrs.get("collective") != "peer_transfer"]
            for seq in ranks
        ]
        counts = [len(seq) for seq in group_seqs]
        if len(set(counts)) > 1:
            lo, hi = min(counts), max(counts)
            lo_rank, hi_rank = counts.index(lo), counts.index(hi)
            violations.append(
                Violation(
                    check="collective-match",
                    message=(
                        f"{name}: rank {lo_rank} issued {lo} group "
                        f"collective(s) but rank {hi_rank} issued {hi}; the "
                        f"extra call(s) on rank {hi_rank} will block forever "
                        "waiting for the missing participant"
                    ),
                    domain=domain,
                    time=group_seqs[hi_rank][min(lo, hi - 1)].start,
                    source=name,
                )
            )
        for position in range(min(counts)):
            ops = [seq[position] for seq in group_seqs]
            kinds = [op.attrs.get("collective") for op in ops]
            if len(set(kinds)) > 1:
                detail = ", ".join(
                    f"rank {i}: {kind} ({op.label!r})"
                    for i, (kind, op) in enumerate(zip(kinds, ops))
                )
                violations.append(
                    Violation(
                        check="collective-match",
                        message=(
                            f"{name}: collective #{position} differs across "
                            f"ranks — {detail}; mismatched collectives "
                            "deadlock the communicator"
                        ),
                        domain=domain,
                        time=min(op.start for op in ops),
                        source=name,
                    )
                )
                continue
            nbytes = [float(op.attrs.get("bytes", 0.0)) for op in ops]
            if max(nbytes) - min(nbytes) > 1e-9 * max(1.0, max(nbytes)):
                violations.append(
                    Violation(
                        check="collective-match",
                        message=(
                            f"{name}: collective #{position} "
                            f"({ops[0].label!r}) has mismatched byte counts "
                            f"across ranks ({min(nbytes):.0f} vs "
                            f"{max(nbytes):.0f}); partial reductions corrupt "
                            "the result"
                        ),
                        domain=domain,
                        time=min(op.start for op in ops),
                        source=name,
                    )
                )
    return violations


def check_p2p_pairing(
    artifacts: ExecutionArtifacts, spec: Optional[object] = None
) -> List[Violation]:
    violations: List[Violation] = []
    for name, domain, group in artifacts.groups:
        sends: Dict[Tuple[int, int], List[object]] = defaultdict(list)
        recvs: Dict[Tuple[int, int], List[object]] = defaultdict(list)
        for rank, seq in enumerate(_rank_sequences(group)):
            for op in seq:
                if op.attrs.get("collective") != "peer_transfer":
                    continue
                peer = int(op.attrs.get("peer", -1))
                if op.label.endswith("_send"):
                    sends[(rank, peer)].append(op)
                elif op.label.endswith("_recv"):
                    recvs[(peer, rank)].append(op)
        for channel in sorted(set(sends) | set(recvs)):
            src, dst = channel
            pending_sends, pending_recvs = sends[channel], recvs[channel]
            for position, (send, recv) in enumerate(
                zip(pending_sends, pending_recvs)
            ):
                send_base = send.label[: -len("_send")]
                recv_base = recv.label[: -len("_recv")]
                if send_base != recv_base:
                    violations.append(
                        Violation(
                            check="p2p-pairing",
                            message=(
                                f"{name}: transfer #{position} on channel "
                                f"{src}->{dst} pairs send {send.label!r} with "
                                f"recv {recv.label!r}; out-of-order p2p "
                                "matching deadlocks both endpoints"
                            ),
                            domain=domain,
                            time=min(send.start, recv.start),
                            source=name,
                        )
                    )
                elif abs(
                    float(send.attrs.get("bytes", 0.0))
                    - float(recv.attrs.get("bytes", 0.0))
                ) > 1e-9:
                    violations.append(
                        Violation(
                            check="p2p-pairing",
                            message=(
                                f"{name}: send/recv pair {send_base!r} on "
                                f"channel {src}->{dst} disagrees on bytes; "
                                "truncated or overrun receive"
                            ),
                            domain=domain,
                            time=send.start,
                            source=name,
                        )
                    )
            for op in pending_sends[len(pending_recvs):]:
                violations.append(
                    Violation(
                        check="p2p-pairing",
                        message=(
                            f"{name}: send {op.label!r} on channel "
                            f"{src}->{dst} has no matching recv on rank "
                            f"{dst}; rank {src} blocks forever"
                        ),
                        domain=domain,
                        time=op.start,
                        source=name,
                    )
                )
            for op in pending_recvs[len(pending_sends):]:
                violations.append(
                    Violation(
                        check="p2p-pairing",
                        message=(
                            f"{name}: recv {op.label!r} on channel "
                            f"{src}->{dst} has no matching send on rank "
                            f"{src}; rank {dst} blocks forever"
                        ),
                        domain=domain,
                        time=op.start,
                        source=name,
                    )
                )
    return violations


def check_pipeline_order(
    artifacts: ExecutionArtifacts, spec: Optional[object] = None
) -> List[Violation]:
    """1F1B backward order: gradient hops walk stages strictly backward."""
    violations: List[Violation] = []
    for name, domain, group in artifacts.groups:
        for rank, seq in enumerate(_rank_sequences(group)):
            previous: Optional[int] = None
            previous_op = None
            for op in seq:
                if op.label == _GRAD_REDUCE:
                    previous, previous_op = None, None  # next backward pass
                    continue
                match = _GRAD_HOP.match(op.label)
                if match is None:
                    continue
                index = int(match.group(1))
                if previous is not None and index >= previous:
                    violations.append(
                        Violation(
                            check="pipeline-order",
                            message=(
                                f"{name}: rank {rank} handled gradient hop "
                                f"{op.label!r} after "
                                f"{previous_op.label!r} within one backward "
                                "pass; 1F1B requires the gradient chain to "
                                "visit groups in strictly decreasing order"
                            ),
                            domain=domain,
                            time=op.start,
                            source=name,
                        )
                    )
                previous, previous_op = index, op
    return violations
