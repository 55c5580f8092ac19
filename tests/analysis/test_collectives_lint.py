"""Collective lint: seeded skews deadlock-check, clean groups pass."""

from __future__ import annotations

import pytest

from repro.analysis import ExecutionArtifacts
from repro.analysis.collectives import (
    check_collective_match,
    check_p2p_pairing,
    check_pipeline_order,
)
from repro.gpu import DeviceGroup, SimulatedGPU


def artifacts_of(group: DeviceGroup) -> ExecutionArtifacts:
    return ExecutionArtifacts(groups=[("gpu", "train", group)])


def seed_collective(group, rank, *, label="all_reduce", kind="all_reduce",
                    nbytes=1024.0):
    """Inject a group collective on a single rank (skewing the program)."""
    return group.devices[rank].timeline.submit(
        label=label,
        kind="collective",
        resource="peer_link",
        duration=1e-5,
        stream="comm",
        attrs={"collective": kind, "bytes": float(nbytes)},
    )


def seed_p2p(group, rank, *, label, peer, nbytes=1024.0):
    return group.devices[rank].timeline.submit(
        label=label,
        kind="collective",
        resource="peer_link",
        duration=1e-5,
        stream="comm",
        attrs={"collective": "peer_transfer", "bytes": float(nbytes),
               "peer": peer},
    )


@pytest.fixture
def group():
    return DeviceGroup([SimulatedGPU() for _ in range(2)])


class TestCollectiveMatch:
    def test_real_collectives_are_clean(self, group):
        group.all_reduce(4096.0)
        group.all_gather(2048.0)
        group.halo_exchange([100.0, 300.0])
        assert check_collective_match(artifacts_of(group)) == []

    def test_count_skew_reports_deadlock(self, group):
        group.all_reduce(4096.0)
        seed_collective(group, 1)  # rank 1 issues one extra call
        violations = check_collective_match(artifacts_of(group))
        assert len(violations) == 1
        v = violations[0]
        assert v.check == "collective-match"
        assert "rank 0 issued 1" in v.message and "rank 1 issued 2" in v.message
        assert "block forever" in v.message

    def test_kind_skew_reports_mismatch(self, group):
        seed_collective(group, 0, kind="all_reduce")
        seed_collective(group, 1, kind="all_gather", label="all_gather")
        violations = check_collective_match(artifacts_of(group))
        assert len(violations) == 1
        assert "deadlock the communicator" in violations[0].message
        assert "rank 0: all_reduce" in violations[0].message

    def test_byte_skew_reports_corruption(self, group):
        seed_collective(group, 0, nbytes=1024.0)
        seed_collective(group, 1, nbytes=2048.0)
        violations = check_collective_match(artifacts_of(group))
        assert len(violations) == 1
        assert "mismatched byte counts" in violations[0].message


class TestP2PPairing:
    def test_real_send_recv_is_clean(self, group):
        group.send(0, 1, 1024.0, label="frame")
        assert check_p2p_pairing(artifacts_of(group)) == []

    def test_send_without_recv_blocks_forever(self, group):
        seed_p2p(group, 0, label="frame_send", peer=1)
        violations = check_p2p_pairing(artifacts_of(group))
        assert len(violations) == 1
        v = violations[0]
        assert v.check == "p2p-pairing"
        assert "no matching recv" in v.message and "rank 0 blocks forever" in v.message

    def test_recv_without_send_blocks_forever(self, group):
        seed_p2p(group, 1, label="frame_recv", peer=0)
        violations = check_p2p_pairing(artifacts_of(group))
        assert len(violations) == 1
        assert "no matching send" in violations[0].message

    def test_out_of_order_channel_deadlocks(self, group):
        seed_p2p(group, 0, label="a_send", peer=1)
        seed_p2p(group, 0, label="b_send", peer=1)
        seed_p2p(group, 1, label="b_recv", peer=0)
        seed_p2p(group, 1, label="a_recv", peer=0)
        violations = check_p2p_pairing(artifacts_of(group))
        assert len(violations) == 2
        assert all("out-of-order" in v.message for v in violations)

    def test_byte_disagreement_reported(self, group):
        seed_p2p(group, 0, label="frame_send", peer=1, nbytes=1024.0)
        seed_p2p(group, 1, label="frame_recv", peer=0, nbytes=512.0)
        violations = check_p2p_pairing(artifacts_of(group))
        assert len(violations) == 1
        assert "disagrees on bytes" in violations[0].message


class TestPipelineOrder:
    def test_decreasing_gradient_chain_is_clean(self, group):
        for label in ("grad_p2_recv", "grad_p1_recv", "grad_p0_recv"):
            seed_p2p(group, 0, label=label, peer=1)
        assert check_pipeline_order(artifacts_of(group)) == []

    def test_increasing_hop_violates_1f1b(self, group):
        seed_p2p(group, 0, label="grad_p1_send", peer=1)
        seed_p2p(group, 0, label="grad_p2_send", peer=1)
        violations = check_pipeline_order(artifacts_of(group))
        assert len(violations) == 1
        v = violations[0]
        assert v.check == "pipeline-order"
        assert "strictly decreasing" in v.message
        assert "'grad_p2_send'" in v.message

    def test_grad_all_reduce_delimits_backward_passes(self, group):
        # p1 then (new pass) p2: fine once the all-reduce resets the walk.
        seed_p2p(group, 0, label="grad_p1_send", peer=1)
        seed_collective(group, 0, label="grad_all_reduce")
        seed_p2p(group, 0, label="grad_p2_send", peer=1)
        assert check_pipeline_order(artifacts_of(group)) == []

    def test_non_gradient_labels_ignored(self, group):
        seed_p2p(group, 0, label="state_t3_send", peer=1)
        seed_p2p(group, 0, label="state_t4_send", peer=1)
        assert check_pipeline_order(artifacts_of(group)) == []
