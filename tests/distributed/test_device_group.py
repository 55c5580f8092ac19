"""Tests for the interconnect cost model and the multi-device group."""

from __future__ import annotations

import pytest

from repro.gpu import (
    COMM_STREAM,
    RESOURCE_PEER_LINK,
    DeviceGroup,
    Interconnect,
    LinkSpec,
    NVLINK,
    PCIE_PEER,
    SimulatedGPU,
)


class TestInterconnect:
    def test_peer_cost_symmetry(self):
        """Acceptance invariant: collective/peer costs are endpoint-symmetric."""
        ic = Interconnect(6)
        for src in range(6):
            for dst in range(6):
                assert ic.peer_seconds(1e6, src, dst) == ic.peer_seconds(1e6, dst, src)

    def test_self_transfer_free(self):
        assert Interconnect(4).peer_seconds(1e9, 2, 2) == 0.0

    def test_ring_distance_wraps(self):
        ic = Interconnect(8)
        assert ic.ring_distance(0, 7) == 1
        assert ic.ring_distance(0, 4) == 4
        assert ic.ring_distance(2, 5) == 3

    def test_all_reduce_follows_ring_formula(self):
        ic = Interconnect(4)
        # 2(K-1) steps of N/K bytes over one NVLink hop each.
        expected = 6 * NVLINK.transfer_seconds(1e9 / 4)
        assert ic.all_reduce_seconds(1e9) == pytest.approx(expected)

    def test_all_reduce_single_device_free(self):
        assert Interconnect(1).all_reduce_seconds(1e9) == 0.0
        assert Interconnect(4).all_reduce_seconds(0.0) == 0.0

    def test_all_gather_cheaper_than_all_reduce(self):
        ic = Interconnect(4)
        assert ic.all_gather_seconds(1e6) < ic.all_reduce_seconds(4e6)

    def test_nvlink_faster_than_pcie(self):
        nv = Interconnect(4, kind="nvlink")
        pcie = Interconnect(4, kind="pcie")
        assert nv.all_reduce_seconds(1e8) < pcie.all_reduce_seconds(1e8)
        assert NVLINK.bandwidth_gbs > PCIE_PEER.bandwidth_gbs

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            Interconnect(4, kind="infiniband")
        with pytest.raises(ValueError):
            Interconnect(4).all_reduce_seconds(-1.0)
        with pytest.raises(ValueError):
            Interconnect(4).peer_seconds(1.0, 0, 9)
        with pytest.raises(ValueError):
            LinkSpec(bandwidth_gbs=-1.0, latency_us=0.0)


class TestDeviceGroup:
    def test_collectives_synchronize_all_devices(self, device_group):
        # Make device 2 busy so the collective must wait for it.
        device_group[2].host_op(5.0, label="busy")
        ops = device_group.all_reduce(1e6)
        assert len(ops) == device_group.num_devices
        starts = {op.start for op in ops}
        ends = {op.end for op in ops}
        assert len(starts) == 1 and len(ends) == 1
        assert ops[0].start == 0.0  # host op is on the CPU resource, not comm

    def test_collective_waits_for_dependencies(self, device_group):
        busy = device_group[1].host_op(3.0, label="grad_compute")
        deps = [None, [busy], None, None]
        ops = device_group.all_reduce(1e6, depends_on=deps)
        assert all(op.start == pytest.approx(3.0) for op in ops)

    def test_cross_device_dependency_edges(self, device_group):
        """An op of one device can gate an op of another (shared clock)."""
        producer = device_group[0].host_op(2.0, label="produce")
        consumer = device_group[3].host_op(
            1.0, label="consume", depends_on=[producer]
        )
        assert consumer.start >= producer.end

    def test_collectives_occupy_comm_engine(self, device_group):
        ops = device_group.all_gather(1e6)
        for op in ops:
            assert op.resource == RESOURCE_PEER_LINK
            assert op.stream == COMM_STREAM
            assert op.kind == "collective"

    def test_back_to_back_collectives_serialize(self, device_group):
        first = device_group.all_reduce(1e6)
        second = device_group.all_reduce(1e6)
        assert second[0].start >= first[0].end

    def test_halo_exchange_bounded_by_heaviest_device(self, device_group):
        light = device_group.interconnect.halo_exchange_seconds(1e5)
        ops = device_group.halo_exchange([1e5, 4e6, 1e5, 0.0])
        heavy = device_group.interconnect.halo_exchange_seconds(4e6)
        assert ops[0].duration == pytest.approx(heavy)
        assert heavy > light

    def test_halo_exchange_requires_per_device_bytes(self, device_group):
        with pytest.raises(ValueError):
            device_group.halo_exchange([1.0, 2.0])

    def test_barrier_costs_nothing_but_aligns(self, device_group):
        device_group[1].host_op(4.0, label="straggler")
        ops = device_group.barrier()
        assert all(op.duration == 0.0 for op in ops)
        assert all(op.start == pytest.approx(4.0) for op in ops)

    def test_single_device_collectives_are_free(self):
        group = DeviceGroup([SimulatedGPU() for _ in range(1)])
        (op,) = group.all_reduce(1e9)
        assert op.duration == 0.0

    def test_makespan_and_breakdown(self, device_group):
        device_group[0].host_op(1.0, label="a")
        device_group.all_reduce(1e6)
        assert device_group.makespan() >= 1.0
        breakdown = device_group.breakdown()
        assert breakdown["collective_all_reduce"] > 0
        assert breakdown["makespan"] == device_group.makespan()

    def test_breakdown_counts_each_collective_once(self, device_group):
        """Regression: summing the K identical per-device collective ops
        overstated communication time K-fold vs the collective_* entries."""
        device_group.all_reduce(1e6)
        device_group.all_gather(1e6)
        breakdown = device_group.breakdown()
        assert breakdown["collective"] == pytest.approx(
            breakdown["collective_all_reduce"] + breakdown["collective_all_gather"]
        )
        assert breakdown["collective"] == pytest.approx(
            sum(device_group.collective_seconds.values())
        )

    def test_wraps_existing_devices(self):
        lead = SimulatedGPU()
        group = DeviceGroup(devices=[lead, SimulatedGPU()])
        assert group[0] is lead
        assert len(group) == 2

    def test_reset_clears_all_timelines(self, device_group):
        device_group.all_reduce(1e6)
        device_group.reset()
        assert device_group.makespan() == 0.0
        assert device_group.collective_seconds == {}

    def test_mismatched_deps_rejected(self, device_group):
        with pytest.raises(ValueError):
            device_group.all_reduce(1.0, depends_on=[None])


class TestPeerSend:
    def test_send_costs_the_peer_transfer(self, device_group):
        send_op, recv_op = device_group.send(0, 1, 1e6)
        expected = device_group.interconnect.peer_seconds(1e6, 0, 1)
        assert send_op.duration == pytest.approx(expected)
        assert recv_op.duration == pytest.approx(expected)

    def test_send_and_recv_cover_the_same_interval(self, device_group):
        send_op, recv_op = device_group.send(2, 3, 1e6)
        assert (send_op.start, send_op.end) == (recv_op.start, recv_op.end)
        assert send_op.attrs["peer"] == 3 and recv_op.attrs["peer"] == 2

    def test_send_lands_on_both_peer_links(self, device_group):
        for op in device_group.send(0, 2, 1e6):
            assert op.resource == RESOURCE_PEER_LINK
            assert op.stream == COMM_STREAM
            assert op.kind == "collective"
            assert op.attrs["collective"] == "peer_transfer"

    def test_send_waits_for_dependencies(self, device_group):
        producer = device_group[0].host_op(2.0, label="state_compute")
        _, recv_op = device_group.send(0, 1, 1e6, depends_on=[producer])
        assert recv_op.start >= producer.end

    def test_busy_endpoint_link_delays_the_send(self, device_group):
        first_send, _ = device_group.send(0, 1, 1e8)
        # A disjoint pair is free to go immediately...
        other_send, _ = device_group.send(2, 3, 1e6)
        assert other_send.start == 0.0
        # ...but a send sharing an endpoint queues behind the busy link.
        second_send, _ = device_group.send(1, 2, 1e6)
        assert second_send.start >= first_send.end

    def test_send_does_not_involve_third_devices(self, device_group):
        device_group.send(0, 1, 1e6)
        assert device_group[2].timeline.ops == []
        assert device_group[3].timeline.ops == []

    def test_send_accumulates_peer_transfer_seconds(self, device_group):
        device_group.send(0, 1, 1e6)
        device_group.send(1, 0, 1e6)
        expected = 2 * device_group.interconnect.peer_seconds(1e6, 0, 1)
        assert device_group.collective_seconds["peer_transfer"] == pytest.approx(expected)
        assert device_group.breakdown()["collective_peer_transfer"] == pytest.approx(
            expected
        )

    def test_send_rejects_bad_endpoints(self, device_group):
        with pytest.raises(ValueError, match="must differ"):
            device_group.send(1, 1, 1.0)
        with pytest.raises(ValueError, match="out of range"):
            device_group.send(0, 9, 1.0)
        with pytest.raises(ValueError, match="out of range"):
            device_group.send(-1, 0, 1.0)
