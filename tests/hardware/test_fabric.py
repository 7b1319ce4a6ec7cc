"""Fabric wiring and end-to-end packet delivery across topologies."""

import pytest

from repro.simkernel import Environment
from repro.hardware.bus import IoBus
from repro.hardware.fabric import Fabric
from repro.hardware.nic import Nic
from repro.hardware.packet import Packet, PacketHeader
from repro.hardware.params import BusParams, LinkParams, NicParams, SwitchParams
from repro.hardware.topology import fat_tree_2level, single_switch, switch_chain

BUS = BusParams(pio_bw=80e6, pio_startup_ns=100, dma_bw=100e6, dma_startup_ns=500)
NIC = NicParams(sram_packet_slots=4, recv_region_slots=16,
                firmware_send_ns=200, firmware_recv_ns=200)
LINK = LinkParams(bandwidth=160e6, propagation_ns=50, slots=4)
SW = SwitchParams(routing_ns=200, port_buffer_slots=4)


def build(env, topology):
    fabric = Fabric(env, topology, LINK, SW)
    nics = []
    for host in range(topology.n_hosts):
        nic = Nic(env, NIC, IoBus(env, BUS), node_id=host)
        fabric.attach(host, nic)
        nics.append(nic)
    fabric.start()
    return fabric, nics


def send_one(env, fabric, nics, src, dst, payload=b"z" * 32):
    header = PacketHeader(src=src, dest=dst, handler_id=0, msg_id=0, seq=0,
                          msg_bytes=len(payload))
    packet = fabric.stamp_route(Packet(header, payload))
    def host():
        yield from nics[src].submit(packet)
    env.process(host())
    env.run()
    return nics[dst].recv_region.try_get()


class TestDelivery:
    def test_single_switch_delivery(self, env):
        fabric, nics = build(env, single_switch(4))
        delivered = send_one(env, fabric, nics, 0, 3)
        assert delivered is not None
        assert delivered.header.src == 0
        assert delivered.route == []     # fully consumed

    def test_chain_delivery_across_switches(self, env):
        fabric, nics = build(env, switch_chain(8, hosts_per_switch=2))
        delivered = send_one(env, fabric, nics, 0, 7)
        assert delivered is not None
        assert delivered.payload == b"z" * 32

    def test_fat_tree_delivery(self, env):
        fabric, nics = build(env, fat_tree_2level(2, 2, n_spines=2))
        delivered = send_one(env, fabric, nics, 0, 3)
        assert delivered is not None

    def test_all_pairs_single_switch(self, env):
        topo = single_switch(3)
        fabric, nics = build(env, topo)
        for src in range(3):
            for dst in range(3):
                if src == dst:
                    continue
                header = PacketHeader(src=src, dest=dst, handler_id=0,
                                      msg_id=7, seq=0, msg_bytes=4)
                packet = fabric.stamp_route(Packet(header, b"abcd"))
                def host(nic=nics[src], pkt=packet):
                    yield from nic.submit(pkt)
                env.process(host())
        env.run()
        for dst in range(3):
            count = 0
            while nics[dst].recv_region.try_get() is not None:
                count += 1
            assert count == 2


class TestWiring:
    def test_attach_twice_rejected(self, env):
        fabric = Fabric(env, single_switch(2), LINK, SW)
        nic = Nic(env, NIC, IoBus(env, BUS), node_id=0)
        fabric.attach(0, nic)
        with pytest.raises(RuntimeError, match="already attached"):
            fabric.attach(0, nic)

    def test_start_requires_all_hosts(self, env):
        fabric = Fabric(env, single_switch(2), LINK, SW)
        fabric.attach(0, Nic(env, NIC, IoBus(env, BUS), node_id=0))
        with pytest.raises(RuntimeError, match="not attached"):
            fabric.start()

    def test_double_start_rejected(self, env):
        fabric, _nics = build(env, single_switch(2))
        with pytest.raises(RuntimeError, match="twice"):
            fabric.start()

    def test_route_cache_returns_copies(self, env):
        fabric, _nics = build(env, single_switch(3))
        first = fabric.route_for(0, 2)
        first.clear()    # mutate the returned list
        assert fabric.route_for(0, 2) != []

    def test_nic_lookup(self, env):
        fabric, nics = build(env, single_switch(2))
        assert fabric.nic(1) is nics[1]
