"""A charge is its arithmetic: rates resolved once, framing flags built once.

``HostCpu``, ``IoBus`` and ``Link`` resolve their ns-per-byte at
construction instead of calling ``transfer_time_ns`` per packet.  The
simulated clock must not see the difference: every cost here equals
``transfer_time_ns`` at the configured rate plus the startup, for every
calibrated machine and every size a run can ask for.  ``framed`` must be
the ``IntFlag`` OR it replaces, and the same object on every call.
"""

import pytest

from repro import configs
from repro.hardware.bus import IoBus
from repro.hardware.cpu import HostCpu
from repro.hardware.link import Link
from repro.hardware.nic import RDMA_MTU
from repro.hardware.packet import (HEADER_BYTES, WIRE_HOP, Packet,
                                   PacketFlags, PacketHeader, framed)
from repro.hardware.params import MachineParams
from repro.simkernel import Environment, Store
from repro.simkernel.units import transfer_time_ns

MACHINES = {name: machine for name, machine in vars(configs).items()
            if isinstance(machine, MachineParams)}


def primes_below(limit):
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for n in range(2, int(limit ** 0.5) + 1):
        if sieve[n]:
            sieve[n * n::n] = bytes(len(range(n * n, limit, n)))
    return [n for n in range(limit) if sieve[n]]


#: Payload sizes around every packet size the layers cut: FM 1.x's fixed
#: 128 B, FM 2.x's and RDMA's 1 KB, each with and without its header.
MTUS = sorted({configs.FM1_PACKET_PAYLOAD, configs.FM2_MAX_PACKET_PAYLOAD,
               RDMA_MTU})
EDGES = {k * mtu + extra + delta
         for mtu in MTUS for k in range(70_000 // mtu + 1)
         for extra in (0, HEADER_BYTES) for delta in (-1, 0, 1)}
SIZES = sorted({n for n in EDGES | set(range(4097)) | set(primes_below(70_001))
                | {65_536, 70_000} if 0 <= n <= 70_000})


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_host_costs_equal_transfer_time_plus_startup(name):
    machine = MACHINES[name]
    env = Environment()
    cpu = HostCpu(env, machine.cpu)
    bus = IoBus(env, machine.bus)
    for nbytes in SIZES:
        assert cpu.memcpy_cost(nbytes) == transfer_time_ns(
            nbytes, machine.cpu.memcpy_bw, machine.cpu.memcpy_startup_ns)
        assert bus.pio_cost(nbytes) == transfer_time_ns(
            nbytes, machine.bus.pio_bw, machine.bus.pio_startup_ns)
        assert bus.dma_cost(nbytes) == transfer_time_ns(
            nbytes, machine.bus.dma_bw, machine.bus.dma_startup_ns)


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_a_links_wire_time_equals_transfer_time(name):
    """Every packet crosses one real link; its wire hop lasts exactly
    ``transfer_time_ns(wire_bytes, bandwidth)``."""
    machine = MACHINES[name]
    payloads = sorted({n for n in SIZES if n % 97 == 0 or n in EDGES})
    env = Environment()
    link = Link(env, machine.link, name="probe")
    sink = Store(env, capacity=1)
    link.connect(sink)
    link.start()
    data = bytes(max(payloads))
    wire_times = []

    def sender():
        for seq, size in enumerate(payloads):
            yield link.ingress.put(Packet(
                PacketHeader(src=0, dest=1, handler_id=0, msg_id=0,
                             seq=seq, msg_bytes=size),
                memoryview(data)[:size]))

    def receiver():                     # one packet alive at a time
        for _ in payloads:
            packet = yield sink.get()
            (_label, t_end, kind, t_start, _track), = packet.waypoints
            assert kind == WIRE_HOP
            wire_times.append(t_end - t_start)

    env.process(sender())
    env.run(until=env.process(receiver()))
    assert wire_times == [transfer_time_ns(HEADER_BYTES + size,
                                           machine.link.bandwidth)
                          for size in payloads]


#: Every kind a sender frames: data, credit returns, one-sided and
#: collective traffic.
KINDS = [PacketFlags.NONE, PacketFlags.CONTROL, PacketFlags.RDMA_WRITE,
         PacketFlags.RDMA_READ_REQ, PacketFlags.RDMA_READ_RESP,
         PacketFlags.COLLECTIVE]


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.name)
@pytest.mark.parametrize("first", [False, True])
@pytest.mark.parametrize("last", [False, True])
def test_framed_is_the_or_and_built_once(kind, first, last):
    flags = kind
    if first:
        flags |= PacketFlags.FIRST
    if last:
        flags |= PacketFlags.LAST
    built = framed(kind, first, last)
    assert built == flags and type(built) is PacketFlags
    assert built is framed(kind, first, last)
    assert bool(built & PacketFlags.FIRST) is first
    assert bool(built & PacketFlags.LAST) is last
