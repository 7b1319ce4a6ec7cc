"""The host I/O bus (SBus on the Sparc testbed, PCI on the Pentium Pro).

A single arbiter (capacity-1 resource) is shared by:

* **PIO writes** — the CPU pushing send data into NIC SRAM.  PIO occupies
  *both* the CPU and the bus for the duration; this coupling is why send-side
  bandwidth is CPU-visible overhead in FM, and why the "I/O bus mgmt" curve
  of Figure 3(a) drops so far below the link-only curve.
* **DMA transfers** — the NIC moving received packets into the host receive
  region (and, optionally, send-side DMA for configurations that use it).
  DMA occupies the bus but not the CPU, so receives overlap computation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.simkernel.resources import Resource
from repro.simkernel.units import bytes_per_sec_to_ns_per_byte

from repro.hardware.cpu import HostCpu
from repro.hardware.params import BusParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.env import Environment


class IoBus:
    """Capacity-1 bus arbiter with PIO and DMA cost models."""

    def __init__(self, env: "Environment", params: BusParams, name: str = "bus"):
        self.env = env
        self.params = params
        self.name = name
        self.arbiter = Resource(env, capacity=1, name=f"{name}.arbiter")
        #: ``transfer_time_ns``'s rates, resolved once (a cost is per packet).
        self._pio_ns_per_byte = bytes_per_sec_to_ns_per_byte(params.pio_bw)
        self._dma_ns_per_byte = bytes_per_sec_to_ns_per_byte(params.dma_bw)
        #: Total bytes moved by each mechanism (for utilisation reports).
        self.pio_bytes: int = 0
        self.dma_bytes: int = 0
        self.busy_ns: int = 0

    def pio_write(self, cpu: HostCpu, nbytes: int) -> Generator:
        """CPU writes ``nbytes`` into NIC SRAM (holds CPU *and* bus)."""
        if nbytes < 0:
            raise ValueError(f"negative PIO size: {nbytes}")
        cost = self.pio_cost(nbytes)
        cpu_req = cpu.lock.acquire()
        try:
            if cpu_req is not None:
                yield cpu_req
            bus_req = self.arbiter.acquire()
            try:
                if bus_req is not None:
                    yield bus_req
                yield cost
                self.pio_bytes += nbytes
                self.busy_ns += cost
                cpu.busy_ns += cost
            finally:
                self.arbiter.release(bus_req)
        finally:
            cpu.lock.release(cpu_req)

    def dma_transfer(self, nbytes: int) -> Generator:
        """DMA ``nbytes`` across the bus (bus only; CPU stays free)."""
        if nbytes < 0:
            raise ValueError(f"negative DMA size: {nbytes}")
        cost = self.dma_cost(nbytes)
        bus_req = self.arbiter.acquire()
        try:
            if bus_req is not None:
                yield bus_req
            yield cost
            self.dma_bytes += nbytes
            self.busy_ns += cost
        finally:
            self.arbiter.release(bus_req)

    def pio_cost(self, nbytes: int) -> int:
        return self.params.pio_startup_ns + int(-(-nbytes * self._pio_ns_per_byte // 1))

    def dma_cost(self, nbytes: int) -> int:
        return self.params.dma_startup_ns + int(-(-nbytes * self._dma_ns_per_byte // 1))

    def __repr__(self) -> str:
        return f"<IoBus {self.name!r} pio={self.pio_bytes}B dma={self.dma_bytes}B>"
