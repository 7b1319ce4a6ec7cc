"""Host CPU: an execution lock plus the cost model for software operations.

The host runs one user process at a time (the paper's model: FM is a
user-level library inside a single process; handlers run inside
``FM_extract``).  All FM / MPI / application code paths execute *inside*
simulation processes and charge time through this class, serialised by a
FIFO lock so that concurrent logical activities on one host (e.g. a sockets
server talking to several clients from separate program generators) never
overlap in CPU time.

Used as ``yield from cpu.memcpy(...)``: :meth:`HostCpu.execute` is the one
generator, and every other charge does its work at call time (``memcpy`` /
``deposit`` move and meter the bytes) and returns ``execute(cost)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.simkernel.resources import Resource
from repro.simkernel.units import bytes_per_sec_to_ns_per_byte

from repro.hardware.memory import Buffer, CopyMeter, copy_bytes
from repro.hardware.params import CpuParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.env import Environment


class HostCpu:
    """Charges simulated time for software operations on one host."""

    def __init__(self, env: "Environment", params: CpuParams, name: str = "cpu"):
        self.env = env
        self.params = params
        self.name = name
        self.lock = Resource(env, capacity=1, name=f"{name}.lock")
        self._memcpy_ns_per_byte = bytes_per_sec_to_ns_per_byte(params.memcpy_bw)
        self.meter = CopyMeter()
        #: Total busy nanoseconds (for utilisation reporting).
        self.busy_ns: int = 0

    # -- core ------------------------------------------------------------------
    def execute(self, cost_ns: int) -> Generator:
        """Hold the CPU for ``cost_ns`` nanoseconds.

        With a fault injector attached (``env.faults``), an active CpuSlow
        episode scales and jitters the charged cost — a slow or noisy host
        — before the CPU is held.
        """
        if cost_ns < 0:
            raise ValueError(f"negative CPU cost: {cost_ns}")
        faults = self.env.faults
        if faults is not None:
            cost_ns = faults.cpu_cost(self.name, cost_ns)
        req = self.lock.acquire()
        try:
            if req is not None:
                yield req
            yield cost_ns
            self.busy_ns += cost_ns
        finally:
            self.lock.release(req)

    # -- cost-model operations ------------------------------------------------
    def memcpy(self, src: Buffer, src_off: int, dst: Buffer, dst_off: int,
               nbytes: int, label: str = "unlabelled") -> Generator:
        """Copy bytes between host buffers: moves data and charges time."""
        copy_bytes(src, src_off, dst, dst_off, nbytes)
        self.meter.record(nbytes, label)
        return self.execute(self.memcpy_cost(nbytes))

    def deposit(self, data, dst: Buffer, dst_off: int = 0,
                label: str = "unlabelled") -> Generator:
        """Write a bytes-like object into a buffer: :meth:`memcpy`'s charge
        and meter record, with the source bytes taken directly (one host
        copy, made at call time, so an immutable source needs no snapshot).
        """
        nbytes = len(data)
        dst.write(data, dst_off)
        self.meter.record(nbytes, label)
        return self.execute(self.memcpy_cost(nbytes))

    def memcpy_cost(self, nbytes: int) -> int:
        """Time a copy of ``nbytes`` would take (no data movement)."""
        return self.params.memcpy_startup_ns + int(-(-nbytes * self._memcpy_ns_per_byte // 1))

    def call(self) -> Generator:
        """One function call / handler dispatch."""
        return self.execute(self.params.call_ns)

    def poll(self) -> Generator:
        """One poll of a device status word (uncached read over the bus)."""
        return self.execute(self.params.poll_ns)

    def per_packet(self) -> Generator:
        """Per-packet protocol bookkeeping (header build/parse, credits)."""
        return self.execute(self.params.per_packet_ns)

    def per_message(self) -> Generator:
        """Per-message API-crossing bookkeeping."""
        return self.execute(self.params.per_message_ns)

    def compute(self, cost_ns: int) -> Generator:
        """Application compute time (explicit, for examples/benchmarks)."""
        return self.execute(cost_ns)

    def __repr__(self) -> str:
        return f"<HostCpu {self.name!r} busy={self.busy_ns}ns>"
