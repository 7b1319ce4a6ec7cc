"""Miniature parallel applications over MPI-FM.

Two kernels stand in for the application classes the paper's MPI-FM
numbers target (§5's ping-pong and bandwidth curves are microbenchmarks;
these are the shapes real codes put on top):

* :func:`halo_program` — a 1-D halo-exchange stencil: each rank computes,
  then swaps fixed-size ghost cells with both ring neighbours
  (``sendrecv``, the deadlock-free pairwise exchange).  Communication is
  nearest-neighbour and latency-bound at small halos — the regime where
  FM's short-message performance shows.
* :func:`allreduce_program` — a data-parallel "training step": compute a
  gradient, then ``allreduce`` it across all ranks.  Bandwidth-bound at
  large payloads and collective-latency-bound at small ones.

Both return node programs for :meth:`Cluster.run` (build the communicators
with :func:`repro.upper.mpi.world.build_mpi_world` first).  Rank 0 records
one :class:`WorkloadStats` sample per iteration — the iteration is the
"request": ``note_sent`` at the top, ``note_completed`` with the iteration
latency at the bottom — so the same report schema covers RPC and MPI
scenarios.  :class:`HaloScenario` and :class:`AllreduceScenario` make the
kernels scenario kinds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.scenario import TelemetryFields
from repro.upper.mpi.comm import Communicator
from repro.upper.mpi.world import build_mpi_world

from repro.workloads.stats import WorkloadStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.simkernel.env import Environment


def halo_program(comm: Communicator, *, iterations: int, halo_bytes: int,
                 compute_ns: int = 0,
                 stats: Optional[WorkloadStats] = None) -> Callable[[], Generator]:
    """A 1-D ring halo-exchange stencil program for ``comm``'s rank."""
    if iterations < 1:
        raise ValueError(f"iterations must be positive, got {iterations}")
    if halo_bytes < 1:
        raise ValueError(f"halo_bytes must be positive, got {halo_bytes}")

    def program() -> Generator:
        env = comm.engine.env
        cpu = comm.engine.node.cpu
        rank, size = comm.rank, comm.size
        left, right = (rank - 1) % size, (rank + 1) % size
        # Ghost-cell payloads; contents are irrelevant, sizes are not.
        east = bytes(halo_bytes)
        west = bytes(halo_bytes)
        record = stats if (stats is not None and rank == 0) else None
        for _ in range(iterations):
            t0 = env.now
            if record is not None:
                record.note_sent(2 * halo_bytes)
            if compute_ns:
                yield from cpu.compute(compute_ns)
            # Exchange ghost cells with both neighbours; sendrecv pairs the
            # directions so the ring cannot deadlock.
            east, _ = yield from comm.sendrecv(
                east, dest=right, recvsource=left,
                sendtag=1, recvtag=1, max_bytes=halo_bytes)
            west, _ = yield from comm.sendrecv(
                west, dest=left, recvsource=right,
                sendtag=2, recvtag=2, max_bytes=halo_bytes)
            if record is not None:
                record.note_completed(env.now - t0, 2 * halo_bytes)
        return comm.engine.env.now

    return program


def allreduce_program(comm: Communicator, *, iterations: int,
                      grad_bytes: int, compute_ns: int = 0,
                      stats: Optional[WorkloadStats] = None) -> Callable[[], Generator]:
    """A data-parallel "training step" program: compute, then allreduce.

    ``grad_bytes`` must be a multiple of 4 (the gradient is reduced as
    float32).  Every rank verifies the reduction — the allreduce result of
    all-ones is the rank count — so a collective that silently dropped a
    contribution fails the run instead of skewing the timing.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be positive, got {iterations}")
    if grad_bytes < 4 or grad_bytes % 4:
        raise ValueError(f"grad_bytes must be a positive multiple of 4, "
                         f"got {grad_bytes}")

    import numpy as np

    def program() -> Generator:
        env = comm.engine.env
        cpu = comm.engine.node.cpu
        gradient = np.ones(grad_bytes // 4, dtype=np.float32)
        record = stats if (stats is not None and comm.rank == 0) else None
        for _ in range(iterations):
            t0 = env.now
            if record is not None:
                record.note_sent(grad_bytes)
            if compute_ns:
                yield from cpu.compute(compute_ns)
            reduced = yield from comm.allreduce(gradient, op=np.add)
            if not np.all(reduced == comm.size):
                raise AssertionError(
                    f"rank {comm.rank}: allreduce of ones gave "
                    f"{reduced[0]}, expected {comm.size}")
            if record is not None:
                record.note_completed(env.now - t0, grad_bytes)
        return env.now

    return program


@dataclass(frozen=True)
class MpiScenario(TelemetryFields):
    """What ``kind="halo"`` and ``kind="allreduce"`` share: every node runs
    the kind's :attr:`program` over MPI-FM for ``iterations`` rounds of
    ``compute_ns`` compute plus one exchange of the kind's payload field
    (:attr:`payload_field`).  Rank 0's per-iteration latency fills the same
    :class:`WorkloadStats` report rpc runs use."""

    compute_ns: int = 5_000

    def build_stats(self, env: "Environment") -> WorkloadStats:
        """Unsharded request/response stats: the iteration is the request."""
        return WorkloadStats(env, name=f"workload.{self.name}",
                             sample_interval_ns=self.sample_interval_ns)

    def run(self, cluster: "Cluster", stats: WorkloadStats) -> dict:
        """Build the MPI world and run the kernel on every rank."""
        payload = {self.payload_field: getattr(self, self.payload_field)}
        programs = [self.program(comm, iterations=self.iterations,
                                 compute_ns=self.compute_ns, stats=stats,
                                 **payload)
                    for comm in build_mpi_world(cluster)]
        cluster.run([(lambda node, program=program: program())
                     for program in programs], until_ns=self.until_ns)
        return {}


@dataclass(frozen=True)
class HaloScenario(MpiScenario):
    """``kind="halo"`` — :func:`halo_program` swapping ``halo_bytes`` of
    ghost cells with both ring neighbours (``bytes``: no numpy)."""

    kind: str = "halo"
    halo_bytes: int = 256

    program = staticmethod(halo_program)
    payload_field = "halo_bytes"


@dataclass(frozen=True)
class AllreduceScenario(MpiScenario):
    """``kind="allreduce"`` — :func:`allreduce_program` reducing a
    ``grad_bytes`` float32 gradient (an ndarray: numpy is preloaded)."""

    kind: str = "allreduce"
    grad_bytes: int = 4096

    program = staticmethod(allreduce_program)
    payload_field = "grad_bytes"
    preloads = ("numpy",)
