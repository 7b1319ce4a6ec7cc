"""Build a simulated cluster and run programs on it."""

from __future__ import annotations

from typing import Callable, Generator, Optional, Sequence

from repro.simkernel.env import Environment
from repro.simkernel.process import Process

from repro.hardware.fabric import Fabric
from repro.hardware.params import MachineParams
from repro.hardware.topology import Topology, single_switch

from repro.configs import (
    FM1_PACKET_PAYLOAD,
    FM2_MAX_PACKET_PAYLOAD,
    FM_CREDIT_BATCH,
    FM_DEFAULT_CREDITS,
    PPRO_FM2,
)
from repro.core.common import FmParams
from repro.cluster.node import Node

#: A program is a generator function taking the node it runs on.
Program = Callable[[Node], Generator]


def default_fm_params(fm_version: int) -> FmParams:
    """The calibrated per-generation protocol constants."""
    if fm_version == 1:
        return FmParams(
            packet_payload=FM1_PACKET_PAYLOAD,
            credits_per_peer=FM_DEFAULT_CREDITS,
            credit_batch=FM_CREDIT_BATCH,
        )
    if fm_version == 2:
        return FmParams(
            packet_payload=FM2_MAX_PACKET_PAYLOAD,
            credits_per_peer=FM_DEFAULT_CREDITS,
            credit_batch=FM_CREDIT_BATCH,
        )
    raise ValueError(f"fm_version must be 1 or 2, got {fm_version}")


class Cluster:
    """N simulated hosts on a fabric, each with an FM endpoint."""

    def __init__(self, n_nodes: int, machine: MachineParams = PPRO_FM2,
                 fm_version: int = 2, topology: Optional[Topology] = None,
                 fm_params: Optional[FmParams] = None,
                 trunk_params=None):
        if n_nodes < 2:
            raise ValueError(f"a cluster needs at least 2 nodes, got {n_nodes}")
        self.n_nodes = n_nodes
        self.env = Environment()
        self.machine = machine
        self.fm_version = fm_version
        self.fm_params = fm_params or default_fm_params(fm_version)
        if self.fm_params.credits_per_peer * (n_nodes - 1) > machine.nic.recv_region_slots:
            raise ValueError(
                "receive region too small for the credit scheme: "
                f"{self.fm_params.credits_per_peer} credits x {n_nodes - 1} peers > "
                f"{machine.nic.recv_region_slots} region slots — flow control "
                "could not guarantee space (raise recv_region_slots or lower "
                "credits_per_peer)"
            )
        self.topology = topology or single_switch(n_nodes)
        if self.topology.n_hosts != n_nodes:
            raise ValueError(
                f"topology has {self.topology.n_hosts} hosts, cluster wants {n_nodes}"
            )
        self.fabric = Fabric(self.env, self.topology, machine.link,
                             machine.switch, trunk_params=trunk_params)
        self.nodes: list[Node] = []
        for i in range(n_nodes):
            node = Node(self.env, i, machine)
            self.fabric.attach(i, node.nic)
            node.bind_fm(self.fabric, fm_version, self.fm_params)
            self.nodes.append(node)
        self.fabric.start()

    def node(self, i: int) -> Node:
        """Node ``i`` (``nodes[i].node_id == i``)."""
        return self.nodes[i]

    def observe(self, observer=None):
        """Attach an :class:`~repro.obs.observer.Observer` to this cluster.

        Creates one (with a fresh metrics registry) when ``observer`` is
        ``None``, hooks it onto the environment so every instrumented layer
        starts emitting spans, and registers each node's CPU copy meter
        under the label ``node<i>.cpu``.  The registry reads the fault
        counters from ``env.faults`` itself, whichever was attached first.
        Returns the observer.  Observation is purely passive: simulated
        results are bit-identical with or without it.
        """
        from repro.obs.observer import Observer  # deferred: obs is optional

        if observer is None:
            observer = Observer()
        observer.attach(self.env)
        for i, node in enumerate(self.nodes):
            observer.metrics.register_copy_meter(f"node{i}.cpu", node.cpu.meter)
        return observer

    def inject_faults(self, plan=None):
        """Attach a :class:`~repro.faults.injector.FaultInjector` for ``plan``.

        Pass a :class:`~repro.faults.plan.FaultPlan` (or ``None`` for an
        empty one, which injects nothing).  Same contract as
        :meth:`observe`: the hook costs nothing when absent, and a plan
        with no episodes leaves the run bit-identical.  An observer's
        registry reports the injector's counters under ``faults``; returns
        the injector (its ``events`` list is the deterministic fault trace).
        """
        from repro.faults import FaultInjector  # deferred: faults is optional

        return FaultInjector(plan).attach(self.env)

    # -- program execution ------------------------------------------------------
    def spawn(self, program: Program, node_id: int, name: str = "") -> Process:
        """Start a program on a node (does not run the simulation)."""
        return self.env.process(
            program(self.node(node_id)), name=name or f"prog@{node_id}"
        )

    def run(self, programs: Sequence[Optional[Program]],
            until_ns: Optional[int] = None) -> list:
        """Run one program per node to completion; returns their results.

        ``programs[i]`` runs on node ``i``; ``None`` leaves a node idle.
        The simulation stops when every program has finished (hardware
        processes idle out) or at ``until_ns``.
        """
        if len(programs) > self.n_nodes:
            raise ValueError(
                f"{len(programs)} programs for {self.n_nodes} nodes"
            )
        procs: list[Optional[Process]] = []
        for i, program in enumerate(programs):
            procs.append(self.spawn(program, i) if program is not None else None)
        live = [p for p in procs if p is not None]
        done = self.env.all_of(live)
        if until_ns is None:
            self.env.run(until=done)
        else:
            self.env.run(until=until_ns)
            if not done.triggered:
                raise TimeoutError(
                    f"programs still running at {until_ns} ns: "
                    + ", ".join(p.name for p in live if not p.triggered)
                )
        return [p.value if p is not None else None for p in procs]

    @property
    def now(self) -> int:
        return self.env.now

    def __repr__(self) -> str:
        return (f"<Cluster n={self.n_nodes} fm=FM{self.fm_version} "
                f"machine={self.machine.name!r}>")
