"""Build a simulated cluster — or, for a partitioned parallel run, one
partition's share of it — and run programs on it."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Optional, Sequence

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

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel.partition import PartitionPlan

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
    """N simulated hosts on a fabric, each with an FM endpoint.

    One builder serves both engines.  Given a
    :class:`~repro.parallel.partition.PartitionPlan` and a ``partition``
    index, ``nodes`` holds only the hosts that partition owns (ascending,
    under their global ids; :meth:`node` and :meth:`spawn` take global ids
    and ``n_nodes`` stays the whole cluster's size), and given a worker's
    barrier call as ``exchange``
    (:meth:`repro.parallel.sync.WorkerSync.exchange`) :meth:`run` advances
    in lookahead windows.  A plan-less build is the one-partition case: it
    owns every node and cuts no edge.
    """

    def __init__(self, n_nodes: int, machine: MachineParams = PPRO_FM2,
                 fm_version: int = 2, topology: Optional[Topology] = None,
                 fm_params: Optional[FmParams] = None,
                 trunk_params=None, plan: Optional["PartitionPlan"] = None,
                 partition: int = 0, exchange: Optional[Callable] = None):
        if n_nodes < 2:
            raise ValueError(f"a cluster needs at least 2 nodes, got {n_nodes}")
        self.n_nodes = n_nodes
        self.exchange = exchange
        #: Simulated instant the last :meth:`run`'s programs all finished.
        self.done_ns: Optional[int] = None
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
                             machine.switch, trunk_params=trunk_params,
                             plan=plan, partition=partition)
        self.nodes: list[Node] = []
        for i in self.fabric.owned_hosts():
            node = Node(self.env, i, machine)
            self.fabric.attach(i, node.nic)
            node.bind_fm(self.fabric, fm_version, self.fm_params)
            self.nodes.append(node)
        self._by_id = {node.node_id: node for node in self.nodes}
        self.fabric.start()

    def node(self, i: int) -> Node:
        """The node with global id ``i`` (``KeyError`` if not built here)."""
        return self._by_id[i]

    def observe(self, observer=None):
        """Attach an :class:`~repro.obs.observer.Observer` to this cluster.

        Creates one (with a fresh metrics registry) when ``observer`` is
        ``None``, hooks it onto the environment so every instrumented layer
        starts emitting spans, and federates each node's CPU copy meter under
        the label ``node<i>.cpu``.  Returns the observer.  Observation is
        purely passive: simulated results are bit-identical with or without
        it.
        """
        from repro.obs.observer import Observer  # deferred: obs is optional

        if observer is None:
            observer = Observer()
        observer.attach(self.env)
        for node in self.nodes:
            observer.metrics.register_copy_meter(f"node{node.node_id}.cpu",
                                                 node.cpu.meter)
        if self.env.faults is not None:
            observer.metrics.register_counters("faults",
                                               self.env.faults.counters)
        return observer

    def inject_faults(self, plan=None):
        """Attach a :class:`~repro.faults.injector.FaultInjector` for ``plan``.

        Pass a :class:`~repro.faults.plan.FaultPlan` (or ``None`` for an
        empty one, which injects nothing).  Same contract as
        :meth:`observe`: the hook costs nothing when absent, and a plan
        with no episodes leaves the run bit-identical.  If an observer is
        already attached, the injector's fault counters are federated into
        its metrics registry; returns the injector (its ``events`` list is
        the deterministic fault trace).
        """
        from repro.faults import FaultInjector  # deferred: faults is optional

        injector = FaultInjector(plan)
        injector.attach(self.env)
        if self.env.obs is not None:
            self.env.obs.metrics.register_counters("faults",
                                                   injector.counters)
        return injector

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
        processes idle out) or at ``until_ns``.  A cluster built with an
        ``exchange`` call stops at the first window barrier where every
        partition's programs have finished; :attr:`done_ns` is then this
        partition's own finish instant.
        """
        if len(programs) > self.n_nodes:
            raise ValueError(
                f"{len(programs)} programs for {self.n_nodes} nodes"
            )
        if self.exchange is not None and until_ns is not None:
            raise ValueError("until_ns needs one event loop: a windowed run "
                             "has no global time guard")
        procs: list[Optional[Process]] = []
        for i, program in enumerate(programs):
            procs.append(self.spawn(program, i) if program is not None else None)
        live = [p for p in procs if p is not None]
        done = self.env.all_of(live)
        done.callbacks.append(self._mark_done)
        if self.exchange is not None:
            self._run_windows(done)
        elif until_ns is None:
            self.env.run(until=done)
        else:
            self.env.run(until=until_ns)
            if not done.triggered:
                raise TimeoutError(
                    f"programs still running at {until_ns} ns: "
                    + ", ".join(p.name for p in live if not p.triggered)
                )
        return [p.value if p is not None else None for p in procs]

    def _mark_done(self, _event) -> None:
        self.done_ns = self.env.now

    def _run_windows(self, done) -> None:
        """Advance in lookahead windows, exchanging boundary packets at each
        barrier, until the coordinator says every partition is done.

        A plan with no cut edges has no lookahead to wait for: its single
        window is the plain drain to ``done``, then one barrier to report it.
        """
        fabric, plan = self.fabric, self.fabric.plan
        width = plan.lookahead_ns if plan is not None else 0
        window = 0
        while True:
            end = (window + 1) * width
            if width:
                self.env.run_window(end)
            else:
                self.env.run(until=done)
            inbound, stop = self.exchange(
                window, fabric.drain_outbox(end), done.triggered, self.done_ns)
            if stop:
                return
            fabric.inject(inbound)
            window += 1

    @property
    def now(self) -> int:
        return self.env.now

    def __repr__(self) -> str:
        return (f"<Cluster n={self.n_nodes} fm=FM{self.fm_version} "
                f"machine={self.machine.name!r}>")
