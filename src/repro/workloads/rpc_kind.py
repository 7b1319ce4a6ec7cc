"""The ``rpc`` scenario kind: placement, wiring, and the one RPC run path.

:class:`RpcScenario` declares the fields an rpc run reads, and everything
that turns one into endpoints, servers and clients lives here, once.
:meth:`RpcScenario.wire` is the single wiring function — ``replicas > 1``
is the same function taking the supervisor carve-out — and placement,
client naming and the arrival/key streams are pure functions of the
scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Optional

from repro.scenario import ArrivalFields, TelemetryFields
from repro.workloads.arrivals import ArrivalSpec, ClosedLoop
from repro.workloads.replication import (
    ReplicatedClient,
    ReplicatedDirectory,
    ShardHealth,
    ShardSupervisor,
)
from repro.workloads.rpc import (VALID_POLICIES, RpcClient, RpcEndpoint,
                                 RpcServer)
from repro.workloads.sharding import (
    BALANCER_NAMES,
    ShardDirectory,
    ShardedClient,
    key_stream,
    make_balancer,
)
from repro.workloads.stats import WorkloadStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.cluster.node import Node
    from repro.simkernel.env import Environment


def placement(scenario: "RpcScenario") -> tuple[list[int], list[int]]:
    """Node ids of ``(server nodes, client nodes)`` for an rpc scenario.

    Servers stripe across the ``G`` switch groups — server ``s`` lands in
    group ``s % G`` at within-group offset ``s // G`` — so every group
    serves locally and trunk traffic reflects the balancer rather than an
    accident of placement.  An ungrouped fabric is one group, so its
    servers sit on ``0..S-1``.  Shard ``i`` is the i-th server node in
    ascending id order.
    """
    g = max(1, scenario.partition_groups)
    npg = scenario.n_nodes // g
    server_nodes = sorted(
        (s % g) * npg + s // g for s in range(scenario.servers))
    owned = set(server_nodes)
    client_nodes = [i for i in range(scenario.n_nodes) if i not in owned]
    return server_nodes, client_nodes


def population_shares(population: int, n_clients: int) -> list[int]:
    """Split ``population`` simulated clients over ``n_clients`` generator
    nodes (earlier nodes take the remainder)."""
    base, extra = divmod(population, n_clients)
    return [base + 1 if j < extra else base for j in range(n_clients)]


def client_arrival(scenario: "RpcScenario", position: int,
                   n_clients: int) -> tuple[ArrivalSpec, int]:
    """Arrival spec and request budget for the client at ``position`` in
    the scenario's client-node list.

    Every client runs the scenario's own spec; in population scenarios
    that :class:`~repro.workloads.arrivals.OpenLoop` covers the node's
    share of the simulated clients (``n_requests`` is per simulated
    client, so the node's budget scales with its share).
    """
    if scenario.population <= 0:
        return scenario.arrival_spec(), scenario.n_requests
    share = population_shares(scenario.population, n_clients)[position]
    return (replace(scenario.arrival_spec(), population=share),
            scenario.n_requests * share)


def build_server(scenario: "RpcScenario", endpoint: RpcEndpoint,
                 stats: WorkloadStats,
                 shard: Optional[int] = None) -> RpcServer:
    """The server program for one server node (``shard`` is the global
    shard index for sharded services, ``None`` for the single-server
    case)."""
    if shard is None:
        policy = scenario.policy
    else:
        policies = (scenario.shard_policies
                    or (scenario.policy,) * scenario.servers)
        policy = policies[shard]
    return RpcServer(endpoint, stats, workers=scenario.workers,
                     queue_capacity=scenario.queue_capacity, policy=policy,
                     resp_bytes=scenario.resp_bytes,
                     extract_budget=scenario.extract_budget, shard=shard)


def build_client(scenario: "RpcScenario", endpoint: RpcEndpoint,
                 server_nodes: list[int], position: int, n_clients: int,
                 directory: Optional[ReplicatedDirectory] = None) -> RpcClient:
    """The client program for the client node at ``position`` in the
    scenario's client-node list.

    Each client owns its balancer instance (``least_pending`` is a
    per-client view) and routes through a :class:`ShardDirectory` (routing
    is client-side).  Replicated scenarios pass the shared
    :class:`ReplicatedDirectory` (placement rule + health map) instead.
    """
    spec, n_requests = client_arrival(scenario, position, n_clients)
    name = f"client{endpoint.node.node_id}"
    common = dict(
        arrivals=spec, seed=scenario.seed, n_requests=n_requests,
        req_bytes=scenario.req_bytes, work_ns=scenario.work_ns,
        deadline_ns=scenario.deadline_ns,
        abandon_after_ns=scenario.abandon_after_ns, name=name)
    if scenario.servers == 1:
        return RpcClient(endpoint, server_nodes[0], **common)
    balancer = make_balancer(scenario.balancer, scenario.servers,
                             scenario.vnodes)
    keys = key_stream(scenario.seed, name, scenario.n_keys,
                      scenario.key_skew)
    if directory is not None:
        return ReplicatedClient(
            endpoint, directory, balancer, keys,
            failover_timeout_ns=scenario.failover_timeout_ns, **common)
    return ShardedClient(endpoint, ShardDirectory(server_nodes), balancer,
                         keys, **common)


@dataclass(frozen=True)
class RpcScenario(ArrivalFields, TelemetryFields):
    """``kind="rpc"`` — request/response traffic under an arrival process.

    Node 0 serves, nodes 1..n-1 run :class:`RpcClient` under the
    scenario's arrival spec.  With ``servers: N`` (N >= 2) N nodes
    (see :func:`placement`) instead run sharded servers and the clients
    route each request through the scenario's ``balancer`` (``static``
    consistent hashing, ``round_robin``, or ``least_pending``) over keys
    drawn uniform or Zipf-skewed (``key_skew``); per-shard overload
    policies come from ``shard_policies``.  ``replicas: R`` (R >= 2)
    places each key on R ring-successor shards, carves the last client
    node out for the :class:`ShardSupervisor`, and clients fail timed-out
    requests over; ``population`` collapses that many simulated open-loop
    clients onto the client nodes; ``partition_groups: G`` builds the
    cluster as G crossbars joined by trunk links and stripes the servers
    across them.
    """

    kind: str = "rpc"
    think_ns: int = 0                # closed-loop think time
    think_exponential: bool = False
    resp_bytes: int = 64
    workers: int = 2
    policy: str = "queue"
    deadline_ns: int = 0             # request deadline budget (0 = none)
    abandon_after_ns: Optional[int] = None
    servers: int = 1
    balancer: str = "static"         # static | round_robin | least_pending
    vnodes: int = 64                 # consistent-hash ring virtual nodes
    key_skew: float = 0.0            # 0 = uniform; >0 = Zipf-like hot keys
    shard_policies: Optional[tuple] = None   # per-shard override of policy
    replicas: int = 1
    probe_interval_ns: int = 150_000   # supervisor probe cadence
    failover_timeout_ns: int = 250_000  # per-attempt client retry clock
    # population simulated clients are spread over the client nodes as
    # one OpenLoop source each (0 = one simulated client per node), and
    # n_requests is per simulated client.
    population: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        s = self
        if s.shard_policies is not None:
            # Coerce the JSON-side list to a tuple (the scenario is frozen).
            object.__setattr__(s, "shard_policies", tuple(s.shard_policies))
        s._choose(balancer=BALANCER_NAMES)
        for policy in (s.policy, *(s.shard_policies or ())):
            if policy not in VALID_POLICIES:
                raise ValueError(f"policy must be one of {VALID_POLICIES}, "
                                 f"got {policy!r}")
        s._at_least(servers=1, replicas=1, probe_interval_ns=1,
                    failover_timeout_ns=1, population=0, abandon_after_ns=1)
        n_clients = s.n_nodes - s.servers
        if n_clients < 1:
            raise ValueError(
                f"{s.servers} servers on {s.n_nodes} nodes leaves no client")
        if s.shard_policies is not None \
                and len(s.shard_policies) != s.servers:
            raise ValueError(f"{len(s.shard_policies)} shard_policies for "
                             f"{s.servers} servers")
        if s.replicas > 1:
            if s.servers < 2:
                raise ValueError(
                    "replicas > 1 needs a sharded service (servers >= 2): "
                    "a single server has nowhere to fail over to")
            if s.replicas > s.servers:
                raise ValueError(f"replicas {s.replicas} exceeds the "
                                 f"{s.servers} shards available")
            if s.balancer != "static":
                raise ValueError(
                    "replicated routing is ring-placement + health based; "
                    f"balancer must be 'static', got {s.balancer!r}")
            if n_clients < 2:
                raise ValueError(
                    f"replicas > 1 carves one node out for the supervisor: "
                    f"{s.n_nodes} nodes minus {s.servers} servers leaves no "
                    "workload client beside it")
            if s.population:
                raise ValueError("replication does not compose with "
                                 "aggregate client populations yet")
        if s.population:
            if s.arrival not in ("open", "open-fixed"):
                raise ValueError(
                    "population aggregates open-loop sources; arrival must "
                    f"be open or open-fixed, got {s.arrival!r}")
            if s.population < n_clients:
                raise ValueError(
                    f"population {s.population} is smaller than the "
                    f"{n_clients} client nodes — every generator node "
                    "needs at least one simulated client")

    def arrival_spec(self) -> ArrivalSpec:
        """The arrival-process spec; ``closed`` is rpc's alone."""
        if self.arrival == "closed":
            return ClosedLoop(self.think_ns,
                              exponential=self.think_exponential)
        return super().arrival_spec()

    def build_stats(self, env: "Environment") -> WorkloadStats:
        """The run's stats object, with one sub-stats per shard when the
        service is sharded."""
        return WorkloadStats(env, name=f"workload.{self.name}",
                             n_shards=self.servers if self.servers > 1 else 0,
                             sample_interval_ns=self.sample_interval_ns)

    def wire(self, nodes: Iterable["Node"], stats: WorkloadStats
             ) -> tuple[dict[int, RpcClient], Optional[ShardSupervisor]]:
        """Wire endpoints, servers and clients onto the cluster's ``nodes``
        (ascending id order); returns ``({client node id: client},
        supervisor or None)``.  Servers are started here (they run until
        the simulation stops); clients are returned for the caller to spawn.

        ``replicas > 1`` carves the last client node out for a
        :class:`ShardSupervisor`.  Its endpoint is bound to its own stats
        object, so probe traffic — real messages on the same fabric — never
        pollutes the workload's counters or time series.
        """
        nodes = list(nodes)
        server_nodes, client_nodes = placement(self)
        supervisor_node = probe_stats = None
        if self.replicas > 1:
            supervisor_node = client_nodes.pop()
            probe_stats = WorkloadStats(nodes[0].env,
                                        name=f"probe.{self.name}")
        endpoints = {
            node.node_id: RpcEndpoint(
                node, probe_stats if node.node_id == supervisor_node
                else stats)
            for node in nodes}
        for shard, node_id in enumerate(server_nodes):
            build_server(self, endpoints[node_id], stats,
                         shard=shard if stats.shards else None).start()
        directory = supervisor = None
        if supervisor_node is not None:
            directory = ReplicatedDirectory(
                server_nodes, ShardHealth(nodes[0].env, self.servers),
                replicas=self.replicas, vnodes=self.vnodes)
            supervisor = ShardSupervisor(
                endpoints[supervisor_node], directory,
                probe_interval_ns=self.probe_interval_ns,
                probe_timeout_ns=self.failover_timeout_ns,
                workload_stats=stats,
                availability_target=self.slo_availability)
            supervisor.start()
        clients = {
            node_id: build_client(self, endpoints[node_id], server_nodes,
                                  position, len(client_nodes), directory)
            for position, node_id in enumerate(client_nodes)}
        return clients, supervisor

    def run(self, cluster: "Cluster", stats: WorkloadStats) -> dict:
        """Wire the whole cluster and run the clients to completion;
        replicated runs add the control-plane ``replication`` section."""
        clients, supervisor = self.wire(cluster.nodes, stats)
        programs: list = [None] * cluster.n_nodes
        for node_id, client in clients.items():
            programs[node_id] = (lambda node, client=client: client.run())
        cluster.run(programs, until_ns=self.until_ns)
        if supervisor is None:
            return {}
        return {"replication": {
            "replicas": self.replicas,
            "probe_interval_ns": self.probe_interval_ns,
            "failover_timeout_ns": self.failover_timeout_ns,
            "failovers": stats.counters["failover"],
            "retried": stats.counters["retried"],
            **supervisor.result(),
        }}
