"""Replicated, self-healing sharded services: keys survive a sick shard.

:mod:`repro.workloads.sharding` places each key on exactly one shard, so
one ``NicStall`` or ``CpuSlow`` episode blacks out that shard's key range
for its whole window.  This module is the availability answer the ROADMAP
asks for — replication plus supervised failover — in three pieces, all of
them client-side/control-plane bookkeeping (zero simulated cost; the
simulation measures where the *messages* go):

* :class:`ReplicatedDirectory` — each key lives on the R successor
  shards of the same :class:`HashRing <repro.workloads.sharding.HashRing>`
  that places its primary (``ring.successors``; R=2 default, primary +
  backup).
* :class:`ShardSupervisor` — a control-plane process on its own node
  that health-checks every shard with deadline-bounded probe RPCs,
  marks a shard down when a probe times out (or when a per-shard
  availability SLO burn-rate breach fires, when telemetry is armed),
  and re-admits it once a probe succeeds again.  Probe traffic is
  real — it rides the same NIC/fabric as the workload — but its
  accounting lives in the supervisor's own stats object, so workload
  numbers never include probes.
* :class:`ReplicatedClient` — routes each request to the first *live*
  replica of its key, and when a request times out
  (``failover_timeout_ns``) fails it over to the next replica:
  the primary attempt resolves as a ``failover`` (not a drop — the
  logical request is still live), the balancer's in-flight credit
  returns exactly once per attempt, and a late response from the
  failed replica lands as a stale duplicate.

Shared health is a deliberate modelling choice: the supervisor's view
*is* the directory every client routes by (think: pushed shard map), so
detection latency — not propagation — is what the probe interval sweeps
measure.  Everything is deterministic: probes tick on fixed intervals,
failover deadlines anchor at send time, and health transitions are pure
functions of simulated traffic, so reruns stay byte-identical.
"""

from __future__ import annotations

from typing import Generator, Iterator, Optional, Sequence

from repro.core.progress import pump
from repro.obs.slo import BurnRateDetector, SloSpec, window_counts

from repro.workloads.rpc import RPC_OK, RpcClient, RpcEndpoint
from repro.workloads.sharding import Balancer, HashRing, ShardDirectory
from repro.workloads.stats import WorkloadStats

#: Probe request payload (bytes): small, but real traffic on the wire.
PROBE_BYTES = 16


class ShardHealth:
    """The shared up/down map of a replicated service's shards.

    One instance per service; the supervisor writes it, every client
    reads it (the pushed-shard-map model — see module doc).  Transitions
    are edge-logged with their simulated time and reason, so the report
    can show exactly when the control plane noticed trouble and when it
    re-admitted the shard.
    """

    def __init__(self, env, n_shards: int):
        if n_shards < 1:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        self.env = env
        self.up = [True] * n_shards
        #: Edge log: (t_ns, shard, "down" | "up", reason).
        self.transitions: list[tuple[int, int, str, str]] = []

    @property
    def n_shards(self) -> int:
        return len(self.up)

    def is_up(self, shard: int) -> bool:
        return self.up[shard]

    def mark_down(self, shard: int, reason: str) -> bool:
        """Mark ``shard`` down; returns True on an actual edge."""
        if not self.up[shard]:
            return False
        self.up[shard] = False
        self.transitions.append((self.env.now, shard, "down", reason))
        return True

    def mark_up(self, shard: int, reason: str) -> bool:
        """Re-admit ``shard``; returns True on an actual edge."""
        if self.up[shard]:
            return False
        self.up[shard] = True
        self.transitions.append((self.env.now, shard, "up", reason))
        return True

    def first_live(self, replicas: Sequence[int]) -> int:
        """The first live shard in ``replicas`` — or ``replicas[0]`` when
        every replica is down (route to the primary and let the request
        fail over / abandon on its own clock: a fully-down replica set is
        an outage, not a routing problem)."""
        for shard in replicas:
            if self.up[shard]:
                return shard
        return replicas[0]

    def __repr__(self) -> str:
        down = [i for i, ok in enumerate(self.up) if not ok]
        return f"<ShardHealth shards={self.n_shards} down={down}>"


class ReplicatedDirectory(ShardDirectory):
    """Client-side routing state for a replicated service.

    Extends the pure-data :class:`ShardDirectory` with the replica
    placement rule (the ring's successor walk) and the shared
    :class:`ShardHealth` map — everything a :class:`ReplicatedClient`
    needs to route, and nothing that owns server nodes.
    """

    def __init__(self, shard_nodes: Sequence[int], health: ShardHealth, *,
                 replicas: int = 2, vnodes: int = 64):
        super().__init__(shard_nodes)
        if not 1 <= replicas <= self.n_shards:
            raise ValueError(
                f"replicas must be in [1, {self.n_shards}], got {replicas}")
        if health.n_shards != self.n_shards:
            raise ValueError(
                f"health map covers {health.n_shards} shards, directory has "
                f"{self.n_shards}")
        self.replicas = replicas
        self.ring = HashRing(self.n_shards, vnodes)
        self.health = health

    def replica_set(self, key: int) -> tuple[int, ...]:
        """The R shards holding ``key``, primary first."""
        return self.ring.successors(key, self.replicas)

    def __repr__(self) -> str:
        return (f"<ReplicatedDirectory nodes={self.shard_nodes} "
                f"R={self.replicas}>")


class ReplicatedClient(RpcClient):
    """An :class:`~repro.workloads.rpc.RpcClient` that routes to live
    replicas and fails timed-out requests over to the next one.

    Per request: route to the first *live* replica of the key (health
    map), count it in-flight, and arm a ``failover_timeout_ns`` clock
    anchored at send time.  On timeout the attempt is resolved as a
    ``failover`` (in-flight credit returns, a late response becomes a
    stale duplicate) and the request is re-issued — ``retry=True``, so
    logical ``sent`` counts once — to the next untried replica,
    preferring live ones.  Only when every replica has been tried does
    the request fall back to the plain abandon rule; ``completed +
    drops == sent`` stays an invariant across any number of retries.
    Every other keyword argument is :class:`RpcClient`'s.
    """

    def __init__(self, endpoint: RpcEndpoint, service: ReplicatedDirectory,
                 balancer: Balancer, keys: Iterator[int], *,
                 failover_timeout_ns: int, **client):
        if failover_timeout_ns <= 0:
            raise ValueError(f"failover_timeout_ns must be positive, "
                             f"got {failover_timeout_ns}")
        super().__init__(endpoint, service, balancer, keys, **client)
        self.failover_timeout_ns = failover_timeout_ns
        #: req_id -> (key, tried shards, wire deadline, intended arrival).
        self._routes: dict[int, tuple[int, tuple[int, ...], int,
                                      Optional[int]]] = {}

    def _issue(self, deadline_ns: int,
               t_intended: Optional[int] = None) -> Generator:
        key = next(self._keys)
        shard = self.service.health.first_live(self.service.replica_set(key))
        req_id, event = yield from self._send_to(shard, key, deadline_ns,
                                                 t_intended)
        self._routes[req_id] = (key, (shard,), deadline_ns, t_intended)
        return req_id, event

    def _next_replica(self, key: int,
                      tried: tuple[int, ...]) -> Optional[int]:
        """The next replica to try: first live untried shard in replica
        order, else the first untried one (it may have recovered by the
        time the retry's own clock expires), else ``None``."""
        replicas = self.service.replica_set(key)
        untried = [r for r in replicas if r not in tried]
        if not untried:
            return None
        for shard in untried:
            if self.service.health.is_up(shard):
                return shard
        return untried[0]

    def _await(self, req_id: int, event, t_sent: int) -> Generator:
        """Wait with failover: each attempt gets its own send-anchored
        ``failover_timeout_ns``; exhausted replica sets fall back to the
        base abandon rule (anchored at the *last* attempt's send)."""
        env = self.env
        endpoint = self.endpoint
        while True:
            yield from endpoint.await_response(
                event, t_sent + self.failover_timeout_ns)
            if event.triggered:
                self._routes.pop(req_id, None)
                return
            key, tried, deadline_ns, t_intended = self._routes[req_id]
            nxt = self._next_replica(key, tried)
            if nxt is None:
                # Every replica tried: this attempt is the last word.
                self._routes.pop(req_id, None)
                yield from super()._await(req_id, event, t_sent)
                return
            # Resolve the attempt (credit back, late response goes
            # stale), then re-issue to the next replica.  fail_over is
            # False only if the response landed in the same instant the
            # timeout fired; the request is then already resolved.
            if not endpoint.fail_over(req_id):
                self._routes.pop(req_id, None)
                return
            self._routes.pop(req_id)
            t_sent = env.now
            req_id, event = yield from self._send_to(
                nxt, key, deadline_ns, t_intended, retry=True)
            self._routes[req_id] = (key, tried + (nxt,), deadline_ns,
                                    t_intended)

    def __repr__(self) -> str:
        return (f"<ReplicatedClient {self.name!r} "
                f"node={self.endpoint.node.node_id} "
                f"timeout={self.failover_timeout_ns} n={self.n_requests}>")


class ShardSupervisor:
    """Control-plane health checker on a dedicated node.

    ``start()`` spawns (like server firmware — they run until the
    simulation stops):

    * one probe loop per shard — every ``probe_interval_ns`` it sends a
      small probe request and waits up to ``probe_timeout_ns`` (anchored
      *before* the send, so send-side backpressure from a sick shard
      counts against the deadline).  Timeout marks the shard down;
      an ``RPC_OK`` probe marks it up again — re-admission is only ever
      probe-confirmed, never inferred from silence.
    * a response pump (probes resolve like any RPC), and
    * when ``workload_stats`` carries armed time series and an
      ``availability_target``, a breach loop feeding each shard's
      completed/drops windows through a
      :class:`~repro.obs.slo.BurnRateDetector` — a ``breach_start``
      marks the shard down *from workload evidence*, typically faster
      than the next probe can.

    The supervisor's own RPC traffic is accounted in ``probe_stats``
    (its endpoint's stats object), never in the workload's.
    """

    def __init__(self, endpoint: RpcEndpoint, directory: ReplicatedDirectory,
                 *, probe_interval_ns: int, probe_timeout_ns: int,
                 workload_stats: Optional[WorkloadStats] = None,
                 availability_target: Optional[float] = None):
        if probe_interval_ns <= 0:
            raise ValueError(f"probe_interval_ns must be positive, "
                             f"got {probe_interval_ns}")
        if probe_timeout_ns <= 0:
            raise ValueError(f"probe_timeout_ns must be positive, "
                             f"got {probe_timeout_ns}")
        self.endpoint = endpoint
        self.env = endpoint.env
        self.directory = directory
        self.health = directory.health
        self.probe_interval_ns = probe_interval_ns
        self.probe_timeout_ns = probe_timeout_ns
        self.probe_stats = endpoint.stats
        self.probes_ok = 0
        self.probes_timed_out = 0
        self._workload_stats = workload_stats
        self._detectors: Optional[list[BurnRateDetector]] = None
        if (workload_stats is not None
                and workload_stats.timeseries is not None
                and availability_target is not None):
            self._detectors = [
                BurnRateDetector(SloSpec(
                    f"supervisor.availability.shard{i}", "availability",
                    availability_target, shard=i))
                for i in range(directory.n_shards)]
        self._started = False

    def start(self) -> None:
        """Spawn the probe loops, pump, and (armed) breach loop."""
        if self._started:
            raise RuntimeError("supervisor started twice")
        self._started = True
        node_id = self.endpoint.node.node_id
        self.env.process(pump(self.endpoint.fm, ()),
                         name=f"supervisor.pump@{node_id}")
        for shard in range(self.directory.n_shards):
            self.env.process(self._probe_loop(shard),
                             name=f"supervisor.probe{shard}@{node_id}")
        if self._detectors is not None:
            self.env.process(self._breach_loop(),
                             name=f"supervisor.slo@{node_id}")

    def _probe_loop(self, shard: int) -> Generator:
        env = self.env
        endpoint = self.endpoint
        node = self.directory.shard_nodes[shard]
        while True:
            yield self.probe_interval_ns
            t0 = env.now
            req_id, event = yield from endpoint.send_request(
                node, 0, PROBE_BYTES)
            yield from endpoint.await_response(
                event, t0 + self.probe_timeout_ns)
            if event.triggered:
                status, _plen = event.value
                if status == RPC_OK:
                    self.probes_ok += 1
                    self.health.mark_up(shard, "probe_ok")
                # A shed/expired probe proves liveness but not health:
                # leave the current state alone.
            else:
                self.probes_timed_out += 1
                endpoint.abandon(req_id)
                self.health.mark_down(shard, "probe_timeout")

    def _breach_loop(self) -> Generator:
        """Tick on the workload bank's window boundary and feed every
        newly *complete* window to the per-shard detectors."""
        bank = self._workload_stats.timeseries
        env = self.env
        fed = 0
        while True:
            yield bank.interval_ns
            now_window = env.now // bank.interval_ns
            for shard, detector in enumerate(self._detectors):
                for row in window_counts(bank, detector.spec,
                                         range(fed, now_window)):
                    for event in detector.feed(*row):
                        if event.kind == "breach_start":
                            self.health.mark_down(shard, "slo_breach")
                        # breach_end is not a re-admission: only a
                        # successful probe brings a shard back.
            fed = now_window

    def result(self) -> dict:
        """Deterministic control-plane fragment for the run report."""
        counters = self.probe_stats.counters
        out = {
            "probes": {
                "sent": counters["sent"],
                "ok": self.probes_ok,
                "timed_out": self.probes_timed_out,
            },
            "health_transitions": [
                {"t_ns": t, "shard": shard, "state": state, "reason": reason}
                for t, shard, state, reason in self.health.transitions
            ],
        }
        if self._detectors is not None:
            out["slo_breaches"] = sum(
                1 for d in self._detectors for e in d.events
                if e.kind == "breach_start")
        return out

    def __repr__(self) -> str:
        return (f"<ShardSupervisor node={self.endpoint.node.node_id} "
                f"shards={self.directory.n_shards} "
                f"interval={self.probe_interval_ns}>")
