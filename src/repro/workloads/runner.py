"""Scenario specs and the one-call runner: spec -> cluster -> run -> report.

A :class:`Scenario` is pure data (one flat frozen dataclass,
JSON-round-trippable via :meth:`Scenario.from_dict` /
``dataclasses.asdict``) naming everything a run depends on: the cluster
shape, the FM generation, the workload kind and its parameters.
:func:`execute_scenario` is one straight line for every kind: build the
cluster, compose the optional :class:`~repro.faults.plan.FaultPlan` and
observer (the standard ``Cluster.inject_faults`` / ``Cluster.observe``
hooks — zero cost when absent, bit-identical results when passive), then
hand over to the scenario's entry in :data:`KINDS`, which owns everything
kind-specific: ``validate(scenario)``, ``build_stats(env, scenario)``,
``run(cluster, scenario, stats) -> extra report sections``, the names
of the fields it reads (``reads`` — a field only other kinds read must
hold its default, checked at construction) and of the fields only its
reports carry, and whether its runs use numpy.
Each kind object lives beside its mechanism and documents its own fields.

Determinism: the report is a pure function of ``(scenario, plan)``.  Two
calls with equal specs produce byte-identical JSON, and every preset's
report is pinned under ``tests/golden/``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Optional

from repro.cluster.cluster import Cluster
from repro.configs import PPRO_FM2, SPARC_FM1
from repro.dataflow.engine import PIPELINES, PLACEMENTS, PipelineKind
from repro.hardware.params import LinkParams
from repro.hardware.topology import Topology, switch_mesh
from repro.obs.metrics import RunStats
from repro.obs.observer import Observer
from repro.obs.slo import SloSpec, evaluate_slos
from repro.workloads.apps import MpiKind, allreduce_program, halo_program
from repro.workloads.arrivals import ArrivalSpec, Bursty, ClosedLoop, OpenLoop
from repro.workloads.rdma import RdmaKind
from repro.workloads.rpc import VALID_POLICIES
from repro.workloads.rpc_kind import RpcKind
from repro.workloads.sharding import BALANCER_NAMES

MACHINES = {"sparc": SPARC_FM1, "ppro": PPRO_FM2}
ARRIVALS = ("open", "open-fixed", "closed", "bursty")

#: Workload kind -> the object that validates, builds stats for, runs and
#: reports it.  A new kind is one object beside its mechanism and one
#: line here.
KINDS = {
    "rpc": RpcKind(),
    "halo": MpiKind(halo_program, "halo_bytes", uses_numpy=False),
    "allreduce": MpiKind(allreduce_program, "grad_bytes", uses_numpy=True),
    "pipeline": PipelineKind(),
    "rdma": RdmaKind(),
}

#: Field -> its legal values (checked for every kind: a typo in a field
#: the kind ignores is still a typo).
CHOICES = {
    "kind": tuple(KINDS),
    "machine": tuple(MACHINES),
    "fm_version": (1, 2),
    "arrival": ARRIVALS,
    "balancer": BALANCER_NAMES,
    "pipeline": PIPELINES,
    "stage_placement": PLACEMENTS,
    "partition_by": ("hash", "round_robin"),
}

#: Field -> its smallest legal value (``None`` values are "off").
MINIMUMS = {
    "n_nodes": 2, "servers": 1, "replicas": 1, "probe_interval_ns": 1,
    "failover_timeout_ns": 1, "n_sources": 1, "branches": 1,
    "window_ns": 1, "window_slide_ns": 0, "sink_work_ns": 0,
    "sample_interval_ns": 0, "slo_latency_p99_ns": 1,
    "partition_groups": 0, "trunk_propagation_ns": 1, "population": 0,
}


@dataclass(frozen=True)
class Scenario:
    """Everything one workload run depends on, as pure data."""

    name: str
    kind: str = "rpc"
    seed: int = 1
    n_nodes: int = 4
    fm_version: int = 2
    machine: str = "ppro"
    # -- rpc: arrival process (per client) --------------------------------
    arrival: str = "open"
    rate_rps: float = 20_000.0       # open / bursty offered load
    think_ns: int = 0                # closed-loop think time
    think_exponential: bool = False
    burst_on_ns: int = 200_000       # bursty on/off window
    burst_off_ns: int = 300_000
    # -- rpc: requests and service ----------------------------------------
    n_requests: int = 100            # per client
    req_bytes: int = 64
    resp_bytes: int = 64
    work_ns: int = 2_000             # service demand carried per request
    workers: int = 2
    queue_capacity: int = 16
    policy: str = "queue"
    deadline_ns: int = 0             # request deadline budget (0 = none)
    abandon_after_ns: Optional[int] = None
    extract_budget: Optional[int] = None   # server receiver flow control
    # -- rpc: sharding (servers >= 2 runs one RpcServer shard on each of
    # -- nodes 0..servers-1, clients on the rest) --------------------------
    servers: int = 1
    balancer: str = "static"         # static | round_robin | least_pending
    vnodes: int = 64                 # consistent-hash ring virtual nodes
    n_keys: int = 512                # request key universe per client
    key_skew: float = 0.0            # 0 = uniform; >0 = Zipf-like hot keys
    shard_policies: Optional[tuple] = None   # per-shard override of policy
    # -- rpc: replication & failover (replicas >= 2 places each key on R
    # -- ring-successor shards, carves the last client node out as the
    # -- ShardSupervisor's, and clients fail timed-out requests over) ------
    replicas: int = 1
    probe_interval_ns: int = 150_000   # supervisor probe cadence
    failover_timeout_ns: int = 250_000  # per-attempt client retry clock
    # -- halo / allreduce --------------------------------------------------
    iterations: int = 50
    halo_bytes: int = 256
    grad_bytes: int = 4096
    compute_ns: int = 5_000
    # -- pipeline (kind="pipeline"; see PipelineKind for the shared fields
    # -- it reuses) ----------------------------------------------------------
    pipeline: str = "rollup"         # rollup | scatter_gather
    n_sources: int = 2
    branches: int = 2                # fan-out lanes
    window_ns: int = 200_000         # rollup window width
    window_slide_ns: int = 0         # 0 = tumbling
    partition_by: str = "hash"       # hash | round_robin fan-out selector
    stage_placement: str = "spread"  # spread | colocate
    sink_work_ns: int = 0            # per-record sink demand
    # -- telemetry: windowed time series + SLOs (0 / None = off) -----------
    sample_interval_ns: int = 0      # time-series window width
    slo_availability: Optional[float] = None   # e.g. 0.99 good fraction
    slo_latency_p99_ns: Optional[int] = None   # p99 latency target
    # -- run guard ---------------------------------------------------------
    until_ns: Optional[int] = None
    # -- topology grouping ---------------------------------------------------
    # partition_groups > 0 builds a switch_mesh of that many crossbar
    # groups (nodes split evenly) joined by trunk links of
    # trunk_propagation_ns.
    partition_groups: int = 0
    trunk_propagation_ns: int = 4_000
    # -- aggregate client populations (0 = one simulated client per node) ---
    # population simulated clients are spread over the client nodes as
    # AggregateOpenLoop sources: each node's generator issues the
    # superposed stream of its share of the population, and n_requests is
    # per simulated client.
    population: int = 0

    def __post_init__(self) -> None:
        for name, choices in CHOICES.items():
            if getattr(self, name) not in choices:
                raise ValueError(f"{name} must be one of {choices}, "
                                 f"got {getattr(self, name)!r}")
        if self.shard_policies is not None:
            # Coerce the JSON-side list to a tuple (Scenario is frozen).
            object.__setattr__(self, "shard_policies",
                               tuple(self.shard_policies))
        for policy in (self.policy, *(self.shard_policies or ())):
            if policy not in VALID_POLICIES:
                raise ValueError(f"policy must be one of {VALID_POLICIES}, "
                                 f"got {policy!r}")
        for name, low in MINIMUMS.items():
            value = getattr(self, name)
            if value is not None and value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if self.partition_groups and self.n_nodes % self.partition_groups:
            raise ValueError(
                f"{self.n_nodes} nodes do not split evenly over "
                f"{self.partition_groups} switch groups")
        has_slo = (self.slo_availability is not None
                   or self.slo_latency_p99_ns is not None)
        if has_slo and not self.sample_interval_ns:
            raise ValueError(
                "SLO targets need sample_interval_ns > 0 (burn rates are "
                "computed over time-series windows)")
        if (self.slo_availability is not None
                and not 0.0 < self.slo_availability < 1.0):
            raise ValueError(f"slo_availability must be in (0, 1), "
                             f"got {self.slo_availability}")
        for name, field in self.__dataclass_fields__.items():
            readers = [k for k, kind in KINDS.items() if name in kind.reads]
            value = getattr(self, name)
            if readers and self.kind not in readers and value != field.default:
                raise ValueError(
                    f"{name} is read by kind {'/'.join(readers)} only: "
                    f"kind={self.kind!r} would ignore it, so it must hold "
                    f"its default {field.default!r}, got {value!r}")
        KINDS[self.kind].validate(self)

    def slo_specs(self, n_shards: int) -> tuple[SloSpec, ...]:
        """The declarative SLOs this scenario evaluates: per target, one
        aggregate spec plus one per shard of the run's stats (the failover
        supervisor's per-shard health signal)."""
        targets = []
        if self.slo_availability is not None:
            targets.append(("availability", "availability",
                            self.slo_availability, None))
        if self.slo_latency_p99_ns is not None:
            targets.append(("latency_p99", "latency", 0.99,
                            self.slo_latency_p99_ns))
        scopes = [("", None)] + [(f".shard{i}", i) for i in range(n_shards)]
        return tuple(SloSpec(name + suffix, kind, target, threshold, shard)
                     for name, kind, target, threshold in targets
                     for suffix, shard in scopes)

    def arrival_spec(self) -> ArrivalSpec:
        """Materialise the arrival-process spec named by ``self.arrival``."""
        if self.arrival == "open":
            return OpenLoop(self.rate_rps)
        if self.arrival == "open-fixed":
            return OpenLoop(self.rate_rps, poisson=False)
        if self.arrival == "closed":
            return ClosedLoop(self.think_ns, exponential=self.think_exponential)
        return Bursty(self.rate_rps, self.burst_on_ns, self.burst_off_ns)

    @classmethod
    def from_dict(cls, spec: dict) -> "Scenario":
        """The scenario a parsed JSON spec describes.  Whatever a spec file
        can get wrong before validation proper — not an object, an unknown
        field, no ``name``, a string where a number goes — is a
        ``ValueError`` that names it."""
        if not isinstance(spec, dict):
            raise ValueError("a scenario spec is a JSON object of Scenario "
                             f"fields, got a {type(spec).__name__}")
        fields = cls.__dataclass_fields__
        unknown = set(spec) - set(fields)
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        if "name" not in spec:
            raise ValueError("a scenario spec needs a 'name'")
        for key, value in spec.items():
            if (isinstance(fields[key].default, (int, float))
                    and not isinstance(value, (int, float))):
                raise ValueError(f"{key} must be a number, got {value!r}")
        scenario = cls(**spec)
        scenario.preload()
        return scenario

    def preload(self) -> None:
        """Import numpy now if this kind's runs draw from it or fill
        arrays: otherwise the import lands on the run's first draw, and a
        caller that times set-up and run apart (``perfbench``,
        ``*.runinfo.json``) would book it to the run."""
        if KINDS[self.kind].uses_numpy:
            import numpy  # noqa: F401


def scenario_topology(
        scenario: Scenario,
        machine) -> tuple[Optional[Topology], Optional[LinkParams]]:
    """The ``(topology, trunk LinkParams)`` for grouped scenarios
    (``(None, None)`` keeps the single-crossbar default)."""
    if scenario.partition_groups <= 0:
        return None, None
    topology = switch_mesh(scenario.n_nodes, scenario.partition_groups)
    trunk = replace(machine.link,
                    propagation_ns=scenario.trunk_propagation_ns)
    return topology, trunk


@dataclass
class ScenarioOutcome:
    """Everything one scenario run produced.

    ``report`` is the deterministic JSON fragment :func:`run_scenario`
    returns; the live objects (cluster, stats, observer, injector) are
    for callers that need more than the report — trace export, waterfall
    rendering, breakdown reports.
    """

    scenario: Scenario
    cluster: Cluster
    stats: RunStats
    report: dict
    observer: Optional[object] = None
    injector: Optional[object] = None


def scenario_report_dict(scenario: Scenario) -> dict:
    """The scenario as report JSON — minus the fields another kind owns:
    a kind's own fields appear only in the reports it says carry them,
    so older report schemas never grow."""
    shown = set(KINDS[scenario.kind].report_fields(scenario))
    hidden = {name for kind in KINDS.values() for name in kind.fields
              if name not in shown}
    return {name: value for name, value in asdict(scenario).items()
            if name not in hidden}


def build_scenario(scenario: Scenario) -> tuple[Cluster, RunStats]:
    """The ``(cluster, stats)`` a scenario runs on."""
    machine = MACHINES[scenario.machine]
    topology, trunk = scenario_topology(scenario, machine)
    cluster = Cluster(scenario.n_nodes, machine=machine,
                      fm_version=scenario.fm_version, topology=topology,
                      trunk_params=trunk)
    return cluster, KINDS[scenario.kind].build_stats(cluster.env, scenario)


def execute_scenario(scenario: Scenario, plan=None,
                     observe: bool = False) -> ScenarioOutcome:
    """Run one scenario to completion; returns the full outcome.

    ``plan`` is an optional :class:`~repro.faults.plan.FaultPlan`;
    ``observe=True`` attaches an observer (spans + per-request trace
    contexts) whose metrics registry is the stats' own — both compose
    through the cluster's standard hooks and neither changes the simulated
    results.
    """
    cluster, stats = build_scenario(scenario)
    injector = cluster.inject_faults(plan) if plan is not None else None
    observer = cluster.observe(Observer(stats.metrics)) if observe else None
    sections = KINDS[scenario.kind].run(cluster, scenario, stats)
    report = {
        "scenario": scenario_report_dict(scenario),
        "results": stats.report(),
        "sim_end_ns": cluster.now,
        **sections,
    }
    specs = scenario.slo_specs(len(stats.shards))
    if specs:
        report["slo"] = evaluate_slos(stats.timeseries, specs)
    if injector is not None:
        report["faults"] = {
            "events": len(injector.events),
            "counters": dict(sorted(injector.counters.items())),
        }
        windows = stats.fault_window_report(plan.windows())
        if windows is not None:
            report["fault_windows"] = windows
    return ScenarioOutcome(scenario, cluster, stats, report,
                           observer, injector)


def run_scenario(scenario: Scenario, plan=None, observe: bool = False) -> dict:
    """Run one scenario; returns just the report dict (see
    :func:`execute_scenario` for the full outcome)."""
    return execute_scenario(scenario, plan=plan, observe=observe).report
