"""Scenario specs and the one-call runner: spec -> cluster -> run -> report.

A scenario is pure data: one frozen dataclass per workload kind, declaring
only the fields that kind reads, all subclasses of
:class:`~repro.scenario.Scenario` (JSON-round-trippable via
:meth:`Scenario.from_dict` / ``dataclasses.asdict``).  :data:`KINDS` names
the module and class of each kind, and :func:`kind_class` imports one when
a spec of that kind is parsed, so importing the runner loads no kind; each
class lives beside its mechanism, documents its own fields, validates
itself in ``__post_init__`` and owns everything kind-specific:
``build_stats(env)``, ``run(cluster, stats) -> extra report sections`` and
the modules its runs import beyond its own (``preloads``).
:func:`execute_scenario` is one straight line for every kind: build the
cluster, compose the optional :class:`~repro.faults.plan.FaultPlan` and
observer (the standard ``Cluster.inject_faults`` / ``Cluster.observe``
hooks — zero cost when absent, bit-identical results when passive), then
hand over to the scenario.  The report's ``"scenario"`` section is the
scenario's own fields.

Determinism: the report is a pure function of ``(scenario, plan)``.  Two
calls with equal specs produce byte-identical JSON, and every preset's
report is pinned under ``tests/golden/``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from importlib import import_module
from typing import Optional

from repro.cluster.cluster import Cluster
from repro.obs.metrics import RunStats
from repro.obs.observer import Observer
from repro.obs.slo import evaluate_slos
from repro.scenario import Scenario

#: Workload kind -> the module and name of its scenario class.  A new kind
#: is one class beside its mechanism and one line here.
KINDS = {
    "rpc": ("repro.workloads.rpc_kind", "RpcScenario"),
    "halo": ("repro.workloads.apps", "HaloScenario"),
    "allreduce": ("repro.workloads.apps", "AllreduceScenario"),
    "pipeline": ("repro.dataflow.engine", "PipelineScenario"),
    "micro": ("repro.bench.micro", "MicroScenario"),
}


def kind_class(kind) -> type[Scenario]:
    """The scenario class of ``kind``, imported now: a process loads only
    the kinds it parses a spec of."""
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValueError(f"kind must be one of {tuple(KINDS)}, "
                         f"got {kind!r}")
    module, name = KINDS[kind]
    return getattr(import_module(module), name)


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


def build_scenario(scenario: Scenario) -> tuple[Cluster, RunStats]:
    """The ``(cluster, stats)`` a scenario runs on."""
    machine = scenario.machine_params()
    topology, trunk = scenario.topology(machine)
    cluster = Cluster(scenario.n_nodes, machine=machine,
                      fm_version=scenario.fm_version, topology=topology,
                      trunk_params=trunk)
    return cluster, scenario.build_stats(cluster.env)


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
    sections = scenario.run(cluster, stats)
    report = {
        "scenario": asdict(scenario),
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
