"""Pipeline statistics: end-to-end latency plus per-stage telemetry.

:class:`PipelineStats` plays the role :class:`~repro.workloads.stats
.WorkloadStats` plays for RPC — one object per run, bookkeeping only
(recording never touches the event heap), a pure function of the
simulated run, counting into the stats' registry an observer adopts.  The
shape differs because the unit of work differs: a record flows through
*stages*, so the report carries a per-stage section (received /
processed / emitted / filtered counts, max queue depth, credit-stall
count and nanoseconds, completion time) alongside the aggregate
end-to-end latency reservoir and conservation counters.

Credit stalls are the backpressure signal: a stage whose sends stall is
a stage being paced by its downstream's bounded queue through FM's
credit ledger.  The runtime attributes each stall episode to the emitting
stage via the core ``on_credit_stall`` hook, so "where is the pipeline
tight?" is answerable per stage from the report.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Optional

from repro.obs.metrics import RunStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.env import Environment


class StageStats:
    """Counters for one placed stage: ``counters`` is the pipeline
    registry's ``<pipeline>.<name>`` bag."""

    def __init__(self, name: str, kind: str, node: int, counters: Counter):
        self.name = name
        self.kind = kind
        self.node = node
        self.counters = counters
        self.queue_depth_max = 0
        self.done_ns: Optional[int] = None

    def note_queue_depth(self, depth: int) -> None:
        if depth > self.queue_depth_max:
            self.queue_depth_max = depth

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "node": self.node,
            "received": self.counters["received"],
            "processed": self.counters["processed"],
            "emitted": self.counters["emitted"],
            "filtered": self.counters["filtered"],
            "credit_stalls": self.counters["credit_stalls"],
            "credit_stall_ns": self.counters["credit_stall_ns"],
            "queue_depth_max": self.queue_depth_max,
            "done_ns": self.done_ns,
        }


class PipelineStats(RunStats):
    """Everything one pipeline run reports.  There is no fault-window
    section: windowed availability scoring is RPC-shaped (good / bad
    request fractions), pipelines expose per-stage credit-stall telemetry
    instead."""

    def __init__(self, env: "Environment", name: str = "pipeline"):
        super().__init__(env, name)
        #: End-to-end record latency (source emit -> sink arrival).
        self.latency = self.reservoir("latency_ns")
        self.stages: dict[str, StageStats] = {}
        #: Per-edge rows, filled in by ``run_pipeline`` once the run ends.
        self.edges: list[dict] = []
        self.t_first_emit: Optional[int] = None
        self.t_last_delivery: Optional[int] = None

    # -- construction ------------------------------------------------------
    def add_stage(self, name: str, kind: str, node: int) -> StageStats:
        if name in self.stages:
            raise ValueError(f"duplicate stage stats {name!r}")
        stage = self.stages[name] = StageStats(
            name, kind, node, self.metrics.counters(f"{self.name}.{name}"))
        return stage

    # -- recording ---------------------------------------------------------
    def note_emitted(self, stage: StageStats) -> None:
        """A source put one fresh record into the pipeline (the stage's
        own ``emitted`` counter is bumped by the send path)."""
        self.counters["emitted"] += 1
        if self.t_first_emit is None:
            self.t_first_emit = self.env.now

    def note_delivered(self, stage: StageStats, latency_ns: int,
                       source_records: int) -> None:
        """A sink consumed one record carrying ``source_records`` counts."""
        stage.counters["received"] += 1
        stage.counters["processed"] += 1
        self.counters["delivered"] += 1
        self.counters["delivered_source_records"] += source_records
        self.latency.record(latency_ns)
        self.t_last_delivery = self.env.now

    def note_filtered(self, stage: StageStats, source_records: int) -> None:
        """A filter stage dropped-by-predicate ``source_records`` counts
        (conserved, not lost: they show up in the conservation section)."""
        stage.counters["filtered"] += 1
        self.counters["filtered_records"] += source_records

    def note_credit_stall(self, stage: StageStats, stall_ns: int) -> None:
        stage.counters["credit_stalls"] += 1
        stage.counters["credit_stall_ns"] += stall_ns
        self.counters["credit_stalls"] += 1
        self.counters["credit_stall_ns"] += stall_ns

    def note_queue_depth(self, stage: StageStats, depth: int) -> None:
        stage.note_queue_depth(depth)
        if self.env.obs is not None:
            self.metrics.histogram(
                f"{self.name}.{stage.name}.queue_depth").record(depth)

    # -- reporting ---------------------------------------------------------
    def elapsed_ns(self) -> int:
        if self.t_first_emit is None or self.t_last_delivery is None:
            return 0
        return self.t_last_delivery - self.t_first_emit

    def throughput_rps(self) -> float:
        """Delivered *source* records per second of pipeline activity."""
        elapsed = self.elapsed_ns()
        if elapsed <= 0:
            return 0.0
        return self.counters["delivered_source_records"] * 1e9 / elapsed

    def report(self) -> dict:
        emitted = self.counters["emitted"]
        sink_records = self.counters["delivered_source_records"]
        filtered = self.counters["filtered_records"]
        return {
            "records": {
                "emitted": emitted,
                "delivered": self.counters["delivered"],
                "delivered_source_records": sink_records,
                "filtered": filtered,
                "dropped": self.counters["dropped"],
            },
            "conservation": {
                "sources_emitted": emitted,
                "sink_source_records": sink_records,
                "filtered": filtered,
                "ok": emitted == sink_records + filtered,
            },
            "latency": self.latency.summary(),
            "throughput_rps": round(self.throughput_rps(), 2),
            "elapsed_ns": self.elapsed_ns(),
            "credit_stalls": self.counters["credit_stalls"],
            "credit_stall_ns": self.counters["credit_stall_ns"],
            "stages": [stage.as_dict() for stage in self.stages.values()],
            "edges": self.edges,
        }
