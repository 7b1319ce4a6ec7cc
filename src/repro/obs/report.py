"""Breakdown report: where the time went in *this* run.

Generalises ``bench/journey.py``'s one-idle-packet attribution to whole
benchmark scenarios: from an observed run, render

* the classic one-packet journey (for the ``journey-*`` microbenchmarks)
  whose stage durations sum exactly to the end-to-end latency;
* the aggregate per-stage packet breakdown — count / p50 / p99 / total
  nanoseconds per stage over **every** data packet of the run;
* copy bytes per architectural label per host;
* credit-stall counts and stalled nanoseconds;
* a span summary per (layer, operation) and per-link delivered rates.

:meth:`BreakdownReport.of` builds the report from the outcome of any
observed :func:`~repro.workloads.runner.execute_scenario`.  For the rpc
presets (which mint per-request trace contexts) the report can also
reconstruct causal request trees: :func:`request_roots` finds every traced
request, :func:`critical_path` extracts the chain of last-finishing spans
under a root, and :func:`render_waterfall` draws a per-request waterfall
with the critical path highlighted.

The command line is ``repro.workloads.run``'s ``--breakdown``::

    python -m repro.workloads.run journey-fm2 --breakdown
    python -m repro.workloads.run stream-fm2 --breakdown --set msg_bytes=2048
    python -m repro.workloads.run rpc-sharded --waterfall 2
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.bench.journey import Journey
from repro.obs.observer import Observer
from repro.obs.span import Span, layer_rank
from repro.obs.timeseries import nearest_rank

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.workloads.runner import ScenarioOutcome


@dataclass
class BreakdownReport:
    """The observed outcome of one scenario run."""

    scenario: str
    cluster: Cluster
    obs: Observer
    journey: Optional[Journey] = None   # set by the one-packet scenarios

    @classmethod
    def of(cls, outcome: ScenarioOutcome) -> BreakdownReport:
        """The report of one observed scenario run."""
        result = getattr(outcome.stats, "result", None)
        return cls(outcome.scenario.name, outcome.cluster, outcome.observer,
                   result if isinstance(result, Journey) else None)

    def stage_rows(self) -> list[tuple[str, int, int, int, int]]:
        """(stage, count, p50 ns, p99 ns, total ns) per packet stage."""
        return [(hist.labels["stage"], hist.count, hist.p50, hist.p99,
                 hist.total)
                for hist in self.obs.metrics.histograms("packet.stage")]

    def credit_stalls(self) -> tuple[int, int]:
        """(stall count, total stalled ns) summed over all endpoints."""
        count = sum(node.fm.stats_credit_stalls for node in self.cluster.nodes)
        stalled = sum(h.total for h
                      in self.obs.metrics.histograms("fm.credit_stall_ns"))
        return count, stalled

    def render(self, waterfalls: int = 0) -> str:
        """The full fixed-width text report, then the waterfall and
        critical path of each of the first ``waterfalls`` traced requests."""
        lines = [f"breakdown report — scenario {self.scenario!r} "
                 f"({self.cluster.machine.name}, FM{self.cluster.fm_version})"]
        lines.append("=" * len(lines[0]))

        if self.journey is not None:
            lines += ["", "one-packet journey (stage sum == end-to-end):",
                      self.journey.render()]

        stages = self.stage_rows()
        if stages:
            width = max(len(s) for s, *_ in stages) + 2
            lines += ["", "per-stage packet breakdown (all data packets):",
                      f"{'stage':<{width}}{'count':>7}{'p50 ns':>10}"
                      f"{'p99 ns':>10}{'total ns':>12}"]
            for stage, count, p50, p99, total in stages:
                lines.append(f"{stage:<{width}}{count:>7}{p50:>10}"
                             f"{p99:>10}{total:>12}")
            for hist in self.obs.metrics.histograms("packet.latency_ns"):
                lines.append(
                    f"{'end-to-end (submit -> extract)':<{width}}"
                    f"{hist.count:>7}{hist.p50:>10}{hist.p99:>10}{hist.total:>12}")

        copies = self.obs.metrics.copy_bytes_by_label()
        if any(labels for labels in copies.values()):
            lines += ["", "copy bytes by label:"]
            for owner, labels in copies.items():
                for label, nbytes in labels.items():
                    lines.append(f"  {owner:<14}{label:<26}{nbytes:>10}")

        count, stalled = self.credit_stalls()
        lines += ["", f"credit stalls: {count} ({stalled} ns stalled)"]

        summary = self.span_summary()
        if summary:
            width = max(len(name) for _l, name, *_ in summary) + 2
            lines += ["", "span summary by layer and operation:",
                      f"{'layer':<9}{'operation':<{width}}{'count':>7}"
                      f"{'p50 ns':>10}{'p99 ns':>10}{'total ns':>12}"]
            for layer, name, n, p50, p99, total in summary:
                lines.append(f"{layer:<9}{name:<{width}}{n:>7}"
                             f"{p50:>10}{p99:>10}{total:>12}")

        meters = self.obs.metrics.meters("link.bytes")
        delivered = [(m.labels.get("link", "?"), m.mean_rate_mbs())
                     for m in meters if m.total]
        if delivered:
            lines += ["", "delivered link rates:"]
            for link, rate in delivered:
                lines.append(f"  {link:<26}{rate:>10.2f} MB/s")

        roots = request_roots(self.obs) if waterfalls else []
        if waterfalls and not roots:
            lines += ["", "no traced requests (use an rpc preset for "
                          "waterfalls)"]
        for root in roots[:waterfalls]:
            steps = " -> ".join(f"{s.layer}/{s.name}"
                                for s in critical_path(self.obs, root))
            lines += ["", render_waterfall(self.obs, root),
                      f"critical path: {steps}"]
        return "\n".join(lines)

    def span_summary(self) -> list[tuple[str, str, int, int, int, int]]:
        """(layer, name, count, p50, p99, total ns) per span kind, top-down."""
        groups: dict[tuple[str, str], list[int]] = {}
        for span in self.obs.spans:
            groups.setdefault(span.key(), []).append(span.duration_ns)
        out = []
        for (layer, name), durations in sorted(
                groups.items(), key=lambda kv: (layer_rank(kv[0][0]), kv[0])):
            ordered = sorted(durations)
            out.append((layer, name, len(ordered), nearest_rank(ordered, 50),
                        nearest_rank(ordered, 99), sum(ordered)))
        return out


# -- causal request trees -------------------------------------------------------

def request_roots(obs: Observer) -> list[Span]:
    """Every traced request's root span, in start order.

    A root is a span that carries a trace id but no parent — the
    client-side ``rpc.request`` interval minted by
    :meth:`~repro.workloads.rpc.RpcClient.send_request`.
    """
    return sorted((s for s in obs.spans
                   if s.trace_id is not None and s.parent_id is None),
                  key=lambda s: (s.t_start, s.span_id))


def trace_children(obs: Observer, trace_id: int) -> dict[int, list[Span]]:
    """parent span id -> children (start-ordered) for one trace."""
    children: dict[int, list[Span]] = {}
    for span in obs.spans_for_trace(trace_id):
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    for kids in children.values():
        kids.sort(key=lambda s: (s.t_start, s.span_id))
    return children


def critical_path(obs: Observer, root: Span) -> list[Span]:
    """The chain of last-finishing spans from ``root`` down to a leaf.

    At each level the child with the greatest ``t_end`` is the one the
    request actually waited for; descending through those children yields
    the causal critical path (ties break deterministically by span id).
    """
    children = trace_children(obs, root.trace_id)
    path = [root]
    node = root
    while True:
        kids = children.get(node.span_id)
        if not kids:
            return path
        node = max(kids, key=lambda s: (s.t_end, s.span_id))
        path.append(node)


def render_waterfall(obs: Observer, root: Span, bar_width: int = 40) -> str:
    """Fixed-width waterfall of one request's span tree.

    One row per span, indented by tree depth, with offset/duration in ns
    and a timeline bar scaled to the root's interval; critical-path spans
    draw with ``=``, everything else with ``-``.
    """
    children = trace_children(obs, root.trace_id)
    on_path = {s.span_id for s in critical_path(obs, root)}
    t0, total = root.t_start, max(1, root.duration_ns)
    attrs = " ".join(f"{k}={v}" for k, v in sorted(root.attrs.items()))
    lines = [f"trace {root.trace_id}: {root.name} [{attrs}] "
             f"{root.duration_ns} ns on {root.track}",
             f"{'span':<36}{'offset':>9}{'dur ns':>9}  timeline "
             f"(= critical path)"]

    def emit(span: Span, depth: int) -> None:
        offset = span.t_start - t0
        left = min(bar_width - 1, max(0, bar_width * offset // total))
        run = max(1, bar_width * span.duration_ns // total)
        run = min(run, bar_width - left)
        mark = "=" if span.span_id in on_path else "-"
        bar = " " * left + mark * run
        name = "  " * depth + f"{span.layer}/{span.name}"
        lines.append(f"{name:<36}{offset:>9}{span.duration_ns:>9}  "
                     f"|{bar:<{bar_width}}|")
        for kid in children.get(span.span_id, ()):
            emit(kid, depth + 1)

    emit(root, 0)
    return "\n".join(lines)
