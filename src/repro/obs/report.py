"""Breakdown report: where the time went in *this* run.

Generalises ``bench/journey.py``'s one-idle-packet attribution to whole
benchmark scenarios: run a scenario with full observability on, then print

* the classic one-packet journey (for the ``journey-*`` scenarios) whose
  stage durations sum exactly to the end-to-end latency;
* the aggregate per-stage packet breakdown — count / p50 / p99 / total
  nanoseconds per stage over **every** data packet of the run;
* copy bytes per architectural label per host;
* credit-stall counts and stalled nanoseconds;
* a span summary per (layer, operation) and per-link delivered rates.

A scenario is one of the six microbenchmarks in :data:`SCENARIOS` or any
workload preset (``repro.workloads.presets.PRESETS``, run with its built-in
fault plan).  For the rpc presets (which mint per-request trace contexts)
the report can also reconstruct causal request trees: :func:`request_roots`
finds every traced request, :func:`critical_path` extracts the chain of
last-finishing spans under a root, and :func:`render_waterfall` draws a
per-request waterfall with the critical path highlighted.

Command line::

    python -m repro.obs.report journey-fm2
    python -m repro.obs.report stream-fm2 --msg-bytes 2048 --messages 40 \
        --trace out/stream.json      # also export a Perfetto trace
    python -m repro.obs.report rpc-sharded --waterfall 2
    python -m repro.obs.report dataflow-rollup-stall    # any preset
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from repro.bench.journey import Journey, packet_journey_detail
from repro.bench.microbench import fm_pingpong, fm_stream
from repro.bench.mpibench import mpi_stream
from repro.cluster.cluster import Cluster
from repro.configs import PPRO_FM2, SPARC_FM1
from repro.obs.export import export_trace
from repro.obs.observer import Observer
from repro.obs.span import Span, layer_rank
from repro.obs.timeseries import nearest_rank
from repro.workloads.presets import PRESET_PLANS, PRESETS
from repro.workloads.runner import execute_scenario


@dataclass
class BreakdownReport:
    """The observed outcome of one scenario run."""

    scenario: str
    cluster: Cluster
    obs: Observer
    journey: Optional[Journey] = None   # set by the one-packet scenarios

    def stage_rows(self) -> list[tuple[str, int, int, int, int]]:
        """(stage, count, p50 ns, p99 ns, total ns) per packet stage."""
        rows = []
        for hist in self.obs.metrics.histograms("packet.stage"):
            rows.append((hist.labels["stage"], hist.count, hist.p50,
                         hist.p99, hist.total))
        return rows

    def credit_stalls(self) -> tuple[int, int]:
        """(stall count, total stalled ns) summed over all endpoints."""
        count = sum(node.fm.stats_credit_stalls for node in self.cluster.nodes)
        stalled = sum(h.total for h
                      in self.obs.metrics.histograms("fm.credit_stall_ns"))
        return count, stalled

    def render(self) -> str:
        """The full fixed-width text report."""
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


# -- scenarios ------------------------------------------------------------------

def _journey(machine, fm_version: int, msg_bytes: int, label: str,
             n_messages: int) -> BreakdownReport:
    observer = Observer()
    journey, cluster = packet_journey_detail(machine, fm_version, msg_bytes,
                                             observer=observer)
    return BreakdownReport(label, cluster, observer, journey=journey)


def _microbench(run: Callable) -> Callable:
    """A builder running ``run(cluster, msg_bytes, count)`` — a stream or a
    ping-pong of ``repro.bench`` — on an observed two-node cluster."""
    def build(machine, fm_version: int, msg_bytes: int, label: str,
              n_messages: int) -> BreakdownReport:
        cluster = Cluster(2, machine=machine, fm_version=fm_version)
        observer = cluster.observe()
        run(cluster, msg_bytes, n_messages)
        return BreakdownReport(label, cluster, observer)
    return build


#: scenario name -> (builder, machine, fm version, default bytes, default count)
SCENARIOS: dict[str, tuple[Callable, object, int, int, int]] = {
    "journey-fm1": (_journey, SPARC_FM1, 1, 16, 1),
    "journey-fm2": (_journey, PPRO_FM2, 2, 16, 1),
    "stream-fm1": (_microbench(fm_stream), SPARC_FM1, 1, 1024, 40),
    "stream-fm2": (_microbench(fm_stream), PPRO_FM2, 2, 1024, 40),
    "pingpong-fm2": (_microbench(fm_pingpong), PPRO_FM2, 2, 16, 20),
    "mpi-stream-fm2": (_microbench(mpi_stream), PPRO_FM2, 2, 1024, 30),
}


def run_scenario(name: str, msg_bytes: Optional[int] = None,
                 n_messages: Optional[int] = None) -> BreakdownReport:
    """Run one microbenchmark scenario, or one workload preset as it is
    defined, with full observability; returns the report."""
    if name in PRESETS:
        if msg_bytes is not None or n_messages is not None:
            raise ValueError(f"preset {name!r} runs as defined: message "
                             "size and count are its own")
        outcome = execute_scenario(PRESETS[name], plan=PRESET_PLANS.get(name),
                                   observe=True)
        return BreakdownReport(name, outcome.cluster, outcome.observer)
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; "
                         f"choices: {sorted({*SCENARIOS, *PRESETS})}")
    builder, machine, fm_version, default_bytes, default_count = SCENARIOS[name]
    return builder(machine, fm_version,
                   default_bytes if msg_bytes is None else msg_bytes,
                   name,
                   default_count if n_messages is None else n_messages)


def main(argv: Optional[list[str]] = None) -> int:
    """``python -m repro.obs.report`` entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Per-stage latency breakdown of a benchmark scenario.",
    )
    parser.add_argument("scenario", choices=sorted({*SCENARIOS, *PRESETS}),
                        metavar="scenario",
                        help="a microbenchmark (" + ", ".join(sorted(SCENARIOS))
                             + ") or any workload preset ("
                             + ", ".join(sorted(PRESETS)) + ")")
    parser.add_argument("--msg-bytes", type=int, default=None,
                        help="message size (microbenchmarks only; scenario "
                             "default otherwise)")
    parser.add_argument("--messages", type=int, default=None,
                        help="message / iteration count (microbenchmarks "
                             "only)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="also export a Perfetto trace-event JSON file")
    parser.add_argument("--waterfall", type=int, default=0, metavar="N",
                        help="render per-request waterfalls for the first "
                             "N traced requests (rpc presets)")
    args = parser.parse_args(argv)

    try:
        report = run_scenario(args.scenario, msg_bytes=args.msg_bytes,
                              n_messages=args.messages)
    except ValueError as exc:
        parser.error(str(exc))
    print(report.render())
    if args.waterfall:
        roots = request_roots(report.obs)
        if not roots:
            print("\nno traced requests (use an rpc preset for waterfalls)")
        for root in roots[:args.waterfall]:
            print()
            print(render_waterfall(report.obs, root))
            path = critical_path(report.obs, root)
            steps = " -> ".join(f"{s.layer}/{s.name}" for s in path)
            print(f"critical path: {steps}")
    if args.trace:
        path = export_trace(report.obs, args.trace)
        print(f"\ntrace written to {path} (open in ui.perfetto.dev)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
