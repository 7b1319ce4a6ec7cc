"""Metric definitions and how each is computed from a child's document.

Two clocks, named in every unit: host metrics carry plain units (``s``,
``op/s``, ``MB``); simulated metrics carry ``sim_`` units and are exact —
a deterministic simulator at a fixed seed repeats them bit for bit, so they
compare with ``==`` and any change is a finding, not noise.

``BENCHMARK.json`` lists the end-to-end metrics that are defined, and never
zero, on all seven workloads.  ``failed_share`` (zero when all is well),
``sim_layer_eff_pct`` and ``paper_err_pct`` (paper workloads only) are
printed by every plain run, compared by ``--compare``, and carried in the
driver-facing output as ``attempted`` / ``failed`` and as the per-layer
metrics ``sim.layer_eff_pct`` / ``sim.paper_err_pct``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import layers


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str            # "higher" | "lower"
    bound: float = 0.0     # share of the baseline median it may worsen by
    exact: bool = False    # simulated clock or count: compares with ==
    universal: bool = True  # defined and non-zero on every workload


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_s", "op/s", "higher", 0.12),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("failed_share", "ratio", "lower", exact=True, universal=False),
    Metric("sim_mbps", "sim_MB/s", "higher", 0.20, exact=True),
    Metric("sim_latency_us", "sim_us", "lower", 0.10, exact=True),
    Metric("sim_p99_us", "sim_us", "lower", 0.25, exact=True),
    Metric("sim_ops_per_s", "sim_op/s", "higher", 0.20, exact=True),
    Metric("sim_layer_eff_pct", "%", "higher", exact=True, universal=False),
    Metric("paper_err_pct", "%", "lower", exact=True, universal=False),
)

PER_LAYER = tuple(
    [Metric(f"{layer}.{suffix}", unit, "lower")
     for layer in layers.NAMED_LAYERS
     for suffix, unit in (("self_us_per_op", "us/op"),
                          ("calls_per_op", "calls/op"))]
    + [
        Metric("simkernel.events_per_op", "events/op", "lower", exact=True),
        Metric("simkernel.events_per_s", "events/s", "higher"),
        Metric("hardware.packets_per_op", "packets/op", "lower", exact=True),
        Metric("hardware.events_per_packet", "events/packet", "lower",
               exact=True),
        Metric("hardware.host_us_per_packet", "us/packet", "lower"),
        Metric("hardware.copies_per_op", "copies/op", "lower", exact=True),
        Metric("hardware.copy_bytes_per_op", "B/op", "lower", exact=True),
        Metric("core.data_packet_share", "ratio", "higher", exact=True),
        Metric("core.credit_stalls_per_op", "stalls/op", "lower", exact=True),
        Metric("core.credit_stall_sim_us_per_op", "sim_us/op", "lower",
               exact=True),
        Metric("upper.mpi.unexpected_per_op", "count/op", "lower", exact=True),
        Metric("upper.mpi.spills_per_op", "count/op", "lower", exact=True),
        Metric("upper.mpi.rendezvous_per_op", "count/op", "lower", exact=True),
        Metric("upper.mpi.eff_pct_16B", "%", "higher", exact=True),
        Metric("upper.mpi.eff_pct_2048B", "%", "higher", exact=True),
        Metric("workloads.queue_wait_p99_sim_us", "sim_us", "lower",
               exact=True),
        Metric("workloads.queue_depth_max", "count", "lower", exact=True),
        Metric("workloads.drops", "count", "lower", exact=True),
        Metric("dataflow.credit_stalls", "count", "lower", exact=True),
        Metric("dataflow.queue_depth_max", "count", "lower", exact=True),
        Metric("dataflow.delivered_per_emitted", "ratio", "lower", exact=True),
        Metric("obs.spans_per_op", "spans/op", "lower", exact=True),
        Metric("obs.overhead_x", "x", "lower"),
        Metric("cluster.build_s", "s", "lower"),
        Metric("trace.overhead_x", "x", "lower"),
        Metric("sim.layer_eff_pct", "%", "higher", exact=True),
        Metric("sim.paper_err_pct", "%", "lower", exact=True),
    ])


def tally(passes: list[dict]) -> tuple[int, int, list[str]]:
    """``(attempted, failed, reasons)`` over the given passes.  A failed
    check fails every op of its pass; passes that disagree on their
    ``sim_digest`` fail every op of the run."""
    reasons = sorted({reason for p in passes for reason in p["failures"]})
    size = max((p["ops"] for p in passes), default=0)
    attempted = failed = 0
    for p in passes:
        ops = p["ops"] or size     # a pass that raised attempted them all
        attempted += ops
        failed += ops if p["failures"] else 0
    if len({p["sim_digest"] for p in passes if p["sim_digest"]}) > 1:
        reasons.append("sim_digest_differs_between_passes")
        failed = attempted
    return max(attempted, 1), failed, reasons


def end_to_end(doc: dict, setup_samples: list[float]) -> dict[str, float]:
    """End-to-end metrics of a plain run (never of a traced one)."""
    passes = doc["passes"]
    attempted, failed, _reasons = tally(passes)
    good = next((p for p in passes if not p["failures"]), passes[0])
    values = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": good["ops"] / statistics.median(
            p["pass_s"] for p in passes),
        "peak_rss_mb": doc["peak_rss_mb"],
        "failed_share": failed / attempted,
    }
    values.update(good["sim"])
    return values


def per_layer(doc: dict) -> dict[str, float]:
    """Per-layer metrics of a traced run: exact counters from the untraced
    pass, host-time shares from the ``cProfile`` fold of the traced one."""
    untraced, traced = doc["passes"]
    ops = traced["ops"] or 1
    counts, extra, sim = untraced["counts"], untraced["extra"], untraced["sim"]
    values = {}
    for name, entry in layers.named(doc["fold_layers"]).items():
        values[f"{name}.self_us_per_op"] = entry["self_s"] * 1e6 / ops
        values[f"{name}.calls_per_op"] = entry["calls"] / ops
    events = counts.get("events", 0)
    packets = counts.get("packets", 0)
    fm_packets = counts.get("fm_packets", 0)

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values.update({
        "simkernel.events_per_op": events / ops,
        "simkernel.events_per_s": events / untraced["pass_s"],
        "hardware.packets_per_op": packets / ops,
        "hardware.events_per_packet": per(events, packets),
        "hardware.host_us_per_packet": per(untraced["pass_s"] * 1e6, packets),
        "hardware.copies_per_op": counts.get("copies", 0) / ops,
        "hardware.copy_bytes_per_op": counts.get("copy_bytes", 0) / ops,
        "core.data_packet_share": per(
            fm_packets - counts.get("fm_credit_packets", 0), fm_packets),
        "core.credit_stalls_per_op": counts.get("fm_credit_stalls", 0) / ops,
        "core.credit_stall_sim_us_per_op":
            counts.get("fm_credit_stall_ns", 0) / 1e3 / ops,
        "upper.mpi.unexpected_per_op":
            extra.get("upper.mpi.unexpected", 0) / ops,
        "upper.mpi.spills_per_op": extra.get("upper.mpi.spills", 0) / ops,
        "upper.mpi.rendezvous_per_op":
            extra.get("upper.mpi.rendezvous", 0) / ops,
        "obs.spans_per_op": extra.get("obs.spans", 0) / ops,
        "obs.overhead_x": per(untraced["pass_s"], doc.get("reference_s", 0)),
        "cluster.build_s": untraced["build_s"],
        "trace.overhead_x": traced["raw_pass_s"] / untraced["raw_pass_s"],
        "sim.layer_eff_pct": sim.get("sim_layer_eff_pct", 0.0),
        "sim.paper_err_pct": sim.get("paper_err_pct", 0.0),
    })
    for name in ("upper.mpi.eff_pct_16B", "upper.mpi.eff_pct_2048B",
                 "workloads.queue_wait_p99_sim_us",
                 "workloads.queue_depth_max", "workloads.drops",
                 "dataflow.credit_stalls", "dataflow.queue_depth_max",
                 "dataflow.delivered_per_emitted"):
        values[name] = extra.get(name, 0)
    return values
