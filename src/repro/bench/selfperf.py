"""Self-performance harness: how fast does the simulator itself run?

Unlike every other module in ``repro.bench`` — which measures the *simulated*
machine — this measures the *simulator*: kernel events per wall-clock second
and full-protocol packets per wall-clock second.  Those two numbers bound how
large an experiment (cluster size x sweep length) stays interactive, so they
are tracked as a committed baseline in ``BENCH_selfperf.json`` at the repo
root (canonical JSON via :func:`repro.obs.export.dumps_deterministic`, the
same helper the figure exports use).

Protocol: each workload is run once to warm up, then ``repeats`` times, and
the **minimum** wall time is kept — the minimum is the least noisy location
statistic for a deterministic workload (everything above it is scheduler /
allocator interference).  Event and packet counts come from the run itself
(``Environment.scheduled_events``, NIC counters), so the rates stay honest
if the workloads change.

Run as a CLI::

    python -m repro.bench.selfperf                 # 5 repeats, write JSON
    python -m repro.bench.selfperf --repeats 9 -o BENCH_selfperf.json
    python -m repro.bench.selfperf --check         # measure, print, no write
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable

from repro.bench.microbench import fm_stream
from repro.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.obs.export import dumps_deterministic
from repro.simkernel import Environment, Store

#: Pre-overhaul numbers, measured with this same harness (same workloads,
#: same min-of-repeats protocol, interleaved on the same machine) at the
#: commit preceding the hot-path overhaul.  Kept frozen so the "speedup"
#: block in BENCH_selfperf.json always compares against the recorded
#: before-state rather than a moving target.
BASELINE = {
    "commit": "1b3a56a",
    "kernel": {
        "events": 12007,
        "min_seconds": 0.0262,
        "events_per_sec": 458746,
    },
    "stack": {
        "packets": 67,
        "min_seconds": 0.0212,
        "packets_per_sec": 3155,
    },
}


# -- workloads -----------------------------------------------------------------
def kernel_workload() -> tuple[int, int]:
    """Pure-kernel churn (same shape as benchmarks/test_simulator_performance):
    a producer -> 3 relays -> consumer chain over bounded stores, ~30k events.

    Returns ``(simulated_ns, scheduled_events)``.
    """
    env = Environment()
    stores = [Store(env, capacity=4) for _ in range(4)]

    def producer(env):
        for i in range(1000):
            yield env.timeout(5)
            yield stores[0].put(i)

    def relay(env, src, dst):
        while True:
            item = yield src.get()
            yield env.timeout(3)
            yield dst.put(item)

    def consumer(env):
        for _ in range(1000):
            yield stores[-1].get()

    env.process(producer(env))
    for index in range(len(stores) - 1):
        env.process(relay(env, stores[index], stores[index + 1]))
    done = env.process(consumer(env))
    env.run(until=done)
    return env.now, env.scheduled_events


def stack_workload() -> tuple[int, int]:
    """Full-protocol churn: 60 x 1 KB FM 2.x messages between two nodes.

    Returns ``(simulated_ns, wire_packets)`` where the packet count includes
    control (credit) traffic — every packet the NIC firmware handled.
    """
    cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
    fm_stream(cluster, 1024, n_messages=60)
    packets = sum(node.nic.sent_packets for node in cluster.nodes)
    return cluster.env.now, packets


def stack_obs_workload() -> tuple[int, int]:
    """The stack workload with full observability attached.

    Identical traffic to :func:`stack_workload` but with the observer on
    (spans, metrics, trace contexts all recording), so the wall-time ratio
    against the plain run *is* the observability overhead — the cost the
    zero-cost invariant allows (wall time only, never simulated results).
    """
    cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
    cluster.observe()
    fm_stream(cluster, 1024, n_messages=60)
    packets = sum(node.nic.sent_packets for node in cluster.nodes)
    return cluster.env.now, packets


def _partitioned_scenario(partitions: int):
    """The grouped scenario both partitioned workloads run: 2000 simulated
    clients (AggregateOpenLoop) on 4 generator nodes feeding 4 shards over
    4 switch groups — big enough (~10 ms sim, ~10^5 events) that worker
    compute dominates barrier chatter, small enough to repeat."""
    from dataclasses import replace

    from repro.workloads.runner import Scenario

    base = Scenario(name="selfperf-partitioned", kind="rpc", arrival="open",
                    n_nodes=8, partition_groups=4,
                    trunk_propagation_ns=8_000, servers=4,
                    balancer="static", population=2_000, rate_rps=100.0,
                    n_requests=1, req_bytes=64, resp_bytes=64,
                    work_ns=1_000, workers=4, queue_capacity=64)
    return replace(base, partitions=partitions)


def partitioned_serial_workload() -> tuple[int, int]:
    """The partitioned reference scenario on the in-process serial runner.

    Returns ``(simulated_ns, scheduled_events)`` — the denominator the
    parallel run's wall-clock speedup is measured against.
    """
    from repro.workloads.runner import execute_scenario

    outcome = execute_scenario(_partitioned_scenario(0))
    return outcome.report["sim_end_ns"], outcome.cluster.env.scheduled_events


def partitioned_parallel_workload() -> tuple[int, int]:
    """The same scenario on 4 partition worker processes.

    Returns ``(simulated_ns, scheduled_events summed across workers)``.
    The report is byte-identical to the serial run's; only wall time (and
    the residual barrier/injection event overhead) differs.
    """
    from repro.workloads.partitioned import run_partitioned

    details: dict = {}
    report = run_partitioned(_partitioned_scenario(4), details=details)
    return report["sim_end_ns"], details["events"]


def rdma_put_bw_workload() -> tuple[int, int]:
    """One-sided transport churn: 40 x 4 KB RDMA puts between two nodes.

    The firmware-heavy counterpart of :func:`stack_workload`: every payload
    chunk is matched and steered by the NIC engines with no host handler,
    so this tracks the simulator's cost per *offloaded* packet.

    Returns ``(simulated_ns, rdma write wire packets)``.
    """
    from repro.bench.rdma_bench import rdma_stream

    cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
    rdma_stream(cluster, 4096, n_messages=40)
    packets = sum(node.nic.rdma_write_packets for node in cluster.nodes)
    return cluster.env.now, packets


def dataflow_workload() -> tuple[int, int]:
    """The ``dataflow-rollup`` preset end to end: 3 sources feeding 4
    hash-partitioned window lanes over FM2 streams, credits pacing every
    hop — the streaming engine's representative self-performance point.

    Returns ``(simulated_ns, scheduled_events)``.
    """
    from repro.workloads.presets import PRESETS
    from repro.workloads.runner import execute_scenario

    outcome = execute_scenario(PRESETS["dataflow-rollup"])
    return outcome.report["sim_end_ns"], outcome.cluster.env.scheduled_events


#: Workloads the ``--profile`` flag can target.
PROFILE_WORKLOADS: dict[str, Callable[[], tuple[int, int]]] = {
    "kernel": kernel_workload,
    "stack": stack_workload,
    "stack_obs": stack_obs_workload,
    "partitioned": partitioned_serial_workload,
    "dataflow": dataflow_workload,
    "rdma": rdma_put_bw_workload,
}


def profile_workload(name: str, top: int = 20) -> None:
    """cProfile one workload and print the ``top`` cumulative entries.

    The profiling path never writes BENCH_selfperf.json: profiled wall
    times include instrumentation overhead and must not contaminate the
    tracked numbers.
    """
    import cProfile
    import pstats

    fn = PROFILE_WORKLOADS[name]
    fn()  # warmup outside the profile: imports, allocator pools
    profiler = cProfile.Profile()
    profiler.enable()
    fn()
    profiler.disable()
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(top)


# -- measurement ---------------------------------------------------------------
def _time_min(fn: Callable[[], tuple[int, int]], repeats: int) -> tuple[float, int]:
    """Minimum wall seconds over ``repeats`` runs (after one warmup)."""
    fn()  # warmup: imports, pools, branch caches
    best = float("inf")
    count = 0
    for _ in range(repeats):
        t0 = perf_counter()
        _, count = fn()
        elapsed = perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best, count


def measure(repeats: int = 5) -> dict:
    """Measure all workloads; returns the ``current`` document section."""
    kernel_s, kernel_events = _time_min(kernel_workload, repeats)
    stack_s, stack_packets = _time_min(stack_workload, repeats)
    obs_s, obs_packets = _time_min(stack_obs_workload, repeats)
    # The partitioned pair runs seconds per repetition; cap its repeats so
    # the harness stays interactive (min-of-2 is still a stable floor for
    # a deterministic workload).
    part_repeats = max(1, min(repeats, 2))
    pser_s, pser_events = _time_min(partitioned_serial_workload, part_repeats)
    ppar_s, ppar_events = _time_min(partitioned_parallel_workload,
                                    part_repeats)
    dflow_s, dflow_events = _time_min(dataflow_workload, repeats)
    rdma_s, rdma_packets = _time_min(rdma_put_bw_workload, repeats)
    return {
        "kernel": {
            "events": kernel_events,
            "min_seconds": round(kernel_s, 4),
            "events_per_sec": int(kernel_events / kernel_s),
        },
        "stack": {
            "packets": stack_packets,
            "min_seconds": round(stack_s, 4),
            "packets_per_sec": int(stack_packets / stack_s),
        },
        "stack_obs": {
            "packets": obs_packets,
            "min_seconds": round(obs_s, 4),
            "packets_per_sec": int(obs_packets / obs_s),
            # Wall-time cost of full observability on identical traffic;
            # gated machine-relative by benchmarks/.
            "obs_overhead": round(obs_s / stack_s, 2),
        },
        "partitioned": {
            # Wall-clock scaling of the partitioned engine on one grouped
            # scenario: the same simulation serial vs 4 worker processes.
            # Speedup is machine-relative (bounded above by cpus — a
            # 1-core box *must* read < 1x from barrier overhead), so the
            # benchmark gate only requires >= 2x when cpus >= 4.
            "cpus": os.cpu_count() or 1,
            "partitions": 4,
            "serial_events": pser_events,
            "serial_seconds": round(pser_s, 4),
            "serial_events_per_sec": int(pser_events / pser_s),
            "parallel_events": ppar_events,
            "parallel_seconds": round(ppar_s, 4),
            "parallel_events_per_sec": int(ppar_events / ppar_s),
            "parallel_speedup": round(pser_s / ppar_s, 2),
        },
        "dataflow_rollup": {
            # The streaming engine on its tier-1 preset: kernel events per
            # wall second with windows, fan-out, and credit pacing live.
            "events": dflow_events,
            "min_seconds": round(dflow_s, 4),
            "events_per_sec": int(dflow_events / dflow_s),
        },
        "rdma_put_bw": {
            # The one-sided transport: 40 x 4 KB puts, every chunk handled
            # by NIC firmware (match + DMA), no host on the receive path.
            "packets": rdma_packets,
            "min_seconds": round(rdma_s, 4),
            "packets_per_sec": int(rdma_packets / rdma_s),
        },
    }


def build_document(current: dict) -> dict:
    """Assemble the full BENCH_selfperf.json document."""
    return {
        "baseline": BASELINE,
        "current": current,
        "speedup": {
            "kernel": round(
                current["kernel"]["events_per_sec"]
                / BASELINE["kernel"]["events_per_sec"], 2),
            "stack": round(
                current["stack"]["packets_per_sec"]
                / BASELINE["stack"]["packets_per_sec"], 2),
        },
        "protocol": (
            "min wall time over N repeats after 1 warmup; kernel = "
            "producer/3-relay/consumer chain (~36k processed events); stack = "
            "60x1KB FM2 messages on a 2-node PPRO cluster; stack_obs = the "
            "same traffic with the observer attached (obs_overhead = wall-"
            "time ratio vs stack); partitioned = one grouped 2000-client "
            "aggregate scenario serial vs 4 worker processes, min of 2 "
            "repeats (parallel_speedup is wall-clock and machine-relative: "
            "it cannot exceed the cpu count, and reads < 1x on 1 core); "
            "dataflow_rollup = the dataflow-rollup preset (3 sources, 4 "
            "hash window lanes, spread over 8 nodes) end to end; "
            "rdma_put_bw = 40x4KB one-sided puts on the same 2-node "
            "cluster, counting NIC-offloaded RDMA write packets; events and "
            "events_per_sec above the kernel are not comparable across the "
            "quiet-instant elision change (uncontended grants/admits stopped "
            "being events, the cheapest ones): read min_seconds"
        ),
    }


def write_selfperf(path: str | Path = "BENCH_selfperf.json",
                   repeats: int = 5, document: dict | None = None) -> Path:
    """Measure (unless given a ``document``) and write the tracked file."""
    path = Path(path)
    if document is None:
        document = build_document(measure(repeats))
    path.write_text(dumps_deterministic(document))
    return path


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: measure and write (or ``--check``-print) the document."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.selfperf",
        description="Measure simulator self-performance (events/sec, packets/sec).",
    )
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repetitions per workload (default 5)")
    parser.add_argument("-o", "--output", default="BENCH_selfperf.json",
                        help="output path (default ./BENCH_selfperf.json)")
    parser.add_argument("--check", action="store_true",
                        help="measure and print, but do not write the file")
    parser.add_argument("--profile", nargs="?", const="stack",
                        choices=sorted(PROFILE_WORKLOADS), metavar="WORKLOAD",
                        help="cProfile one workload (default: stack) and "
                             "print the top-20 cumulative entries instead of "
                             "measuring; never writes the JSON document")
    args = parser.parse_args(argv)

    if args.profile is not None:
        profile_workload(args.profile)
        return 0

    document = build_document(measure(args.repeats))
    text = dumps_deterministic(document)
    if args.check:
        sys.stdout.write(text)
        return 0
    Path(args.output).write_text(text)
    current, speedup = document["current"], document["speedup"]
    print(f"kernel: {current['kernel']['events_per_sec']:>10,} events/sec "
          f"({speedup['kernel']:.2f}x baseline)")
    print(f"stack:  {current['stack']['packets_per_sec']:>10,} packets/sec "
          f"({speedup['stack']:.2f}x baseline)")
    part = current["partitioned"]
    print(f"partitioned: {part['parallel_speedup']:.2f}x wall-clock at "
          f"{part['partitions']} workers on {part['cpus']} cpus")
    dflow = current["dataflow_rollup"]
    print(f"dataflow: {dflow['events_per_sec']:>8,} events/sec "
          f"(rollup preset)")
    rdma = current["rdma_put_bw"]
    print(f"rdma:   {rdma['packets_per_sec']:>10,} packets/sec "
          f"(one-sided put stream)")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
