"""Ablation of the three FM 2.x features the paper argues for (§4.1).

For each of gather/scatter, layer interleaving, and receiver flow control,
MPI is rebuilt with just that feature disabled and the workload rerun.
Two workloads are used, because the features bite in different regimes:

* a **pre-posted streaming** test (the Figure 6 workload) shows the
  bandwidth cost of gather and interleaving;
* an **un-posted burst** test (receives posted only after the burst lands)
  shows what receiver pacing prevents: unexpected-pool overrun and spill
  copies.

Copy-meter bytes are reported alongside bandwidth so a feature whose cost
pipelines away (e.g. a receive-side copy when the sender is the
bottleneck) is still attributed.
"""

from dataclasses import replace

import pytest

from conftest import run_once
from repro.bench.mpibench import POSTED_WINDOW
from repro.bench.report import HeadlineRow, curve_table, headline_table
from repro.bench.sweeps import SweepResult, bandwidth_sweep
from repro.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.upper.mpi.ablations import ABLATIONS
from repro.upper.mpi.world import build_mpi_world
from repro.workloads.presets import PRESETS

SIZES = (16, 256, 2048)
BURST_SIZE = 1024
BURST_COUNT = 16


def measure_stream(binding_cls, costs, size, n_messages=30):
    """Pre-posted streaming bandwidth; returns (MB/s, recv copy bytes)."""
    cluster = Cluster(2, PPRO_FM2, 2)
    comms = build_mpi_world(cluster, costs=costs, binding_cls=binding_cls)
    payload = bytes(size)
    marks = {}

    def sender(node):
        marks["start"] = node.env.now
        for _ in range(n_messages):
            yield from comms[0].send(payload, 1, tag=1)

    def receiver(node):
        pending = []
        posted = 0
        for _ in range(min(POSTED_WINDOW, n_messages)):
            pending.append((yield from comms[1].irecv(0, 1, max_bytes=size)))
            posted += 1
        completed = 0
        while completed < n_messages:
            req = pending.pop(0)
            yield from comms[1].wait(req)
            completed += 1
            if posted < n_messages:
                pending.append((yield from comms[1].irecv(0, 1,
                                                          max_bytes=size)))
                posted += 1
        marks["end"] = node.env.now

    cluster.run([sender, receiver])
    elapsed = marks["end"] - marks["start"]
    bandwidth = size * n_messages / (elapsed / 1e9) / 1e6
    return bandwidth, cluster.node(1).cpu.meter.bytes


def measure_burst(binding_cls, costs):
    """Un-posted burst; returns (spill copies, unexpected, recv copy bytes)."""
    cluster = Cluster(2, PPRO_FM2, 2)
    comms = build_mpi_world(cluster, costs=costs, binding_cls=binding_cls)

    def sender(node):
        for _ in range(BURST_COUNT):
            yield from comms[0].send(bytes(BURST_SIZE), 1, tag=1)

    def receiver(node):
        engine = comms[1].engine
        while engine.stats_unexpected < BURST_COUNT:
            yield from engine.progress()
            yield node.env.timeout(1_000)
        for _ in range(BURST_COUNT):
            yield from comms[1].recv(0, 1)

    cluster.run([sender, receiver])
    engine = comms[1].engine
    return engine.stats_spills, engine.stats_unexpected, \
        cluster.node(1).cpu.meter.bytes


def test_ablation_fm2_features(benchmark, show):
    def regenerate():
        stream = {label: [measure_stream(b, c, size) for size in SIZES]
                  for label, (b, c) in ABLATIONS.items()}
        burst = {label: measure_burst(b, c)
                 for label, (b, c) in ABLATIONS.items()
                 if label in ("full FM 2.x", "no pacing")}
        return stream, burst

    stream, burst = run_once(benchmark, regenerate)
    fm_base = bandwidth_sweep(replace(PRESETS["stream-fm2"], n_requests=30),
                              SIZES, "raw FM")
    sweeps = [fm_base] + [
        SweepResult(label, list(SIZES), [bw for bw, _copies in rows])
        for label, rows in stream.items()
    ]
    show(curve_table("Ablation — pre-posted MPI stream, one feature "
                     "disabled at a time", sweeps))
    show(headline_table("Ablation — receive-side copy traffic and overrun", [
        HeadlineRow("recv copies @2KB, full", "-",
                    f"{stream['full FM 2.x'][2][1]} B"),
        HeadlineRow("recv copies @2KB, no interleaving", "-",
                    f"{stream['no interleaving'][2][1]} B"),
        HeadlineRow("burst spills, full (paced)", "0",
                    str(burst["full FM 2.x"][0])),
        HeadlineRow("burst spills, no pacing", "> 0",
                    str(burst["no pacing"][0])),
    ]))

    full = stream["full FM 2.x"]
    # Gather: the per-byte assembly copy costs bandwidth at large sizes.
    assert stream["no gather"][2][0] < 0.90 * full[2][0]
    # Interleaving: the staging copy may pipeline under the sender
    # bottleneck, but it is real CPU copy traffic — roughly double.
    assert stream["no interleaving"][2][1] > 1.7 * full[2][1]
    assert stream["no interleaving"][2][0] <= full[2][0] * 1.02
    # Pacing: with paced extraction the burst never spills; without it the
    # small pool overruns and pays spill copies, exactly §3.2's pathology.
    assert burst["full FM 2.x"][0] == 0
    assert burst["no pacing"][0] > 0
    assert burst["no pacing"][2] > burst["full FM 2.x"][2]
    # No ablation beats the full configuration at the large size.
    for label in ("no gather", "no interleaving", "no pacing"):
        assert stream[label][2][0] <= full[2][0] * 1.02, label
