"""Ablation of the three FM 2.x features the paper argues for (§4.1).

For each of gather/scatter, layer interleaving, and receiver flow control,
MPI runs over the binding with just that feature disabled (its
``BINDINGS`` name) and the workload is rerun.  Two workloads are used,
because the features bite in different regimes:

* a **pre-posted streaming** test (the Figure 6 workload: the
  ``mpi-stream-fm2`` preset with ``mpi_binding`` set) shows the bandwidth
  cost of gather and interleaving;
* an **un-posted burst** test (receives posted only after the burst lands)
  shows what receiver pacing prevents: unexpected-pool overrun and spill
  copies.

Copy-meter bytes are reported alongside bandwidth so a feature whose cost
pipelines away (e.g. a receive-side copy when the sender is the
bottleneck) is still attributed.
"""

from dataclasses import replace

from conftest import run_once
from repro.bench.report import HeadlineRow, curve_table, headline_table
from repro.bench.sweeps import SweepResult, bandwidth_sweep
from repro.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.upper.mpi.world import build_mpi_world
from repro.workloads.presets import PRESETS
from repro.workloads.runner import execute_scenario

SIZES = (16, 256, 2048)
BURST_SIZE = 1024
BURST_COUNT = 16
#: The full binding and its three ablations (``BINDINGS`` names), as the
#: tables label them.
LABELS = {"fm2": "full FM 2.x", "no-gather": "no gather",
          "no-interleaving": "no interleaving", "no-pacing": "no pacing"}


def stream_point(binding, size):
    """The Figure 6 stream over ``binding``; returns (MB/s, recv copy
    bytes)."""
    outcome = execute_scenario(replace(PRESETS["mpi-stream-fm2"],
                                       mpi_binding=binding, msg_bytes=size))
    return (outcome.stats.result.bandwidth_mbs,
            outcome.cluster.node(1).cpu.meter.bytes)


def measure_burst(binding):
    """Un-posted burst; returns (spill copies, unexpected, recv copy bytes)."""
    cluster = Cluster(2, PPRO_FM2, 2)
    comms = build_mpi_world(cluster, binding)

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
        stream = {label: [stream_point(binding, size) for size in SIZES]
                  for binding, label in LABELS.items()}
        burst = {LABELS[binding]: measure_burst(binding)
                 for binding in ("fm2", "no-pacing")}
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
