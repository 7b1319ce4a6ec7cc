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

from conftest import run_once
from repro.bench.figures import ABLATIONS, FIGURES
from repro.bench.report import HeadlineRow, headline_table
from repro.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.upper.mpi.world import build_mpi_world

BURST_SIZE = 1024
BURST_COUNT = 16


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
        return (FIGURES["ablation_fm2_features"](),
                {binding: measure_burst(binding)
                 for binding in ("fm2", "no-pacing")})

    result, burst = run_once(benchmark, regenerate)
    show(result.table)
    # The burst is a hand-built MPI world (receives posted only after it
    # lands), not a scenario, so its rows are measured and printed here.
    show(headline_table("Ablation — un-posted burst overrun", [
        HeadlineRow("burst spills, full (paced)", "0", str(burst["fm2"][0])),
        HeadlineRow("burst spills, no pacing", "> 0",
                    str(burst["no-pacing"][0])),
    ]))
    mbs = {binding: curve.at(2048)
           for binding, curve in zip(ABLATIONS, result.curves[1:])}
    copies = {binding: result.values[f"{binding}/2048/recv_copy_bytes"]
              for binding in ABLATIONS}

    # Gather: the per-byte assembly copy costs bandwidth at large sizes.
    assert mbs["no-gather"] < 0.90 * mbs["fm2"]
    # Interleaving: the staging copy may pipeline under the sender
    # bottleneck, but it is real CPU copy traffic — roughly double.
    assert copies["no-interleaving"] > 1.7 * copies["fm2"]
    assert mbs["no-interleaving"] <= mbs["fm2"] * 1.02
    # Pacing: with paced extraction the burst never spills; without it the
    # small pool overruns and pays spill copies, exactly §3.2's pathology.
    assert burst["fm2"][0] == 0
    assert burst["no-pacing"][0] > 0
    assert burst["no-pacing"][2] > burst["fm2"][2]
    # No ablation beats the full configuration at the large size.
    for binding in ("no-gather", "no-interleaving", "no-pacing"):
        assert mbs[binding] <= mbs["fm2"] * 1.02, binding
