"""Extension — one-sided RDMA and NIC-offloaded collectives.

The paper's firmware thesis (§5: "the interface between the network
interface firmware and the host is the critical design point") extended
one step further: let the firmware *match and steer* (one-sided put/get
against registered regions) and *run protocol rounds* (barrier
dissemination, broadcast trees) without the host on the data path.

* **put bandwidth** — streaming one-sided puts vs the FM 2.x two-sided
  stream on the same simulated PPro testbed.  The put wins at every size:
  no handler dispatch, no extract loop, no credit accounting on the
  receive side, and the payload rides the DMA engine instead of PIO.  The
  short-message metric moves too: N-half drops below the FM 2.x stream's,
  and the two-sided curve *collapses* at 64 KB (credit-ledger round trips)
  where the put curve stays at peak.
* **collective scaling** — host-level MPI barrier/broadcast pay the full
  per-message software stack every protocol round; the NIC engines pay
  ``collective_step_ns`` and wire hops.  Both scale with log2(n) rounds,
  but the NIC's per-round cost is a small fraction of the host's, so its
  latency-vs-cluster-size curve is measurably flatter.
"""

from __future__ import annotations

from dataclasses import replace

from conftest import run_once
from repro.bench.figures import FIGURES
from repro.bench.sweeps import bandwidth_sweep, measure
from repro.workloads.presets import PRESETS

SIZES = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 16384, 65536)


def test_ext_rdma_put_bandwidth(benchmark, show):
    result = run_once(benchmark, FIGURES["ext_rdma"])
    show(result.table)
    rdma, fm2 = result.curves

    # One-sided wins at *every* size: less host work per message at the
    # small end, DMA-not-PIO payload movement at the large end.
    for size in SIZES:
        assert rdma.at(size) > fm2.at(size), f"FM2 beat RDMA at {size} B"
    assert rdma.peak_mbs > 1.1 * fm2.peak_mbs
    # The short-message half-power point moves down, not just the peak.
    assert rdma.n_half_bytes < fm2.n_half_bytes
    # The two-sided stream collapses at 64 KB (credit round trips mid
    # message); the one-sided stream holds peak — registration already
    # promised the landing memory, so no ledger is consulted.
    assert fm2.at(65536) < 0.8 * fm2.peak_mbs
    assert rdma.at(65536) > 0.95 * rdma.peak_mbs
    # Simulation determinism: regenerating a point reproduces it exactly.
    puts = replace(PRESETS["stream-fm2"], pattern="rdma-stream")
    assert bandwidth_sweep(puts, (4096,), "RDMA put").at(4096) \
        == rdma.at(4096)


def test_ext_rdma_collective_scaling(benchmark):
    result = run_once(benchmark, FIGURES["ext_rdma"])
    ns = result.values

    for n in (2, 4, 8, 16):
        assert ns[f"nic-barrier/{n}"] < ns[f"host-barrier/{n}"], f"barrier n={n}"
        assert ns[f"nic-bcast/{n}"] < ns[f"host-bcast/{n}"], f"bcast n={n}"
    # Both barriers run log2(n) dissemination rounds; the NIC's growth
    # from 2 to 16 nodes is well under half the host's because each
    # firmware round costs collective_step_ns + a hop, not a full
    # per-message software crossing at both ends.  Same story for the
    # broadcast trees.
    for op in ("barrier", "bcast"):
        nic_growth = ns[f"nic-{op}/16"] - ns[f"nic-{op}/2"]
        host_growth = ns[f"host-{op}/16"] - ns[f"host-{op}/2"]
        assert nic_growth < 0.5 * host_growth, op
    # Simulation determinism: a regenerated point reproduces exactly.
    assert measure(PRESETS["pingpong-fm2"], pattern="nic-barrier", n_nodes=8,
                   msg_bytes=4096, iterations=10).latency_ns \
        == ns["nic-barrier/8"]
