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

from conftest import run_once
from repro.bench.rdma_bench import (
    host_barrier_latency_ns,
    host_bcast_latency_ns,
    nic_barrier_latency_ns,
    nic_bcast_latency_ns,
    rdma_bandwidth_sweep,
)
from repro.bench.report import HeadlineRow, curve_table, headline_table
from repro.bench.sweeps import bandwidth_sweep
from repro.configs import PPRO_FM2
from repro.workloads.presets import PRESETS

SIZES = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 16384, 65536)
GROUP_SIZES = (2, 4, 8, 16)
BCAST_BYTES = 4096


def test_ext_rdma_put_bandwidth(benchmark, show):
    def regenerate():
        rdma = rdma_bandwidth_sweep(PPRO_FM2, SIZES, n_messages=40)
        fm2 = bandwidth_sweep(PRESETS["stream-fm2"], SIZES, "FM 2.x stream")
        return rdma, fm2

    rdma, fm2 = run_once(benchmark, regenerate)
    show(curve_table("Extension — one-sided put vs FM 2.x stream",
                     [rdma, fm2]))
    show(headline_table("RDMA put headline metrics", [
        HeadlineRow("peak bandwidth", "> FM 2.x",
                    f"{rdma.peak_mbs:.1f} vs {fm2.peak_mbs:.1f} MB/s"),
        HeadlineRow("N-half", "< FM 2.x",
                    f"{rdma.n_half_bytes:.0f} vs {fm2.n_half_bytes:.0f} B"),
        HeadlineRow("64 KB bandwidth", "no credit collapse",
                    f"{rdma.at(65536):.1f} vs {fm2.at(65536):.1f} MB/s"),
    ]))

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
    assert rdma_bandwidth_sweep(PPRO_FM2, (4096,),
                                n_messages=40).at(4096) == rdma.at(4096)


def test_ext_rdma_collective_scaling(benchmark, show):
    def regenerate():
        return {
            n: {
                "nic_barrier": nic_barrier_latency_ns(PPRO_FM2, n),
                "host_barrier": host_barrier_latency_ns(PPRO_FM2, n),
                "nic_bcast": nic_bcast_latency_ns(PPRO_FM2, n, BCAST_BYTES),
                "host_bcast": host_bcast_latency_ns(PPRO_FM2, n,
                                                    BCAST_BYTES),
            }
            for n in GROUP_SIZES
        }

    results = run_once(benchmark, regenerate)
    show(headline_table(
        "Extension — collective latency, host stack vs NIC firmware", [
            HeadlineRow(
                f"barrier n={n:>2}",
                f"host {r['host_barrier'] / 1e3:.1f} us",
                f"nic {r['nic_barrier'] / 1e3:.1f} us")
            for n, r in results.items()
        ] + [
            HeadlineRow(
                f"bcast 4 KB n={n:>2}",
                f"host {r['host_bcast'] / 1e3:.1f} us",
                f"nic {r['nic_bcast'] / 1e3:.1f} us")
            for n, r in results.items()
        ]))

    for n, r in results.items():
        assert r["nic_barrier"] < r["host_barrier"], f"barrier n={n}"
        assert r["nic_bcast"] < r["host_bcast"], f"bcast n={n}"
    # Both barriers run log2(n) dissemination rounds; the NIC's growth
    # from 2 to 16 nodes is well under half the host's because each
    # firmware round costs collective_step_ns + a hop, not a full
    # per-message software crossing at both ends.
    nic_growth = results[16]["nic_barrier"] - results[2]["nic_barrier"]
    host_growth = results[16]["host_barrier"] - results[2]["host_barrier"]
    assert nic_growth < 0.5 * host_growth
    # Same story for the broadcast trees.
    bcast_nic_growth = results[16]["nic_bcast"] - results[2]["nic_bcast"]
    bcast_host_growth = results[16]["host_bcast"] - results[2]["host_bcast"]
    assert bcast_nic_growth < 0.5 * bcast_host_growth
    # Simulation determinism: a regenerated point reproduces exactly.
    assert nic_barrier_latency_ns(PPRO_FM2, 8) == results[8]["nic_barrier"]
