"""Extension — streaming dataflow: placement and bounded-queue sweeps.

The paper's layering argument made flow control a *property of the
messaging layer* (credits, §4.1) rather than of every application.  The
dataflow engine leans on exactly that: stage queues are bounded, and when
one fills, FM's own credit ledger stalls the sender.  Two sweeps probe
what that buys a continuous pipeline:

* **placement** — the same scatter/gather pipeline computed on one node
  per stage (``spread``) vs folded onto the source nodes (``colocate``).
  With per-record service demand on the lanes, spread wins on raw
  throughput (lanes own their CPUs) and the gap measures what the wire
  costs relative to lost parallelism.
* **bounded-queue depth** — throughput vs per-stage queue capacity.  The
  capacity of the *bottleneck stage* sets throughput; queue depth only
  chooses where records wait.  Deeper queues buy nothing (throughput is
  flat within a few percent, zero drops at every depth) and cost tail
  latency — classic buffer bloat, reproduced on simulated hardware.
"""

from __future__ import annotations

from conftest import run_once
from repro.bench.figures import FIGURES


def test_ext_dataflow_placement_throughput(benchmark, show):
    result = run_once(benchmark, FIGURES["ext_dataflow"])
    show(result.table)
    v = result.values

    for placement in ("spread", "colocate"):
        assert v[f"{placement}/conserved"]
        assert v[f"{placement}/dropped"] == 0
    # Compute-bound lanes: one node per stage beats 4 lanes folded onto
    # 2 source nodes by well over 1.5x (measured ~1.8x).
    assert v["spread/throughput_rps"] > 1.5 * v["colocate/throughput_rps"]
    # What colocation buys instead: most hops never touch the fabric.
    assert v["colocate/local_edges"] > 0
    assert v["spread/local_edges"] == 0


def test_ext_dataflow_queue_depth_throughput(benchmark):
    result = run_once(benchmark, FIGURES["ext_dataflow"])
    depths = {depth: {key.split("/")[1]: value
                      for key, value in result.values.items()
                      if key.startswith(f"capacity {depth:>2}/")}
              for depth in (1, 2, 16, 64)}

    throughputs = [r["throughput_rps"] for r in depths.values()]
    # Zero drops at every depth: backpressure, not buffering, is what
    # keeps records safe — even a depth-1 queue loses nothing.
    for r in depths.values():
        assert r["dropped"] == 0
        assert r["conserved"]
    # The bottleneck lane's service rate sets throughput; queue depth
    # only chooses where records wait (flat within a few percent).
    assert max(throughputs) < 1.1 * min(throughputs)
    # What deep queues do cost: records queue longer ahead of the
    # bottleneck — buffer bloat shows up in the delivered tail.
    assert depths[64]["p99_ns"] > 1.2 * depths[2]["p99_ns"]
    # Backpressure is doing the pacing at every depth.
    assert all(r["credit_stalls"] > 0 for r in depths.values())
