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
from repro.bench.report import HeadlineRow, headline_table
from repro.dataflow.engine import PipelineScenario
from repro.workloads.runner import run_scenario


def scatter_gather(**overrides):
    """A saturating scatter/gather pipeline: offered load far above lane
    capacity, so throughput reads back the pipeline's actual capacity."""
    spec = dict(
        name="ext-dataflow", kind="pipeline", pipeline="scatter_gather",
        arrival="open-fixed", n_nodes=7, n_sources=2, branches=4,
        rate_rps=2_000_000.0, n_requests=400, req_bytes=64,
        work_ns=4_000, n_keys=64, queue_capacity=16,
    )
    spec.update(overrides)
    return run_scenario(PipelineScenario(**spec))["results"]


def test_ext_dataflow_placement_throughput(benchmark, show):
    def regenerate():
        return {
            "spread": scatter_gather(),
            "colocate": scatter_gather(stage_placement="colocate",
                                       n_nodes=2),
        }

    results = run_once(benchmark, regenerate)
    show(headline_table(
        "Extension — dataflow throughput vs stage placement", [
            HeadlineRow(f"{placement} ({r['throughput_rps'] / 1e3:.0f}k "
                        "records/s)", "-",
                        f"p99 {r['latency']['p99_ns'] / 1e3:.0f} us")
            for placement, r in results.items()
        ]))

    spread, coloc = results["spread"], results["colocate"]
    for r in results.values():
        assert r["conservation"]["ok"]
        assert r["records"]["dropped"] == 0
    # Compute-bound lanes: one node per stage beats 4 lanes folded onto
    # 2 source nodes by well over 1.5x (measured ~1.8x).
    assert spread["throughput_rps"] > 1.5 * coloc["throughput_rps"]
    # What colocation buys instead: most hops never touch the fabric.
    assert any(e["local"] for e in coloc["edges"])
    assert all(not e["local"] for e in spread["edges"])


def test_ext_dataflow_queue_depth_throughput(benchmark, show):
    depths = (1, 2, 16, 64)

    def regenerate():
        return {depth: scatter_gather(queue_capacity=depth)
                for depth in depths}

    results = run_once(benchmark, regenerate)
    show(headline_table(
        "Extension — dataflow throughput vs bounded-queue depth", [
            HeadlineRow(f"capacity {depth:>2} "
                        f"({r['throughput_rps'] / 1e3:.0f}k records/s)",
                        "flat",
                        f"p99 {r['latency']['p99_ns'] / 1e3:.0f} us")
            for depth, r in results.items()
        ]))

    throughputs = [r["throughput_rps"] for r in results.values()]
    # Zero drops at every depth: backpressure, not buffering, is what
    # keeps records safe — even a depth-1 queue loses nothing.
    for r in results.values():
        assert r["records"]["dropped"] == 0
        assert r["conservation"]["ok"]
    # The bottleneck lane's service rate sets throughput; queue depth
    # only chooses where records wait (flat within a few percent).
    assert max(throughputs) < 1.1 * min(throughputs)
    # What deep queues do cost: records queue longer ahead of the
    # bottleneck — buffer bloat shows up in the delivered tail.
    assert (results[64]["latency"]["p99_ns"]
            > 1.2 * results[2]["latency"]["p99_ns"])
    # Backpressure is doing the pacing at every depth.
    assert all(r["credit_stalls"] > 0 for r in results.values())
