"""The named scenarios the CLI, the smoke tests and the goldens run.

:data:`PRESETS` maps a name to a ready-made scenario of its kind's class,
:data:`PRESET_DESCRIPTIONS` holds the one-liner ``--list-presets`` prints
for it, and :data:`PRESET_PLANS` the fault plan that belongs with it
(composed automatically by the CLI).  Every preset has a golden report under
``tests/golden/`` — add one with ``python tests/golden/regen.py``.
"""

from __future__ import annotations

from repro.bench.micro import MicroScenario
from repro.dataflow.engine import PipelineScenario
from repro.faults.plan import FaultPlan, NicStall
from repro.workloads.apps import AllreduceScenario, HaloScenario
from repro.workloads.rdma import RdmaScenario
from repro.workloads.rpc_kind import RpcScenario

#: Named scenarios the CLI (and the smoke tests) run out of the box.
PRESETS = {
    "rpc-open": RpcScenario(
        name="rpc-open", arrival="open", rate_rps=20_000.0, n_requests=60),
    "rpc-closed": RpcScenario(
        name="rpc-closed", arrival="closed", think_ns=10_000,
        n_requests=60),
    "rpc-incast": RpcScenario(
        name="rpc-incast", arrival="bursty", n_nodes=6, rate_rps=50_000.0,
        n_requests=40, policy="shed", queue_capacity=8),
    # Saturating 4-shard fan-out: offered load (6 clients x 80k) well past
    # aggregate capacity, so delivered throughput reads as capacity and the
    # per-shard sections show the consistent-hash split.
    "rpc-sharded": RpcScenario(
        name="rpc-sharded", arrival="open", n_nodes=10, servers=4,
        balancer="static", rate_rps=80_000.0, n_requests=40, req_bytes=256,
        resp_bytes=256, work_ns=0),
    # Same traffic with Zipf-skewed keys: the static ring's hot shard shows
    # up in the report's imbalance ratio (least_pending flattens it).
    "rpc-sharded-skew": RpcScenario(
        name="rpc-sharded-skew", arrival="open", n_nodes=10, servers=4,
        balancer="static", key_skew=1.2, rate_rps=80_000.0, n_requests=40,
        req_bytes=256, resp_bytes=256, work_ns=0),
    # Sharded run with telemetry armed: windowed time series plus
    # availability / p99-latency SLOs.  Healthy, the run stays inside
    # budget; a NicStall on a server node (``--nic-stall
    # 1:2000000:6000000:120000`` from the CLI) makes clients abandon
    # into that shard and the burn-rate detector fires a breach inside
    # the stall window.
    "rpc-sharded-slo": RpcScenario(
        name="rpc-sharded-slo", arrival="open", n_nodes=10, servers=4,
        balancer="static", rate_rps=40_000.0, n_requests=40, req_bytes=256,
        resp_bytes=256, work_ns=0, abandon_after_ns=400_000,
        sample_interval_ns=200_000, slo_availability=0.99,
        slo_latency_p99_ns=250_000),
    # Grouped-fabric smoke scenario: 8 nodes over 2 crossbar groups
    # joined by a 4 us trunk, 2 shards striped one per group, so about
    # half the requests cross the trunk.
    "rpc-partitioned": RpcScenario(
        name="rpc-partitioned", arrival="open", n_nodes=8,
        partition_groups=2, servers=2, balancer="static", rate_rps=20_000.0,
        n_requests=40, req_bytes=128, resp_bytes=128, work_ns=2_000),
    # The headline 10^5-client scenario: 100k simulated open-loop clients
    # collapsed onto 12 generator nodes via AggregateOpenLoop, feeding 4
    # shards striped over 4 groups, one request per simulated client.
    # Aggregate offered load 250k rps (~55% of the fabric's measured
    # ~440k rps knee) over a ~400 ms horizon; about a minute of host time.
    "rpc-aggregate-100k": RpcScenario(
        name="rpc-aggregate-100k", arrival="open", n_nodes=16,
        partition_groups=4, trunk_propagation_ns=8_000, servers=4,
        balancer="static", population=100_000, rate_rps=2.5, n_requests=1,
        req_bytes=64, resp_bytes=64, work_ns=1_000, workers=4,
        queue_capacity=64),
    # The replication headline: 4 shards with R=2 ring-successor
    # placement, 5 closed-loop clients, a supervisor probing every 150 us,
    # and (via PRESET_PLANS) a 3 ms NicStall blacking out node 1's NIC.
    # Clients fail timed-out requests over to the backup replica, so
    # availability inside the fault window stays >= 0.99 — the
    # ``fault_windows`` report section is the number to read.
    "rpc-replicated-failover": RpcScenario(
        name="rpc-replicated-failover", arrival="closed", n_nodes=10,
        servers=4, replicas=2, balancer="static", think_ns=30_000,
        n_requests=150, req_bytes=256, resp_bytes=256, work_ns=0,
        abandon_after_ns=400_000, probe_interval_ns=150_000,
        failover_timeout_ns=250_000, sample_interval_ns=250_000,
        slo_availability=0.99),
    # The unreplicated control: same clients (nodes 4..8, so identical
    # key/arrival draws), same NicStall window, R=1 — the stalled shard's
    # key range blacks out (clients burn the abandon budget per hit) and
    # fault-window availability craters.  Diff against the preset above.
    "rpc-sharded-blackout": RpcScenario(
        name="rpc-sharded-blackout", arrival="closed", n_nodes=9, servers=4,
        balancer="static", think_ns=30_000, n_requests=150, req_bytes=256,
        resp_bytes=256, work_ns=0, abandon_after_ns=400_000,
        sample_interval_ns=250_000, slo_availability=0.99),
    "mpi-halo": HaloScenario(
        name="mpi-halo", iterations=30, halo_bytes=256, compute_ns=5_000),
    # One-sided transport smoke: 40 pingpong rounds of 4 KB RDMA puts
    # between two nodes.  The report's ``transport_errors`` section is
    # the CI gate — any unmatched-region or corrupt-offload drop on any
    # NIC fails the build.
    "rdma-pingpong": RdmaScenario(
        name="rdma-pingpong", n_nodes=2, iterations=40, req_bytes=4096),
    "mpi-allreduce": AllreduceScenario(
        name="mpi-allreduce", iterations=20, grad_bytes=4096,
        compute_ns=10_000),
    # The dataflow headline: 3 open-loop sources -> 4 hash-partitioned
    # lanes of 200 us tumbling sum-rollup -> gathered sink, one stage per
    # node (spread).  900 source records over ~3 ms; the report's
    # conservation section proves sum(sink counts) == records emitted.
    "dataflow-rollup": PipelineScenario(
        name="dataflow-rollup", pipeline="rollup", arrival="open", n_nodes=8,
        n_sources=3, branches=4, rate_rps=100_000.0, n_requests=300,
        req_bytes=64, work_ns=500, window_ns=200_000, partition_by="hash",
        n_keys=32, queue_capacity=16),
    # The load-balancing shape: 2 sources round-robin-scattered over 4
    # map lanes (2 us per-record demand) and gathered into one sink.
    "dataflow-scatter-gather": PipelineScenario(
        name="dataflow-scatter-gather", pipeline="scatter_gather",
        arrival="open", n_nodes=7, n_sources=2, branches=4,
        rate_rps=150_000.0, n_requests=400, req_bytes=64, work_ns=2_000,
        n_keys=64, queue_capacity=16),
    # The rollup under fire: PRESET_PLANS stalls node 4 (interior window
    # lane 1) 20 us/packet for 2 ms.  Backpressure, not loss: the stall
    # surfaces as source-side credit stalls in the per-stage telemetry,
    # conservation still holds, and until_ns turns any hang into a loud
    # TimeoutError instead of a wedged run.
    "dataflow-rollup-stall": PipelineScenario(
        name="dataflow-rollup-stall", pipeline="rollup", arrival="open",
        n_nodes=8, n_sources=3, branches=4, rate_rps=100_000.0,
        n_requests=300, req_bytes=64, work_ns=500, window_ns=200_000,
        partition_by="hash", n_keys=32, queue_capacity=16,
        until_ns=50_000_000),
    # The paper's microbenchmarks: Figures 3-6 run them at every size.
    "journey-fm1": MicroScenario(name="journey-fm1", machine="sparc",
                                 fm_version=1, pattern="journey"),
    "journey-fm2": MicroScenario(name="journey-fm2", pattern="journey"),
    "stream-fm1": MicroScenario(name="stream-fm1", machine="sparc",
                                fm_version=1, n_requests=40, msg_bytes=1024),
    "stream-fm2": MicroScenario(name="stream-fm2", n_requests=40,
                                msg_bytes=1024),
    "pingpong-fm2": MicroScenario(name="pingpong-fm2", iterations=20,
                                  pattern="fm-pingpong"),
    "mpi-stream-fm2": MicroScenario(name="mpi-stream-fm2", n_requests=30,
                                    pattern="mpi-stream", msg_bytes=1024),
}

#: One-line description per preset — what ``--list-presets`` prints
#: (tests enforce full coverage of :data:`PRESETS`).
PRESET_DESCRIPTIONS = {
    "rpc-open": "open-loop Poisson RPC against a single server",
    "rpc-closed": "closed-loop (think-time) RPC against a single server",
    "rpc-incast": "bursty 5-client incast onto a shedding server",
    "rpc-sharded": "saturating fan-out over 4 consistent-hash shards",
    "rpc-sharded-skew": "4 shards under Zipf(1.2) hot-key skew",
    "rpc-sharded-slo": "sharded RPC with time-series + SLO burn-rate "
                       "telemetry armed",
    "rpc-partitioned": "2 shards striped over a 2-group switch mesh "
                       "joined by a 4 us trunk",
    "rpc-aggregate-100k": "100k simulated open-loop clients on 12 "
                          "generator nodes, 4 shards over a 4-group mesh",
    "rpc-replicated-failover": "R=2 replicated shards + supervisor riding "
                               "out a built-in NIC stall",
    "rpc-sharded-blackout": "unreplicated control for the failover preset "
                            "(same stall, availability craters)",
    "mpi-halo": "MPI halo-exchange stencil over FM",
    "rdma-pingpong": "one-sided RDMA put pingpong (CI transport smoke: "
                     "zero-error gate)",
    "mpi-allreduce": "data-parallel allreduce training step over FM",
    "dataflow-rollup": "3 sources -> 4 hash lanes of windowed sum-rollup "
                       "-> sink, spread placement",
    "dataflow-scatter-gather": "2 sources round-robin-scattered over 4 "
                               "map lanes, gathered into one sink",
    "dataflow-rollup-stall": "the rollup with a built-in NIC stall on an "
                             "interior lane (backpressure, zero drops)",
    "journey-fm1": "one 16 B FM 1.x message, stage by stage",
    "journey-fm2": "one 16 B FM 2.x message, stage by stage",
    "stream-fm1": "40 x 1 KB raw FM 1.x stream (a Figure 3/4 point)",
    "stream-fm2": "40 x 1 KB raw FM 2.x stream (a Figure 5/6 point)",
    "pingpong-fm2": "20 round trips of 16 B on raw FM 2.x",
    "mpi-stream-fm2": "30 x 1 KB MPI-FM 2.x stream (a Figure 6 point)",
}

#: The NicStall window both fault presets compose: node 1's NIC takes an
#: extra 400 us per packet for 3 ms — long past the failover timeout, so
#: the shard on node 1 is effectively dead for the window.
_FAILOVER_STALL = NicStall(node=1, start_ns=2_000_000, end_ns=5_000_000,
                           extra_ns=400_000)

#: Fault plans that belong with a preset: the CLI composes these
#: automatically (unless overridden with --nic-stall / --no-fault), so
#: ``python -m repro.workloads.run rpc-replicated-failover`` is the whole
#: failover story in one command.
PRESET_PLANS = {
    "rpc-replicated-failover": FaultPlan(seed=1,
                                         episodes=(_FAILOVER_STALL,)),
    "rpc-sharded-blackout": FaultPlan(seed=1, episodes=(_FAILOVER_STALL,)),
    # Node 4 hosts rollup lane 1 under spread placement: an interior
    # pipeline stage, not a source or the sink.  20 us per packet for 2 ms
    # slows its receive path enough that FM credits pace the sources.
    "dataflow-rollup-stall": FaultPlan(seed=1, episodes=(
        NicStall(node=4, start_ns=500_000, end_ns=2_500_000,
                 extra_ns=20_000),)),
}
