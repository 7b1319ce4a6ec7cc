"""The seven workloads of record.

Each workload is a fixed-size deterministic simulation: sizes are the
constants below, not flags.  An *op* is the unit of user-visible work and is
fixed by the inputs (items, messages, requests, records) — never by event or
packet counts — so a change that removes events is not punished.

A workload has ``setup(seed)`` (parse specs, generate the seeded inputs,
build the first ``Cluster`` / ``Environment``) and ``run(state, rec)`` which
simulates one pass and returns a :class:`PassResult`.  ``--seed`` feeds
``Scenario.seed`` (arrivals, keys) where the workload has a scenario and the
payload bytes everywhere else; simulated timing of the fixed-size sweeps does
not depend on payload content, which the digests show.

Only these public names of the program under test are used (README lists
them as pinned): ``Environment``, ``Store``, ``Cluster``, ``PPRO_FM2``,
``SPARC_FM1``, ``Scenario.from_dict``, ``execute_scenario``,
``build_mpi_world``, ``RdmaEndpoint``, ``NicCollectives``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from repro import PPRO_FM2, SPARC_FM1, Cluster
from repro.simkernel import Environment, Store
from repro.workloads.runner import Scenario, execute_scenario

import drivers

HERE = Path(__file__).resolve().parent
PAPER_REFERENCE = json.loads((HERE / "paper_reference.json").read_text())

# -- sizes (constants, not flags) ---------------------------------------------
#: The paper's Fig 4/5/6 x-axis.
SWEEP_SIZES = (16, 32, 64, 128, 256, 512, 1024, 2048)
LATENCY_BYTES = 16

KERNEL_ITEMS = 120_000
KERNEL_STORE_CAPACITY = 4
KERNEL_PRODUCE_NS = 5
KERNEL_RELAY_NS = 3
KERNEL_RELAYS = 3
#: One machine word per item: the chain moves references, this is only the
#: factor that turns items/s into the byte rate every workload reports.
KERNEL_ITEM_BYTES = 8

FM_STREAM_MESSAGES = 160
FM_PINGPONG_ITERATIONS = 160
FM_LARGE_SIZES = (8 * 1024, 64 * 1024)
FM_LARGE_MESSAGES = 24

RDMA_PUT_SIZES = (64, 256, 1024, 4096, 16 * 1024, 64 * 1024)
RDMA_PUT_MESSAGES = 160
RDMA_GET_BYTES = 4096
RDMA_GET_MESSAGES = 160
RDMA_BARRIER_NODES = 8
RDMA_BARRIERS = 30

MPI_STREAM_MESSAGES = 160
MPI_PINGPONG_ITERATIONS = 160
#: Raw FM 2.x points the efficiency ratio is taken against.
MPI_EFFICIENCY_SIZES = (16, 2048)


def scaled(value: int, scale: float) -> int:
    """``value`` shrunk for the tests (``scale`` is 1.0 in every real run)."""
    return max(4, int(value * scale))


# -- helpers --------------------------------------------------------------------
def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def digest(obj) -> str:
    """sha-256 of the pass's deterministic output."""
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


def percentiles(samples, *ps: float) -> list[float]:
    """Nearest-rank percentiles (the convention of the program's
    reservoirs), one sort for all of them."""
    ordered = sorted(samples)
    return [ordered[max(0, math.ceil(p * len(ordered)) - 1)] for p in ps]


def percentile(samples, p: float) -> float:
    return percentiles(samples, p)[0]


def payload(seed: int, nbytes: int) -> bytes:
    return random.Random(seed * 1_000_003 + nbytes).randbytes(nbytes)


def n_half(sizes, bandwidths) -> float:
    """Size at which bandwidth first reaches half its peak, interpolated
    linearly in log2(size) — the paper's N-half.  (Kept here, like the
    drivers, so nothing under ``repro.bench`` is pinned by the benchmark.)"""
    half = max(bandwidths) / 2.0
    if bandwidths[0] >= half:
        return float(sizes[0])
    for i in range(1, len(sizes)):
        if bandwidths[i] >= half:
            lo, hi = math.log2(sizes[i - 1]), math.log2(sizes[i])
            frac = (half - bandwidths[i - 1]) / (bandwidths[i] - bandwidths[i - 1])
            return float(2 ** (lo + frac * (hi - lo)))
    raise ValueError("bandwidth curve never reaches half of its own peak")


def paper_errors(system: str, measured: dict) -> dict[str, float]:
    """Relative error (percent) of each measured number against the paper
    reference for ``system``; the caller reports the maximum."""
    errors = {}
    for name, entry in PAPER_REFERENCE[system].items():
        if name in measured:
            ref = entry["value"]
            errors[f"{system}.{name}"] = abs(measured[name] - ref) / ref * 100.0
    return errors


@dataclass
class PassResult:
    ops: int                      # attempted, fixed by the inputs
    sim: dict                     # simulated-clock end-to-end metrics
    output: object                # deterministic output, hashed
    failures: list = field(default_factory=list)   # failed checks, by name
    extra: dict = field(default_factory=dict)      # layer metrics not in counts
    notes: dict = field(default_factory=dict)      # printed, not compared

    @property
    def sim_digest(self) -> str:
        return digest(self.output)


class Recorder:
    """What perfbench sees of one pass from outside: benchmark-level spans
    (``pass`` -> ``build`` / ``run`` / ``report``) on the host clock, and
    exact counters read off public attributes of every cluster used."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.build_s = 0.0
        self.ops = 0          # planned by the sweep workloads, via drive()
        self.done = 0         # what their drivers saw delivered
        self.failures: list[str] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **tags):
        entry = {"id": len(self.spans), "name": name,
                 "parent": self._open[-1] if self._open else None,
                 "start": perf_counter(), "end": None, **tags}
        self.spans.append(entry)
        self._open.append(entry["id"])
        try:
            yield entry
        finally:
            self._open.pop()
            entry["end"] = perf_counter()

    def cluster(self, n_nodes: int, machine, fm_version: int) -> Cluster:
        with self.span("build", nodes=n_nodes) as entry:
            cluster = Cluster(n_nodes, machine=machine, fm_version=fm_version)
        self.build_s += entry["end"] - entry["start"]
        return cluster

    def drive(self, n_nodes: int, machine, fm_version: int, driver,
              planned: int, label: str, **tags):
        """One point of a sweep: build a fresh cluster, run ``driver`` on it
        in a ``run`` span, take its counters, and book ``planned`` ops
        against what the driver saw done (``label`` names its check)."""
        cluster = self.cluster(n_nodes, machine, fm_version)
        with self.span("run", **tags):
            result = driver(cluster)
        self.absorb(cluster)
        self.ops += planned
        self.done += result.messages
        if not result.check:
            self.failures.append(label)
        return result

    def checked(self, label: str) -> list[str]:
        """The failed checks, with ``label`` added if ops went missing."""
        missing = [label] if self.done != self.ops else []
        return self.failures + missing

    def absorb(self, cluster: Cluster) -> None:
        """Add one finished cluster's counters."""
        counts = self.counts
        counts["events"] += cluster.env.scheduled_events
        counts["sim_ns"] += cluster.env.now
        for node in cluster.nodes:
            nic, fm, meter = node.nic, node.fm, node.cpu.meter
            counts["packets"] += nic.sent_packets
            counts["nic_unmatched"] += nic.rdma_unmatched
            counts["nic_corrupt"] += (nic.corrupt_offload_packets
                                      + nic.corrupt_control_packets)
            counts["copies"] += meter.copies
            counts["copy_bytes"] += meter.bytes
            counts["fm_packets"] += fm.stats_sent_packets
            counts["fm_credit_packets"] += fm.stats_credit_packets
            counts["fm_credit_stalls"] += fm.stats_credit_stalls
            counts["fm_credit_stall_ns"] += fm.stats_credit_stall_ns


def load_spec(name: str, seed: int, scale: float = 1.0) -> Scenario:
    spec = json.loads((HERE / "specs" / f"{name}.json").read_text())
    scenario = Scenario.from_dict({**spec, "seed": seed})
    if scale != 1.0:
        scenario = replace(
            scenario, n_requests=scaled(scenario.n_requests, scale),
            iterations=scaled(scenario.iterations, scale))
    return scenario


def run_scenario(rec: Recorder, scenario: Scenario, observe: bool = False):
    with rec.span("run", scenario=scenario.name):
        outcome = execute_scenario(scenario, observe=observe)
    rec.absorb(outcome.cluster)
    return outcome


# -- kernel_chain ---------------------------------------------------------------
class KernelChain:
    name = "kernel_chain"
    op = "item"

    def setup(self, seed: int, scale: float = 1.0):
        rng = random.Random(seed)
        items = [rng.getrandbits(30) for _ in range(scaled(KERNEL_ITEMS, scale))]
        Environment()
        return items

    def run(self, items, rec: Recorder) -> PassResult:
        n = len(items)
        with rec.span("build"):
            env = Environment()
            stores = [Store(env, capacity=KERNEL_STORE_CAPACITY)
                      for _ in range(KERNEL_RELAYS + 1)]
        entered: list[int] = []
        left: list[int] = []
        received: list[int] = []

        def producer(env):
            for item in items:
                yield env.timeout(KERNEL_PRODUCE_NS)
                entered.append(env.now)
                yield stores[0].put(item)

        def relay(env, src, dst):
            while True:
                item = yield src.get()
                yield env.timeout(KERNEL_RELAY_NS)
                yield dst.put(item)

        def consumer(env):
            for _ in range(n):
                received.append((yield stores[-1].get()))
                left.append(env.now)

        with rec.span("run"):
            env.process(producer(env))
            for src, dst in zip(stores, stores[1:]):
                env.process(relay(env, src, dst))
            env.run(until=env.process(consumer(env)))
        with rec.span("report"):
            rec.counts["events"] += env.scheduled_events
            rec.counts["sim_ns"] += env.now
            # Stores are FIFO, so the i-th arrival is the i-th departure.
            sojourn = [b - a for a, b in zip(entered, left)]
            sim_s = env.now / 1e9
            p50, p99 = percentiles(sojourn, 0.50, 0.99)
            sim = {
                "sim_latency_us": p50 / 1e3,
                "sim_p99_us": p99 / 1e3,
                "sim_ops_per_s": n / sim_s,
                "sim_mbps": n * KERNEL_ITEM_BYTES / sim_s / 1e6,
            }
            failures = [] if received == items else ["items_out_of_order"]
        return PassResult(
            ops=n, sim=sim, failures=failures,
            output=[env.now, env.scheduled_events, sum(sojourn)],
            notes={"latency_samples": n})


# -- fm_sweep -------------------------------------------------------------------
class FmSweep:
    name = "fm_sweep"
    op = "message delivered to its handler"

    def setup(self, seed: int, scale: float = 1.0):
        Cluster(2, machine=PPRO_FM2, fm_version=2)
        sizes = SWEEP_SIZES + FM_LARGE_SIZES
        return {"payloads": {size: payload(seed, size) for size in sizes},
                "scale": scale}

    def run(self, state, rec: Recorder) -> PassResult:
        payloads, scale = state["payloads"], state["scale"]
        n_stream = scaled(FM_STREAM_MESSAGES, scale)
        n_large = scaled(FM_LARGE_MESSAGES, scale)
        n_pingpong = scaled(FM_PINGPONG_ITERATIONS, scale)
        machines = {1: SPARC_FM1, 2: PPRO_FM2}

        def stream(version, size, n):
            return rec.drive(
                2, machines[version], version,
                lambda cluster: drivers.fm_stream(cluster, payloads[size], n),
                n, f"fm{version}_stream_{size}B_payload",
                fm=version, bytes=size).mbps

        curves, pingpongs = {}, {}
        for version in (1, 2):
            curves[version] = {size: stream(version, size, n_stream)
                               for size in SWEEP_SIZES}
            pingpongs[version] = rec.drive(
                2, machines[version], version,
                lambda cluster: drivers.fm_pingpong(
                    cluster, payloads[LATENCY_BYTES], n_pingpong),
                2 * (n_pingpong + drivers.PINGPONG_WARMUP),
                f"fm{version}_pingpong_count",
                fm=version, pingpong=LATENCY_BYTES)
        large = {size: stream(2, size, n_large) for size in FM_LARGE_SIZES}

        with rec.span("report"):
            fm2 = pingpongs[2]
            measured = {
                "fm1": {"latency_us": pingpongs[1].mean_us,
                        "peak_mbps": max(curves[1].values()),
                        "n_half_bytes": n_half(SWEEP_SIZES,
                                               list(curves[1].values()))},
                "fm2": {"latency_us": fm2.mean_us,
                        "peak_mbps": max(curves[2].values())},
            }
            errors = {}
            for system, numbers in measured.items():
                errors.update(paper_errors(system, numbers))
            sim = {
                "sim_latency_us": fm2.mean_us,
                "sim_p99_us": percentile(fm2.samples_ns, 0.99) / 1e3,
                "sim_ops_per_s": rec.ops / (rec.counts["sim_ns"] / 1e9),
                "sim_mbps": measured["fm2"]["peak_mbps"],
                "paper_err_pct": max(errors.values()),
            }
        return PassResult(
            ops=rec.ops, sim=sim, failures=rec.checked("messages_delivered"),
            output=[curves, large, measured, fm2.samples_ns],
            notes={"paper_errors_pct": errors, "fm2_large_mbps": large,
                   "fm2_n_half_bytes": n_half(SWEEP_SIZES,
                                              list(curves[2].values())),
                   "latency_samples": len(fm2.samples_ns)})


# -- rdma_put -------------------------------------------------------------------
class RdmaPut:
    name = "rdma_put"
    op = "RDMA op / barrier completed"

    def setup(self, seed: int, scale: float = 1.0):
        Cluster(2, machine=PPRO_FM2, fm_version=2)
        sizes = set(RDMA_PUT_SIZES) | {RDMA_GET_BYTES}
        return {"payloads": {size: payload(seed, size) for size in sizes},
                "scale": scale}

    def run(self, state, rec: Recorder) -> PassResult:
        payloads, scale = state["payloads"], state["scale"]
        n_put = scaled(RDMA_PUT_MESSAGES, scale)
        n_get = scaled(RDMA_GET_MESSAGES, scale)
        n_barrier = scaled(RDMA_BARRIERS, scale)
        curve = {
            size: rec.drive(
                2, PPRO_FM2, 2,
                lambda cluster: drivers.rdma_put_stream(
                    cluster, payloads[size], n_put),
                n_put, f"put_{size}B_landing", put=size).mbps
            for size in RDMA_PUT_SIZES}
        get = rec.drive(
            2, PPRO_FM2, 2,
            lambda cluster: drivers.rdma_get_stream(
                cluster, payloads[RDMA_GET_BYTES], n_get),
            n_get, "get_landing", get=RDMA_GET_BYTES)
        barrier = rec.drive(
            RDMA_BARRIER_NODES, PPRO_FM2, 2,
            lambda cluster: drivers.nic_barriers(cluster, n_barrier),
            n_barrier + 1, "barrier_count", barriers=n_barrier)

        with rec.span("report"):
            failures = rec.checked("ops_completed")
            if rec.counts["nic_unmatched"] or rec.counts["nic_corrupt"]:
                failures.append("nic_unmatched_or_corrupt")
            sim = {
                "sim_latency_us": barrier.mean_us,
                "sim_p99_us": percentile(barrier.samples_ns, 0.99) / 1e3,
                "sim_ops_per_s": rec.ops / (rec.counts["sim_ns"] / 1e9),
                "sim_mbps": max(curve.values()),
            }
        return PassResult(
            ops=rec.ops, sim=sim, failures=failures,
            output=[curve, get.mbps, barrier.samples_ns],
            notes={"put_mbps": curve, "get_mbps": get.mbps,
                   "latency_samples": len(barrier.samples_ns),
                   "paper_err_pct": "unvalidated"})


# -- mpi_sweep ------------------------------------------------------------------
class MpiSweep:
    name = "mpi_sweep"
    op = "message received / rank-iteration"

    def setup(self, seed: int, scale: float = 1.0):
        Cluster(2, machine=PPRO_FM2, fm_version=2)
        return {"payloads": {size: payload(seed, size)
                             for size in SWEEP_SIZES},
                "halo": load_spec("mpi_halo", seed, scale),
                "allreduce": load_spec("mpi_allreduce", seed, scale),
                "scale": scale}

    def run(self, state, rec: Recorder) -> PassResult:
        payloads, scale = state["payloads"], state["scale"]
        n_stream = scaled(MPI_STREAM_MESSAGES, scale)
        n_pingpong = scaled(MPI_PINGPONG_ITERATIONS, scale)
        streams = {
            size: rec.drive(
                2, PPRO_FM2, 2,
                lambda cluster: drivers.mpi_stream(
                    cluster, payloads[size], n_stream),
                n_stream, f"mpi_stream_{size}B_payload", mpi_stream=size)
            for size in SWEEP_SIZES}
        curve = {size: result.mbps for size, result in streams.items()}
        pp = rec.drive(
            2, PPRO_FM2, 2,
            lambda cluster: drivers.mpi_pingpong(
                cluster, payloads[LATENCY_BYTES], n_pingpong),
            2 * (n_pingpong + drivers.PINGPONG_WARMUP),
            "mpi_pingpong_payload", mpi_pingpong=LATENCY_BYTES)
        raw = {
            size: rec.drive(
                2, PPRO_FM2, 2,
                lambda cluster: drivers.fm_stream(
                    cluster, payloads[size], n_stream),
                n_stream, f"fm2_stream_{size}B_payload", fm_stream=size).mbps
            for size in MPI_EFFICIENCY_SIZES}
        reports = {}
        for kind in ("halo", "allreduce"):
            scenario = state[kind]
            report = run_scenario(rec, scenario).report
            results = report["results"]
            rank_iterations = scenario.n_nodes * scenario.iterations
            rec.ops += rank_iterations
            # Rank 0 records one sample per iteration; every rank ran them.
            if (results["completed"] == scenario.iterations
                    and results["drops"]["total"] == 0):
                rec.done += rank_iterations
            else:
                rec.failures.append(f"{kind}_iterations")
            reports[kind] = report

        with rec.span("report"):
            efficiency = {size: curve[size] / raw[size] * 100.0
                          for size in MPI_EFFICIENCY_SIZES}
            measured = {"latency_us": pp.mean_us,
                        "peak_mbps": max(curve.values()),
                        "eff_pct_16B": efficiency[16],
                        "eff_pct_2048B": efficiency[2048]}
            errors = paper_errors("mpi_fm2", measured)
            sim = {
                "sim_latency_us": pp.mean_us,
                "sim_p99_us": percentile(pp.samples_ns, 0.99) / 1e3,
                "sim_ops_per_s": rec.ops / (rec.counts["sim_ns"] / 1e9),
                "sim_mbps": measured["peak_mbps"],
                "sim_layer_eff_pct": min(efficiency.values()),
                "paper_err_pct": max(errors.values()),
            }
            extra = {
                "upper.mpi.unexpected": sum(
                    r.unexpected for r in streams.values()),
                "upper.mpi.spills": sum(r.spills for r in streams.values()),
                "upper.mpi.rendezvous": sum(
                    r.rendezvous for r in streams.values()),
                "upper.mpi.eff_pct_16B": efficiency[16],
                "upper.mpi.eff_pct_2048B": efficiency[2048]}
        return PassResult(
            ops=rec.ops, sim=sim, failures=rec.checked("messages_received"),
            extra=extra, output=[curve, raw, pp.samples_ns, reports],
            notes={"paper_errors_pct": errors,
                   "latency_samples": len(pp.samples_ns),
                   "halo_p50_us":
                       reports["halo"]["results"]["latency"]["p50_ns"] / 1e3,
                   "allreduce_p50_us":
                       reports["allreduce"]["results"]["latency"]["p50_ns"]
                       / 1e3})


# -- rpc_sharded / rpc_sharded_obs ----------------------------------------------
class RpcSharded:
    name = "rpc_sharded"
    op = "request completed"
    observe = False
    specs = ("rpc_uniform", "rpc_zipf")

    def setup(self, seed: int, scale: float = 1.0):
        scenarios = [load_spec(name, seed, scale) for name in self.specs]
        first = scenarios[0]
        Cluster(first.n_nodes, machine=PPRO_FM2, fm_version=first.fm_version)
        return {"scenarios": scenarios, "reference": None}

    def simulate(self, scenarios, rec: Recorder, observe: bool):
        outcomes = [run_scenario(rec, scenario, observe=observe)
                    for scenario in scenarios]
        return outcomes, [outcome.report for outcome in outcomes]

    def run(self, state, rec: Recorder) -> PassResult:
        outcomes, reports = self.simulate(state["scenarios"], rec,
                                          self.observe)
        with rec.span("report"):
            failures = []
            ops = completed = 0
            for scenario, report in zip(state["scenarios"], reports):
                results = report["results"]
                n_clients = scenario.n_nodes - scenario.servers
                ops += n_clients * scenario.n_requests
                completed += results["completed"]
                if results["completed"] + results["drops"]["total"] \
                        != results["sent"]:
                    failures.append(f"{scenario.name}_accounting")
                if results["drops"]["total"]:
                    failures.append(f"{scenario.name}_drops")
            if completed != ops:
                failures.append("requests_completed")
            if state["reference"] is not None \
                    and reports != state["reference"]:
                failures.append("report_differs_from_unobserved")
            uniform = reports[0]["results"]
            sim_s = sum(r["results"]["elapsed_ns"] for r in reports) / 1e9
            sim = {
                "sim_latency_us": uniform["latency"]["p50_ns"] / 1e3,
                "sim_p99_us": uniform["latency"]["p99_ns"] / 1e3,
                "sim_ops_per_s": completed / sim_s,
                "sim_mbps": sum(r["results"]["goodput_mbs"]
                                * r["results"]["elapsed_ns"]
                                for r in reports) / (sim_s * 1e9),
            }
            extra = {
                "workloads.queue_wait_p99_sim_us": max(
                    r["results"]["queue_wait"]["p99_ns"] for r in reports) / 1e3,
                "workloads.queue_depth_max": max(
                    r["results"]["queue_depth_max"] for r in reports),
                "workloads.drops": sum(
                    r["results"]["drops"]["total"] for r in reports),
                "obs.spans": sum(len(o.observer) for o in outcomes
                                 if o.observer is not None),
            }
        return PassResult(
            ops=ops, sim=sim, failures=failures, extra=extra, output=reports,
            notes={"latency_samples": uniform["latency"]["count"],
                   "zipf_p99_us": reports[1]["results"]["latency"]["p99_ns"] / 1e3,
                   "zipf_imbalance": reports[1]["results"]["imbalance"],
                   "paper_err_pct": "unvalidated"})


class RpcShardedObs(RpcSharded):
    name = "rpc_sharded_obs"
    observe = True

    def reference(self, state, rec: Recorder) -> None:
        """One pass with the observer off: the report every observed pass
        must equal (the caller times it as the base of ``obs.overhead_x``)."""
        _outcomes, state["reference"] = self.simulate(state["scenarios"],
                                                      rec, False)


# -- dataflow_rollup ------------------------------------------------------------
class DataflowRollup:
    name = "dataflow_rollup"
    op = "source record accounted for at the sink"
    specs = ("dataflow_rollup", "dataflow_scatter_gather")

    def setup(self, seed: int, scale: float = 1.0):
        scenarios = [load_spec(name, seed, scale) for name in self.specs]
        first = scenarios[0]
        Cluster(first.n_nodes, machine=PPRO_FM2, fm_version=first.fm_version)
        return {"scenarios": scenarios}

    def run(self, state, rec: Recorder) -> PassResult:
        reports = [run_scenario(rec, scenario).report
                   for scenario in state["scenarios"]]
        with rec.span("report"):
            failures = []
            ops = accounted = 0
            for scenario, report in zip(state["scenarios"], reports):
                results = report["results"]
                ops += scenario.n_sources * scenario.n_requests
                accounted += (results["conservation"]["sink_source_records"]
                              + results["conservation"]["filtered"])
                if not results["conservation"]["ok"]:
                    failures.append(f"{scenario.name}_conservation")
                if results["records"]["dropped"]:
                    failures.append(f"{scenario.name}_dropped")
            if accounted != ops:
                failures.append("records_accounted")
            rollup = reports[0]["results"]
            sim_s = sum(r["results"]["elapsed_ns"] for r in reports) / 1e9
            record_bytes = sum(
                s.n_sources * s.n_requests * s.req_bytes
                for s in state["scenarios"])
            sim = {
                "sim_latency_us": rollup["latency"]["p50_ns"] / 1e3,
                "sim_p99_us": rollup["latency"]["p99_ns"] / 1e3,
                "sim_ops_per_s": accounted / sim_s,
                "sim_mbps": record_bytes / sim_s / 1e6,
            }
            stages = [stage for r in reports for stage in r["results"]["stages"]]
            emitted = sum(r["results"]["records"]["emitted"] for r in reports)
            extra = {
                "dataflow.credit_stalls": sum(
                    r["results"]["credit_stalls"] for r in reports),
                "dataflow.queue_depth_max": max(
                    stage["queue_depth_max"] for stage in stages),
                "dataflow.delivered_per_emitted": sum(
                    r["results"]["records"]["delivered"]
                    for r in reports) / emitted,
            }
        return PassResult(
            ops=ops, sim=sim, failures=failures, extra=extra, output=reports,
            notes={"latency_samples": rollup["latency"]["count"],
                   "scatter_gather_p99_us":
                       reports[1]["results"]["latency"]["p99_ns"] / 1e3,
                   "paper_err_pct": "unvalidated"})


WORKLOADS = {cls.name: cls for cls in (
    KernelChain, FmSweep, RdmaPut, MpiSweep, RpcSharded, RpcShardedObs,
    DataflowRollup)}
