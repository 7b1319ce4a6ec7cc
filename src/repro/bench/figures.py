"""The paper's evaluation and its extensions, each stated once.

``FIGURES[name]()`` runs one figure's measurement — once per process: the
simulator is deterministic, so a second run could only repeat the first —
and returns the :class:`FigureResult` everything downstream reads.  ``python
-m repro.bench.regen`` prints ``table`` and writes ``curves`` / ``values`` as
CSV and JSON; ``benchmarks/`` assert their bands on ``curves`` and
``values``.  The paper's figures (``fig1`` … ``scorecard``) are pinned by
``tests/golden/paper.figures.json``, the extension and ablation tables
(``ext_hops``, ``ext_latency_size``, ``ext_rdma``, ``ext_scaling``,
``ext_utilization``, ``ext_workloads``, ``ext_sharding``,
``ext_replication``, ``ext_dataflow``, ``ablation_fm2_features``) by
``tests/golden/ext.figures.json``.  A figure that needs a number another
figure measures reads that figure's result (Figure 6's baseline *is*
Figure 5's curve) or the same cached run (:func:`_report`), so
regenerating everything simulates each point once.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from functools import cache
from typing import Callable, NamedTuple, Sequence

from repro.bench.breakdown import breakdown_sweep
from repro.bench.micro import MicroScenario
from repro.bench.report import (HeadlineRow, bar_table, curve_table,
                                efficiency_table, headline_table)
from repro.bench.sweeps import (FIG3_SIZES, FIG456_SIZES, SweepResult,
                                bandwidth_sweep, measure, sweep_with)
from repro.bench.utilization import stream_utilization
from repro.cmam import COMPONENTS, CmamCostModel, SequenceKind, Side
from repro.legacy import (ETHERNET_100MBIT, ETHERNET_1GBIT,
                          FixedOverheadStack, theoretical_bandwidth_mbs)
from repro.scenario import Scenario
from repro.workloads.presets import PRESETS
from repro.workloads.runner import execute_scenario, run_scenario


class Reference(NamedTuple):
    """A headline number of the paper: its scorecard ``title``, the ``value``
    bands are asserted around, the ``text`` every "paper" column prints — it
    starts with ``<``, ``>=`` or ``~`` where the paper gives a bound, not a
    point — and the format a ``measured`` value is printed beside it in."""

    title: str
    value: float
    text: str
    measured: str


#: Keyed ``<layer>_<metric>_<unit>``, like the ``values`` that measure them
#: (an efficiency is a fraction of raw FM's bandwidth); in scorecard order.
PAPER: dict[str, Reference] = {
    "fm1_latency_us": Reference("FM 1.x latency", 14.0, "14 us", "{:.1f} us"),
    "fm1_peak_mbs": Reference("FM 1.x peak BW", 17.6, "17.6 MB/s", "{:.1f}"),
    "fm1_n_half_bytes": Reference("FM 1.x N-half", 54.0, "54 B", "{:.0f} B"),
    "fm2_latency_us": Reference("FM 2.x latency", 11.0, "11 us", "{:.1f} us"),
    "fm2_peak_mbs": Reference("FM 2.x peak BW", 77.0, "77 MB/s", "{:.1f}"),
    "fm2_n_half_bytes": Reference("FM 2.x N-half", 256.0, "< 256 B",
                                  "{:.0f} B"),
    "mpi2_latency_us": Reference("MPI-FM 2.x latency", 17.0, "17 us",
                                 "{:.1f} us"),
    "mpi2_peak_mbs": Reference("MPI-FM 2.x peak BW", 70.0, "70 MB/s",
                               "{:.1f}"),
    "mpi2_eff_16": Reference("MPI eff @ 16 B", 0.70, ">= 70%", "{:.0%}"),
    "mpi2_eff_2048": Reference("MPI eff @ 2 KB", 0.90, "~90%", "{:.0%}"),
}


@dataclass(frozen=True)
class FigureResult:
    """One regenerated figure, shared by every caller in the process."""

    #: The text ``regen`` and the benchmarks print.
    table: str
    #: The series CSV/JSON carry (none for Fig 2, journey, scorecard).
    curves: list[SweepResult] = field(default_factory=list)
    #: Every scalar a table row or a band reads.
    values: dict[str, float] = field(default_factory=dict)


def _row(title: str, key: str, measured: float,
         deviation: bool = False) -> HeadlineRow:
    """``PAPER[key]`` against ``measured``; the scorecard adds the signed
    ``deviation``, from point values only."""
    paper = PAPER[key]
    note = None
    if deviation and paper.text[0].isdigit():
        note = f"{(measured - paper.value) / paper.value:+.0%}"
    return HeadlineRow(title, paper.text, paper.measured.format(measured),
                       note)


@cache
def fig1() -> FigureResult:
    """Figure 1: Ethernet bandwidth under 125 us of protocol processing per
    packet, analytic, with the simulated stack as a cross-check at 1 KB."""
    curves = [sweep_with(lambda size, wire=wire:
                         theoretical_bandwidth_mbs(size, wire),
                         (8, 16, 32, 64, 128, 256, 512, 1024), label)
              for label, wire in (("100 Mbit/s", ETHERNET_100MBIT),
                                  ("1 Gbit/s", ETHERNET_1GBIT))]
    simulated = FixedOverheadStack(ETHERNET_1GBIT).measure_bandwidth_mbs(1024)
    return FigureResult(
        curve_table("Figure 1 — legacy stack bandwidth, 125 us/packet "
                    "overhead", curves),
        curves, {"simulated_1gbit_1024_mbs": simulated})


@cache
def fig2() -> FigureResult:
    """Figure 2: CM-5 Active Messages overhead by component, in cycles;
    ``values`` is keyed ``<sequence>/<side>/<component or TOTAL>``."""
    model = CmamCostModel(message_words=16, packet_words=4)
    groups = [("finite/src", SequenceKind.FINITE, Side.SRC),
              ("finite/dest", SequenceKind.FINITE, Side.DEST),
              ("finite/total", SequenceKind.FINITE, Side.TOTAL),
              ("indef/total", SequenceKind.INDEFINITE, Side.TOTAL),
              ("indef/dest", SequenceKind.INDEFINITE, Side.DEST),
              ("indef/src", SequenceKind.INDEFINITE, Side.SRC)]
    cycles = {(component, label): float(model.cycles(component, side, seq))
              for label, seq, side in groups for component in COMPONENTS}
    values = {f"{label}/{component}": n
              for (component, label), n in cycles.items()}
    for label, seq, side in groups:
        values[f"{label}/TOTAL"] = float(model.total(side, seq))
    return FigureResult(
        bar_table("Figure 2 — CMAM overhead breakdown (cycles)",
                  [label for label, _seq, _side in groups], list(COMPONENTS),
                  cycles),
        values=values)


@cache
def fig3a() -> FigureResult:
    """Figure 3(a): FM 1.x bandwidth as link management, the I/O bus
    crossing and flow control are added in turn."""
    curves = breakdown_sweep(PRESETS["stream-fm1"], FIG3_SIZES)
    return FigureResult(
        curve_table("Figure 3(a) — FM 1.x overhead breakdown", curves), curves)


def _raw_fm(layer: str, sizes: Sequence[int], label: str,
            title: str) -> FigureResult:
    """A raw-FM figure: the ``stream-<layer>`` curve and its headline
    metrics."""
    stream = PRESETS[f"stream-{layer}"]
    sweep = bandwidth_sweep(stream, sizes, label)
    latency = measure(stream, pattern="fm-pingpong", msg_bytes=16,
                      iterations=15).one_way_latency_us
    rows = {"one-way latency (16 B)": (f"{layer}_latency_us", latency),
            "peak bandwidth": (f"{layer}_peak_mbs", sweep.peak_mbs),
            "N-half": (f"{layer}_n_half_bytes", sweep.n_half_bytes)}
    return FigureResult(
        curve_table(title, [sweep]) + "\n\n"
        + headline_table(f"FM {stream.fm_version}.x headline metrics",
                         [_row(row, key, value)
                          for row, (key, value) in rows.items()]),
        [sweep], dict(rows.values()))


@cache
def fig3b() -> FigureResult:
    """Figure 3(b): FM 1.x overall on the Sparc/SBus testbed."""
    return _raw_fm("fm1", FIG3_SIZES, "FM 1.x",
                   "Figure 3(b) — FM 1.x overall performance")


@cache
def fig5() -> FigureResult:
    """Figure 5: FM 2.1 on the 200 MHz Pentium Pro testbed."""
    return _raw_fm("fm2", FIG456_SIZES, "FM 2.1",
                   "Figure 5 — FM 2.1 on a 200 MHz PPro")


def _mpi_vs_fm(figure: int, fm: SweepResult,
               stream: MicroScenario) -> FigureResult:
    """The MPI ``stream`` against the raw-FM curve ``fm``: (a) absolute,
    (b) efficiency."""
    version = stream.fm_version
    mpi = bandwidth_sweep(stream, FIG456_SIZES, f"MPI-{fm.label}")
    return FigureResult(
        curve_table(f"Figure {figure}(a) — {mpi.label} vs {fm.label} "
                    "(absolute)", [fm, mpi]) + "\n\n"
        + efficiency_table(f"Figure {figure}(b) — {mpi.label} efficiency",
                           mpi, fm),
        [fm, mpi],
        {f"mpi{version}_peak_mbs": mpi.peak_mbs,
         f"mpi{version}_eff_16": mpi.at(16) / fm.at(16),
         f"mpi{version}_eff_2048": mpi.at(2048) / fm.at(2048)})


@cache
def fig4() -> FigureResult:
    """Figure 4: the initial MPI-FM over FM 1.x."""
    fm = bandwidth_sweep(PRESETS["stream-fm1"], FIG456_SIZES, "FM 1.x")
    return _mpi_vs_fm(4, fm, replace(PRESETS["mpi-stream-fm2"],
                                     machine="sparc", fm_version=1))


@cache
def fig6() -> FigureResult:
    """Figure 6: MPI-FM 2.0 against FM 2.0 — Figure 5's curve under the
    name the paper gives it here — and the MPI latency."""
    pair = _mpi_vs_fm(6, replace(fig5().curves[0], label="FM 2.0"),
                      PRESETS["mpi-stream-fm2"])
    latency = measure(PRESETS["pingpong-fm2"], pattern="mpi-pingpong",
                      iterations=12).one_way_latency_us
    return FigureResult(
        pair.table + f"\n\nMPI-FM 2.0 one-way latency (16 B): {latency:.1f} "
        f"us (paper: {PAPER['mpi2_latency_us'].text})",
        pair.curves, {**pair.values, "mpi2_latency_us": latency})


@cache
def journey() -> FigureResult:
    """Extension: where one 16 B message's latency goes, stage by stage,
    on both FM generations; ``values`` is keyed ``<layer>/<stage>``."""
    parts, values = [], {}
    for layer, version in (("fm1", 1), ("fm2", 2)):
        trip = measure(PRESETS[f"journey-{layer}"])
        parts.append(f"FM {version}.x — 16 B one-way journey\n{trip.render()}")
        values.update({f"{layer}/{stage}": float(ns)
                       for stage, ns in trip.stages()})
        values[f"{layer}/TOTAL"] = float(trip.total_ns)
    return FigureResult("\n\n".join(parts), values=values)


@cache
def scorecard() -> FigureResult:
    """Every headline number of the paper against the figure that measures
    it; FM 1.x's peak is over Figure 4's eight sizes, not Figure 3(b)'s six."""
    measured = {**fig3b().values, **fig5().values, **fig6().values,
                "fm1_peak_mbs": fig4().curves[0].peak_mbs}
    return FigureResult(
        headline_table("Reproduction scorecard — paper vs measured",
                       [_row(paper.title, key, measured[key], deviation=True)
                        for key, paper in PAPER.items()]),
        values={key: measured[key] for key in PAPER})


def _table(title: str, rows) -> str:
    """``headline_table`` of ``(metric, paper, measured[, note])`` tuples."""
    return headline_table(title, [HeadlineRow(*row) for row in rows])


def _under(prefix: str, **numbers) -> dict:
    """``numbers`` keyed ``<prefix>/<name>``, as ``values`` holds them."""
    return {f"{prefix}/{name}": value for name, value in numbers.items()}


@cache
def _report(scenario: Scenario, plan=None) -> dict:
    """One run of ``scenario``: a point two figures share is run once."""
    return run_scenario(scenario, plan=plan)


def _rpc(**fields) -> Scenario:
    """An open-loop rpc scenario with no service work, two workers."""
    return Scenario.from_dict({"kind": "rpc", "arrival": "open",
                               "work_ns": 0, "workers": 2, **fields})


def knee_scenario(fm_version: int, rate_rps: float) -> Scenario:
    """Two clients, 512 B requests and responses, to one server."""
    return _rpc(name=f"knee-fm{fm_version}", n_nodes=3, fm_version=fm_version,
                rate_rps=rate_rps, n_requests=60, req_bytes=512,
                resp_bytes=512, seed=11)


def shard_scenario(fm_version: int, servers: int, balancer: str = "static",
                   key_skew: float = 0.0) -> Scenario:
    """Six clients offering 80 k req/s each to ``servers`` shards."""
    return _rpc(name=f"shard-fm{fm_version}-s{servers}", n_nodes=servers + 6,
                servers=servers, balancer=balancer, fm_version=fm_version,
                rate_rps=80_000.0, n_requests=60, req_bytes=256,
                resp_bytes=256, key_skew=key_skew, seed=7)


@cache
def ext_hops() -> FigureResult:
    """Extension: one-way 16 B latency (us, over 10 round trips) across
    chains of 1 to 4 two-host switches: the wormhole fabric's hop cost."""
    values = {f"switches_{n}_us": measure(
        PRESETS["pingpong-fm2"], pattern="chain-pingpong", n_nodes=2 * n,
        iterations=10).one_way_latency_us for n in (1, 2, 3, 4)}
    return FigureResult(_table(
        "Extension — one-way 16 B latency vs switch hops",
        [(f"{key[9]} switch(es)", "-", f"{us:.2f} us")
         for key, us in values.items()]), values=values)


@cache
def ext_latency_size() -> FigureResult:
    """Extension: raw-FM one-way latency (us), keyed ``fm<v>/<size>``."""
    values = {f"fm{version}/{size}": measure(
        PRESETS[f"stream-fm{version}"], pattern="fm-pingpong",
        msg_bytes=size, iterations=8).one_way_latency_us
        for version in (1, 2) for size in (16, 128, 1024, 4096)}
    return FigureResult(_table(
        "Extension — one-way latency vs message size",
        [(f"FM {key[2]}.x @ {key[4:]} B", "-", f"{us:.1f} us")
         for key, us in values.items()]), values=values)


@cache
def ext_rdma() -> FigureResult:
    """Extension: one-sided puts against the FM 2.x stream, and host MPI
    against NIC collectives (mean of 10 rounds, ns, ``<pattern>/<n>``)."""
    sizes = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 16384, 65536)
    stream = PRESETS["stream-fm2"]
    rdma, fm2 = (bandwidth_sweep(scenario, sizes, label) for scenario, label
                 in ((replace(stream, pattern="rdma-stream"), "RDMA put"),
                     (stream, "FM 2.x stream")))
    values = {f"{pattern}/{n}": measure(
        PRESETS["pingpong-fm2"], pattern=pattern, n_nodes=n, msg_bytes=4096,
        iterations=10).latency_ns for n in (2, 4, 8, 16)
        for pattern in ("nic-barrier", "host-barrier", "nic-bcast",
                        "host-bcast")}
    return FigureResult("\n\n".join((
        curve_table("Extension — one-sided put vs FM 2.x stream", [rdma, fm2]),
        _table("RDMA put headline metrics", [
            ("peak bandwidth", "> FM 2.x",
             f"{rdma.peak_mbs:.1f} vs {fm2.peak_mbs:.1f} MB/s"),
            ("N-half", "< FM 2.x",
             f"{rdma.n_half_bytes:.0f} vs {fm2.n_half_bytes:.0f} B"),
            ("64 KB bandwidth", "no credit collapse",
             f"{rdma.at(65536):.1f} vs {fm2.at(65536):.1f} MB/s")]),
        _table("Extension — collective latency, host stack vs NIC firmware", [
            (f"{title} n={n:>2}", f"host {values[f'host-{op}/{n}'] / 1e3:.1f} us",
             f"nic {values[f'nic-{op}/{n}'] / 1e3:.1f} us")
            for op, title in (("barrier", "barrier"), ("bcast", "bcast 4 KB"))
            for n in (2, 4, 8, 16)]))), [rdma, fm2], values)


@cache
def ext_scaling() -> FigureResult:
    """Extension: per-pair MB/s (``<pairs>/min``, ``/max``) of pairs sharing
    a crossbar, and MPI alltoall time (us, ``fm<v>/<n nodes>``)."""
    values = {}
    for n in (1, 2, 4):
        pairs = [pair.bandwidth_mbs for pair in measure(
            PRESETS["stream-fm2"], pattern="pair-streams", n_nodes=2 * n,
            msg_bytes=1024, n_requests=25).pairs]
        values.update({f"{n}/min": min(pairs), f"{n}/max": max(pairs)})
    alltoall = {f"fm{version}/{n}": measure(
        PRESETS[f"stream-fm{version}"], pattern="mpi-alltoall", n_nodes=n,
        msg_bytes=512).completion_us for version in (1, 2) for n in (2, 4, 8)}
    return FigureResult(_table(
        "Extension — per-pair bandwidth on one crossbar",
        [(f"{n} concurrent pair(s)", "flat",
          f"{values[f'{n}/min']:.1f}-{values[f'{n}/max']:.1f} MB/s")
         for n in (1, 2, 4)]) + "\n\n" + _table(
        "Extension — MPI alltoall completion (512 B chunks)",
        [(f"alltoall {key[4:]} nodes, FM {key[2]}.x", "-", f"{us:.0f} us")
         for key, us in alltoall.items()]), values={**values, **alltoall})


@cache
def ext_utilization() -> FigureResult:
    """Extension: each stream's ``Utilization``, keyed ``<label>/<field>``."""
    rows, values = [], {}
    for label, preset, size, count, fields in (
            ("FM 1.x @512B", "stream-fm1", 512, 60, {}),
            ("FM 2.x @2KB", "stream-fm2", 2048, 60, {}),
            ("MPI-FM 1.x @512B", "mpi-stream-fm2", 512, 40,
             {"machine": "sparc", "fm_version": 1}),
            ("MPI-FM 2.x @2KB", "mpi-stream-fm2", 2048, 40, {})):
        util = stream_utilization(replace(
            PRESETS[preset], msg_bytes=size, n_requests=count, **fields))
        values.update(_under(label, **asdict(util)))
        rows += [(f"{label}: {metric}", "-", value)
                 for metric, value in util.rows()]
    return FigureResult(_table("Extension — component utilisation", rows),
                        values=values)


@cache
def ext_workloads() -> FigureResult:
    """Extension: the load-latency knee (highest rate per client delivered
    within 10 %), ``fm<v>/<rate>/<metric>``; incast, ``<policy>/<metric>``."""
    knees, values = [], {}
    for version in (1, 2):
        knee = 0.0
        for rate in (5e3, 10e3, 15e3, 20e3, 30e3, 45e3):
            r = _report(knee_scenario(version, rate))["results"]
            rps, p99 = r["throughput_rps"], r["latency"]["p99_ns"]
            values.update(_under(f"fm{version}/{rate:.0f}", rps=rps,
                                 p99_ns=p99))
            knee = rate if rps >= 0.9 * (2 * rate) else knee
            knees.append((f"FM {version}.x @ {rate:.0f}/client", "-",
                          f"{rps:.0f} rps", f"p99 {p99 / 1000:.1f} us"))
        values[f"fm{version}/knee"] = knee
        knees.append((f"FM {version}.x knee", "-", f"{knee:.0f}/client"))
    incasts = []
    for policy, capacity in (("queue", 16), ("shed", 4)):
        r = _report(_rpc(
            name=f"incast-{policy}", n_nodes=6, arrival="bursty",
            rate_rps=60_000.0, burst_on_ns=150_000, burst_off_ns=350_000,
            n_requests=40, req_bytes=256, resp_bytes=256, work_ns=3_000,
            policy=policy, queue_capacity=capacity, seed=23))["results"]
        done, shed = f"{r['completed']}/{r['sent']}", r["drops"]["shed"]
        values.update(_under(
            policy, completed=r["completed"], sent=r["sent"], shed=shed,
            drops=r["drops"]["total"], p99_ns=r["latency"]["p99_ns"],
            queue_depth_max=r["queue_depth_max"]))
        incasts.append((f"{policy}[{capacity}]", f"{shed} shed",
                        f"{done} done",
                        f"p99 {r['latency']['p99_ns'] / 1000:.1f} us"))
    return FigureResult(_table(
        "Extension — load-latency sweep (2 clients, 512B req/resp, no "
        "service work; offered = 2x rate)", knees) + "\n\n" + _table(
        "Extension — incast fan-in (5 clients -> 1 server, phase-aligned "
        "bursts)", incasts), values=values)


def _service(title: str, scenario: Scenario, values: dict) -> tuple:
    """A sharded service's row, its numbers stored under ``title``."""
    r = _report(scenario)["results"]
    rps, p99 = r["throughput_rps"], r["latency"]["p99_ns"]
    imbalance = r.get("imbalance", 1.0)
    values.update(_under(title, rps=rps, p99_ns=p99, imbalance=imbalance))
    return (title, "-", f"{rps:.0f} rps",
            f"p99 {p99 / 1000:.1f} us, imb {imbalance:.3f}")


@cache
def ext_sharding() -> FigureResult:
    """Extension: 1-4 static shards per FM generation, and each balancer on
    4 FM 2.x shards; ``values`` keyed by row title, plus ``speedup``."""
    values = {}
    shards = [_service(f"FM {v}.x, {n} shard(s)", shard_scenario(v, n),
                       values) for v in (1, 2) for n in (1, 2, 4)]
    values["speedup"] = (values["FM 2.x, 4 shard(s)/rps"]
                         / values["FM 2.x, 1 shard(s)/rps"])
    balancers = [_service(f"{balancer}, {keys}",
                          shard_scenario(2, 4, balancer, skew), values)
                 for keys, skew, names in (
                     ("Zipf 1.2", 1.2, ("static", "round_robin",
                                        "least_pending")),
                     ("uniform", 0.0, ("static", "least_pending")))
                 for balancer in names]
    return FigureResult(_table(
        "Extension — shard scaling (6 clients x 80000 rps offered, 256B "
        "req/resp, static balancer)", shards + [
            ("FM2 1->4 shard speedup", "-", f"{values['speedup']:.2f}x")])
        + "\n\n" + _table("Extension — balancers on 4 shards", balancers),
        values=values)


@cache
def ext_replication() -> FigureResult:
    """Extension: availability through a 3 ms NIC stall, R=1 against R=2
    (``R=<r>/<metric>``), and R=2's probe interval (``<ns>/<metric>``)."""
    plan = PRESETS.rows["rpc-replicated-failover"].plan
    services, probes, values = [], [], {}
    for service, preset in (("R=1", "rpc-sharded-blackout"),
                            ("R=2", "rpc-replicated-failover")):
        report = _report(PRESETS[preset], plan)
        episode, r = report["fault_windows"]["episodes"][0], report["results"]
        shards = [1.0 if s["availability"] is None else s["availability"]
                  for s in episode["shards"]]
        values.update(_under(
            service, availability=episode["availability"],
            completed=r["completed"], drops=r["drops"]["total"],
            sent=r["sent"], **{f"shard{i}": a for i, a in enumerate(shards)}))
        services.append((service, f"avail {episode['availability']:.4f}",
                         f"{episode['goodput_mbs']:.2f} MB/s",
                         "shards " + " ".join(f"{a:.2f}" for a in shards)))
    for interval in (50_000, 150_000, 600_000):
        report = _report(replace(PRESETS["rpc-replicated-failover"],
                                 probe_interval_ns=interval), plan)
        replication = report["replication"]
        detect = min(t["t_ns"] for t in replication["health_transitions"]
                     if t["state"] == "down") - plan.episodes[0].start_ns
        available = report["fault_windows"]["episodes"][0]["availability"]
        values.update(_under(str(interval), detection_ns=detect,
                             availability=available,
                             failovers=replication["failovers"]))
        probes.append((f"probe every {interval / 1000:.0f} us",
                       f"detect {detect / 1000:.0f} us",
                       f"avail {available:.4f}",
                       f"{replication['failovers']} failovers"))
        if interval == PRESETS["rpc-replicated-failover"].probe_interval_ns:
            services.append(("R=2 control plane",
                             f"{replication['failovers']} failovers",
                             f"detect {detect / 1000:.0f} us",
                             f"{replication['probes']['sent']} probes"))
    return FigureResult(_table(
        "Extension — availability inside the 3ms NicStall window "
        "(4 shards, shard 1 stalled)", services) + "\n\n" + _table(
        "Extension — probe interval sweep (R=2, 3ms stall on shard 1)",
        probes), values=values)


def _pipeline(title: str, paper: str, values: dict, **changes) -> tuple:
    """A saturating scatter/gather pipeline (2 M records/s offered, 4 lanes
    at 4 us a record): its row, its numbers stored under ``title``."""
    r = _report(replace(
        PRESETS["dataflow-scatter-gather"], name="ext-dataflow",
        arrival="open-fixed", rate_rps=2_000_000.0, work_ns=4_000,
        **changes))["results"]
    values.update(_under(
        title, throughput_rps=r["throughput_rps"],
        p99_ns=r["latency"]["p99_ns"], conserved=r["conservation"]["ok"],
        dropped=r["records"]["dropped"], credit_stalls=r["credit_stalls"],
        local_edges=sum(edge["local"] for edge in r["edges"])))
    return (f"{title} ({r['throughput_rps'] / 1e3:.0f}k records/s)", paper,
            f"p99 {r['latency']['p99_ns'] / 1e3:.0f} us",
            f"{r['credit_stalls']} credit stalls")


@cache
def ext_dataflow() -> FigureResult:
    """Extension: the saturating pipeline by stage placement and by
    per-stage queue capacity; ``values`` keyed by row title."""
    values = {}
    placements = [_pipeline("spread", "-", values),
                  _pipeline("colocate", "-", values,
                            stage_placement="colocate", n_nodes=2)]
    depths = [_pipeline(f"capacity {depth:>2}", "flat", values,
                        queue_capacity=depth) for depth in (1, 2, 16, 64)]
    return FigureResult(_table(
        "Extension — dataflow throughput vs stage placement", placements)
        + "\n\n" + _table(
        "Extension — dataflow throughput vs bounded-queue depth", depths),
        values=values)


#: The full FM 2.x binding and its three §4.1 ablations (``BINDINGS``
#: names), as the ablation tables label them.
ABLATIONS = {"fm2": "full FM 2.x", "no-gather": "no gather",
             "no-interleaving": "no interleaving", "no-pacing": "no pacing"}


@cache
def ablation_fm2_features() -> FigureResult:
    """Ablation: the pre-posted Figure 6 stream over each of
    :data:`ABLATIONS` against raw FM; ``values`` keyed
    ``<binding>/<size>/recv_copy_bytes``."""
    sizes = (16, 256, 2048)
    curves = [bandwidth_sweep(replace(PRESETS["stream-fm2"], n_requests=30),
                              sizes, "raw FM")]
    values = {}
    for binding, label in ABLATIONS.items():
        outcomes = [execute_scenario(replace(
            PRESETS["mpi-stream-fm2"], mpi_binding=binding, msg_bytes=size))
            for size in sizes]
        curves.append(SweepResult(label, list(sizes), [
            outcome.stats.result.bandwidth_mbs for outcome in outcomes]))
        values.update({f"{binding}/{size}/recv_copy_bytes":
                       outcome.cluster.node(1).cpu.meter.bytes
                       for size, outcome in zip(sizes, outcomes)})
    return FigureResult(
        curve_table("Ablation — pre-posted MPI stream, one feature disabled "
                    "at a time", curves) + "\n\n"
        + _table("Ablation — receive-side copy traffic", [
            (f"recv copies @2KB, {label}", "-",
             f"{values[f'{binding}/2048/recv_copy_bytes']} B")
            for binding, label in ABLATIONS.items()]), curves, values)


FIGURES: dict[str, Callable[[], FigureResult]] = {
    figure.__name__: figure
    for figure in (fig1, fig2, fig3a, fig3b, fig4, fig5, fig6, journey,
                   scorecard, ext_hops, ext_latency_size, ext_rdma,
                   ext_scaling, ext_utilization, ext_workloads, ext_sharding,
                   ext_replication, ext_dataflow, ablation_fm2_features)}
