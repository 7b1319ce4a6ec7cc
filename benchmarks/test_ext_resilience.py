"""Extension — resilience sweep under planned fault episodes.

The §3.1 layering argument stress-tested with the :mod:`repro.faults`
framework, the one way a link errs: scheduled bit-error and lossy-link
episodes drive two sweeps on the same substrate:

* **software go-back-N** — goodput, per-message latency, and the
  bytes-wasted fraction and retransmissions as the BER and the drop rate
  rise; the protocol keeps delivering, paying a measurable and growing
  recovery tax (its clean-network cost against FM is
  ``test_ext_software_reliability.py``);
* **FM 2.x** — no recovery by design: the interesting number is how
  *quickly* it fails loudly, measured as the gap between the first
  injected corruption (from the injector's fault trace) and the
  :class:`~repro.core.common.FmTransportError` the extract path raises.

Fault events ride through ``repro.obs`` as ``fault`` spans, so every run
here is also visible in trace exports.
"""

import statistics

from conftest import run_once
from repro.bench.report import HeadlineRow, headline_table
from repro.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.core.common import FmTransportError
from repro.ext import SwReliablePair
from repro.faults import FaultPlan, LinkFault

MSG_BYTES = 1500
N_MESSAGES = 25


def swrel_under_plan(plan):
    """Reliable transfer under a fault plan; goodput, latency, accounting."""
    cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
    observer = cluster.observe()
    injector = cluster.inject_faults(plan)
    pair = SwReliablePair(cluster, 0, 1)
    payloads = [bytes(MSG_BYTES) for _ in range(N_MESSAGES)]
    got = []
    sender_done = [False]
    latencies = []
    marks = {}

    def sender(node):
        marks["start"] = node.env.now
        for payload in payloads:
            t0 = node.env.now
            yield from pair.send_message(payload)
            latencies.append(node.env.now - t0)   # send -> fully ACKed
        sender_done[0] = True

    def receiver(node):
        while (len(got) < N_MESSAGES or not sender_done[0]
               or pair.outstanding):
            messages = yield from pair.deliver()
            got.extend(messages)
            if messages:
                marks["end"] = node.env.now
            else:
                yield node.env.timeout(300)

    cluster.run([sender, receiver])
    assert len(got) == N_MESSAGES
    elapsed = marks["end"] - marks["start"]
    goodput = MSG_BYTES * N_MESSAGES / (elapsed / 1e9) / 1e6
    return {
        "goodput_mbs": goodput,
        "mean_latency_ns": statistics.mean(latencies),
        "stats": pair.stats(),
        "fault_events": len(injector.events),
        "fault_spans": sum(1 for s in observer.spans if s.layer == "fault"),
    }


def fm_detection_latency_ns(ber, seed):
    """Time from the first injected corruption to FM's loud failure."""
    cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
    injector = cluster.inject_faults(FaultPlan(seed=seed, episodes=(
        LinkFault(link="link:h0->*", ber=ber),)))

    def handler(fm, stream, src):
        yield from stream.receive_bytes(stream.msg_bytes)

    hid = {n.fm.register_handler(handler) for n in cluster.nodes}.pop()

    def sender(node):
        buf = node.buffer(MSG_BYTES)
        for _ in range(400):
            yield from node.fm.send_buffer(1, hid, buf, MSG_BYTES)

    def receiver(node):
        while True:
            got = yield from node.fm.extract()
            if not got:
                yield node.env.timeout(300)

    try:
        cluster.run([sender, receiver], until_ns=10_000_000_000)
    except FmTransportError as err:
        corruptions = [t for t, kind, _c, _d in injector.events
                       if kind == "corrupt"]
        return err.time_ns - corruptions[0]
    raise AssertionError(f"no corruption materialised at BER {ber:g}")


def test_ext_resilience_sweep(benchmark, show):
    def regenerate():
        bers = {ber: swrel_under_plan(FaultPlan(seed=20, episodes=(
            LinkFault(link="*", ber=ber),))) for ber in (2e-5, 1e-4)}
        drops = {rate: swrel_under_plan(FaultPlan(seed=21, episodes=(
            LinkFault(link="*", drop_rate=rate),)))
            for rate in (0.02, 0.08)}
        clean = swrel_under_plan(FaultPlan(seed=22))
        detection = {ber: fm_detection_latency_ns(ber, seed=23)
                     for ber in (5e-5, 2e-4)}
        return clean, bers, drops, detection

    clean, bers, drops, detection = run_once(benchmark, regenerate)
    rows = [HeadlineRow(
        "go-back-N, clean", f"{clean['mean_latency_ns'] / 1e3:.0f} us",
        f"{clean['goodput_mbs']:.1f} MB/s", "baseline")]
    for label, sweep in (("BER", bers), ("drop", drops)):
        for level, r in sweep.items():
            rows.append(HeadlineRow(
                f"go-back-N, {label} {level:g}",
                f"{r['mean_latency_ns'] / 1e3:.0f} us",
                f"{r['goodput_mbs']:.1f} MB/s",
                f"{r['stats']['wasted_fraction'] * 100:.1f}% bytes wasted, "
                f"{r['stats']['retransmissions']} rexmit"))
    for ber, latency in detection.items():
        rows.append(HeadlineRow(
            f"FM 2.x, BER {ber:g}", f"{latency / 1e3:.0f} us", "-",
            "fails loud: corruption -> FmTransportError"))
    show(headline_table(
        "Extension — resilience under planned fault episodes", rows))

    # Goodput degrades monotonically with the BER but never dies; the
    # recovery tax (wasted bytes) grows with it.
    assert clean["goodput_mbs"] > bers[2e-5]["goodput_mbs"] > \
        bers[1e-4]["goodput_mbs"] > 0
    assert clean["stats"]["wasted_fraction"] == 0.0
    assert bers[2e-5]["stats"]["wasted_fraction"] < \
        bers[1e-4]["stats"]["wasted_fraction"]
    assert bers[2e-5]["stats"]["retransmissions"] < \
        bers[1e-4]["stats"]["retransmissions"]
    # Same shape for outright loss; latency rises with the drop rate.
    assert clean["goodput_mbs"] > drops[0.02]["goodput_mbs"] > \
        drops[0.08]["goodput_mbs"] > 0
    assert drops[0.08]["mean_latency_ns"] > clean["mean_latency_ns"]
    # Every lossy run surfaced its episodes through the observability layer.
    for r in list(bers.values()) + list(drops.values()):
        assert r["fault_events"] > 0
        assert r["fault_spans"] >= r["fault_events"]
    assert clean["fault_events"] == 0
    # FM detects corruption promptly — within the extract polling cadence,
    # i.e. well under a millisecond of simulated time after the first hit.
    for latency in detection.values():
        assert 0 < latency < 1_000_000
