"""Extension studies (beyond the paper's two-node evaluation).

The paper's testbed was two nodes on one crossbar; these benchmarks answer
the follow-on questions its design raises, on the same substrate:

* does per-pair bandwidth hold as a crossbar fills with concurrent pairs?
  (it should: Myrinet crossbars are non-blocking and FM adds no shared
  host-side state between peers);
* what does each switch hop cost in latency?
* how do MPI collectives scale with node count, FM 1.x vs FM 2.x binding?
"""

import pytest

from conftest import run_once
from repro.bench.report import HeadlineRow, headline_table
from repro.bench.sweeps import latency_vs_hops, measure
from repro.workloads.presets import PRESETS


def test_ext_crossbar_pair_scaling(benchmark, show):
    def regenerate():
        return {n: [pair.bandwidth_mbs for pair in measure(
                    PRESETS["stream-fm2"], pattern="pair-streams",
                    n_nodes=2 * n, msg_bytes=1024, n_requests=25).pairs]
                for n in (1, 2, 4)}

    results = run_once(benchmark, regenerate)
    rows = [HeadlineRow(f"{n} concurrent pair(s)", "flat",
                        f"{min(b):.1f}-{max(b):.1f} MB/s")
            for n, b in results.items()]
    show(headline_table("Extension — per-pair bandwidth on one crossbar",
                        rows))

    solo = results[1][0]
    for n, bandwidths in results.items():
        # Non-blocking crossbar + per-peer credits: no pair loses more
        # than a few percent regardless of load.
        assert min(bandwidths) > 0.9 * solo, (n, bandwidths)


def test_ext_latency_per_hop(benchmark, show):
    def regenerate():
        return latency_vs_hops(PRESETS["pingpong-fm2"], max_switches=4)

    results = run_once(benchmark, regenerate)
    show(headline_table("Extension — one-way 16 B latency vs switch hops", [
        HeadlineRow(f"{switches} switch(es)", "-", f"{latency:.2f} us")
        for switches, latency in results
    ]))

    latencies = [latency for _s, latency in results]
    # Monotone in hop count, with a sane per-hop increment (switch routing
    # + one extra wire + store slot): well under 2 us per hop.
    assert latencies == sorted(latencies)
    increments = [b - a for a, b in zip(latencies, latencies[1:])]
    assert all(0.1 < inc < 2.0 for inc in increments)


def test_ext_alltoall_scaling(benchmark, show):
    def regenerate():
        return {
            f"FM {version}.x": [
                (n, measure(PRESETS[f"stream-fm{version}"],
                            pattern="mpi-alltoall", n_nodes=n,
                            msg_bytes=512).completion_us)
                for n in (2, 4, 8)]
            for version in (1, 2)
        }

    results = run_once(benchmark, regenerate)
    rows = []
    for label, series in results.items():
        for n, micros in series:
            rows.append(HeadlineRow(f"alltoall {n} nodes, {label}", "-",
                                    f"{micros:.0f} us"))
    show(headline_table("Extension — MPI alltoall completion (512 B chunks)",
                        rows))

    for label, series in results.items():
        times = [t for _n, t in series]
        assert times == sorted(times), label      # more nodes, more time
    # The FM 2.x binding wins at every size, by a substantial factor.
    for (n1, t1), (n2, t2) in zip(results["FM 1.x"], results["FM 2.x"]):
        assert n1 == n2
        assert t2 < t1 / 2
