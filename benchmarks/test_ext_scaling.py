"""Extension studies (beyond the paper's two-node evaluation).

The paper's testbed was two nodes on one crossbar; these benchmarks answer
the follow-on questions its design raises, on the same substrate:

* does per-pair bandwidth hold as a crossbar fills with concurrent pairs?
  (it should: Myrinet crossbars are non-blocking and FM adds no shared
  host-side state between peers);
* what does each switch hop cost in latency?
* how do MPI collectives scale with node count, FM 1.x vs FM 2.x binding?
"""

from conftest import run_once
from repro.bench.figures import FIGURES


def test_ext_crossbar_pair_scaling(benchmark, show):
    result = run_once(benchmark, FIGURES["ext_scaling"])
    show(result.table)

    solo = result.values["1/min"]
    for n in (1, 2, 4):
        # Non-blocking crossbar + per-peer credits: no pair loses more
        # than a few percent regardless of load.
        assert result.values[f"{n}/min"] > 0.9 * solo, n


def test_ext_latency_per_hop(benchmark, show):
    result = run_once(benchmark, FIGURES["ext_hops"])
    show(result.table)

    latencies = list(result.values.values())
    # Monotone in hop count, with a sane per-hop increment (switch routing
    # + one extra wire + store slot): well under 2 us per hop.
    assert latencies == sorted(latencies)
    increments = [b - a for a, b in zip(latencies, latencies[1:])]
    assert all(0.1 < inc < 2.0 for inc in increments)


def test_ext_alltoall_scaling(benchmark):
    result = run_once(benchmark, FIGURES["ext_scaling"])

    fm1, fm2 = ([result.values[f"fm{version}/{n}"] for n in (2, 4, 8)]
                for version in (1, 2))
    for times in (fm1, fm2):
        assert times == sorted(times)      # more nodes, more time
    # The FM 2.x binding wins at every size, by a substantial factor.
    for t1, t2 in zip(fm1, fm2):
        assert t2 < t1 / 2
