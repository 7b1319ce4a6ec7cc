"""Extension — the cost of reliability in software (the §3.1 counterfactual).

FM gets reliable, in-order delivery almost for free by exploiting the
network's properties; CMAM's Figure 2 shows what the guarantees cost when
the network provides nothing.  Here the comparison runs on *our* substrate:
the software go-back-N protocol (source buffering, ACKs, timeouts) is
benchmarked against raw FM 2.x on a clean network — the overhead of the
machinery FM avoided.  How the software protocol fares as bit errors and
drops rise, where FM by design cannot operate at all, is the resilience
sweep's table (``test_ext_resilience.py``).
"""

from conftest import run_once
from repro.bench.microbench import fm_stream
from repro.bench.report import HeadlineRow, headline_table
from repro.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.ext import SwReliablePair

MSG_BYTES = 1500
N_MESSAGES = 25


def swrel_stream():
    cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
    pair = SwReliablePair(cluster, 0, 1)
    payloads = [bytes(MSG_BYTES) for _ in range(N_MESSAGES)]
    got = []
    sender_done = [False]
    marks = {}

    def sender(node):
        marks["start"] = node.env.now
        for payload in payloads:
            yield from pair.send_message(payload)
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
    bandwidth = MSG_BYTES * N_MESSAGES / (elapsed / 1e9) / 1e6
    return bandwidth, pair


def test_ext_software_reliability(benchmark, show):
    def regenerate():
        fm_clean = fm_stream(Cluster(2, PPRO_FM2, 2), MSG_BYTES,
                             n_messages=N_MESSAGES).bandwidth_mbs
        return fm_clean, swrel_stream()

    fm_clean, (clean_sw, clean_pair) = run_once(benchmark, regenerate)
    show(headline_table(
        "Extension — reliability in software vs FM's layered guarantees",
        [HeadlineRow("FM 2.x, clean network", "-", f"{fm_clean:.1f} MB/s",
                     "no recovery"),
         HeadlineRow("software go-back-N, clean network", "-",
                     f"{clean_sw:.1f} MB/s",
                     f"{clean_pair.retransmissions} rexmit")]))

    # On a clean network the software machinery (source copies, ACK
    # processing, window bookkeeping) costs a large bandwidth fraction —
    # the §2.3/§3.1 argument, reproduced on our own hardware model.
    assert clean_pair.retransmissions == 0
    assert clean_sw < 0.75 * fm_clean
    assert clean_sw > 0.3 * fm_clean
