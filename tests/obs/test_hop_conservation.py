"""The hop-span conservation law.

Links, switches and NICs stamp their crossings on the packet and the
observer records them where the packet's journey ends
(:meth:`repro.obs.observer.Observer.hops`).  So after a run that has
quiesced, every crossing the hardware counted has exactly one span.  A
terminal that forgets to hand its packet over shows up here as a span
count below the hardware's tally.  A packet a link drops has one
``fault``/``drop`` span, the injector's.
"""

from collections import Counter

import pytest

from repro.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.ext import SwReliablePair
from repro.faults import FaultPlan, LinkFault

from tests.golden import regen


def assert_every_counted_hop_has_one_span(observer, cluster):
    fabric = cluster.fabric
    links = list(fabric.links.values())
    nics = [node.nic for node in cluster.nodes]
    spans = Counter((span.layer, span.name) for span in observer.spans)
    assert spans["fabric", "wire"] == sum(link.packets for link in links)
    assert spans["fabric", "forward"] == sum(
        switch.forwarded for switch in fabric.switches)
    assert spans["nic", "tx_firmware"] == sum(nic.sent_packets for nic in nics)
    assert spans["nic", "rx_dma"] == sum(nic.received_packets for nic in nics)
    assert spans["fault", "drop"] == sum(link.dropped for link in links)
    assert spans["fabric", "wire"] > 0
    meters = {meter.labels["link"]: meter.total
              for meter in observer.metrics.meters("link.bytes")}
    assert meters == {link.name: link.bytes for link in links if link.packets}
    return spans


@pytest.mark.parametrize("name", regen.OBS_CASES)
def test_every_counted_hop_has_one_span(name):
    outcome = regen.observed(name)
    assert_every_counted_hop_has_one_span(outcome.observer, outcome.cluster)


def test_a_dropped_packet_ends_its_journey_on_the_link():
    """No preset loses a packet on a link; a software-reliable transfer over
    a lossy one does, and completes."""
    cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
    cluster.inject_faults(FaultPlan(episodes=(
        LinkFault(ber=2e-5, drop_rate=0.05),)))
    observer = cluster.observe()
    pair = SwReliablePair(cluster, 0, 1)
    payloads = [bytes([i]) * 1800 for i in range(10)]
    got = []
    sender_done = [False]

    def sender(node):
        for payload in payloads:
            yield from pair.send_message(payload)
        sender_done[0] = True

    def receiver(node):
        while (len(got) < len(payloads)
               or not sender_done[0] or pair.outstanding):
            messages = yield from pair.deliver()
            got.extend(messages)
            if not messages:
                yield 300

    cluster.run([sender, receiver])
    assert got == payloads
    spans = assert_every_counted_hop_has_one_span(observer, cluster)
    assert spans["fault", "drop"] > 0
