"""MPI rendezvous when a link goes dead mid-protocol: diagnosed, never hung.

A 40 000 B send whose RTS has already left when one of the four links of
the two-node fabric starts dropping every packet.  Whatever is lost — the
CTS, the payload, the RDMA read or its FIN, the credit returns — some
blocking call must fail loudly within ``stall_limit_ns`` (plus the time
the protocol was still advancing) and name what it was waiting for; the
receiver must never complete with anything but the sent bytes.
"""

from dataclasses import replace

import pytest

from repro.cluster import Cluster
from repro.cluster.cluster import default_fm_params
from repro.configs import PPRO_FM2, SPARC_FM1
from repro.core.common import FmStalledError
from repro.faults import FaultPlan
from repro.faults.plan import LinkFault
from repro.upper.mpi import build_mpi_world
from repro.upper.mpi.status import MpiError
from repro.upper.mpi.world import BINDINGS

SIZE = 40_000
FAULT_OPENS_NS = 30_000          # after the RTS has left rank 0
STALL_LIMIT_NS = 2_000_000
#: The protocol may still advance for a while after the fault opens (FM 2.x
#: streams data until its credits run out); the stall clock starts there.
SLOP_NS = 1_000_000

FORWARD = ("link:h0->s0", "link:s0->h1")     # sender -> receiver
REVERSE = ("link:h1->s0", "link:s0->h0")     # receiver -> sender

#: binding -> (diagnosis when the forward path dies, diagnosis when the
#: reverse path dies).
DIAGNOSES = {
    # The payload is lost: the receiver starves.  The CTS is lost: the
    # sender says so.
    "fm1": ((MpiError, r"rank 1: wait\(\) made no progress"),
            (MpiError, r"rank 0: no CTS from rank 1 \(serial 0\)")),
    # FM 2.x is quick enough that the CTS is back before the fault opens;
    # what the dead reverse path then starves is the sender's credits.
    "fm2": ((MpiError, r"rank 1: wait\(\) made no progress"),
            (FmStalledError, r"node 0 stalled .* waiting for credits")),
    # Either the read request or its response is lost, or the FIN is: the
    # sender never hears the pull finished.
    "rdma": ((MpiError, r"rank 0: no RDMA FIN from rank 1 \(serial 0\)"),
             (MpiError, r"rank 0: no RDMA FIN from rank 1 \(serial 0\)")),
}


@pytest.mark.parametrize("link", FORWARD + REVERSE)
@pytest.mark.parametrize("binding", DIAGNOSES)
def test_dead_link_after_the_rts_is_diagnosed_within_the_limit(binding, link):
    fm_version = BINDINGS[binding][0]
    forward, reverse = DIAGNOSES[binding]
    error, message = forward if link in FORWARD else reverse
    cluster = Cluster(
        2, machine=SPARC_FM1 if fm_version == 1 else PPRO_FM2,
        fm_version=fm_version,
        fm_params=replace(default_fm_params(fm_version),
                          stall_limit_ns=STALL_LIMIT_NS))
    cluster.inject_faults(FaultPlan(seed=1, episodes=(
        LinkFault(link=link, start_ns=FAULT_OPENS_NS, drop_rate=1.0),)))
    comms = build_mpi_world(cluster, binding)
    payload = bytes(i % 251 for i in range(SIZE))
    received = []

    def sender(node):
        yield from comms[0].send(payload, 1, tag=3)

    def receiver(node):
        data, _status = yield from comms[1].recv(0, 3, max_bytes=SIZE)
        received.append(data)

    # until_ns: a hang fails the test (TimeoutError) instead of hanging it.
    with pytest.raises(error, match=message):
        cluster.run([sender, receiver], until_ns=10 * STALL_LIMIT_NS)
    assert cluster.now <= STALL_LIMIT_NS + SLOP_NS
    assert received in ([], [payload])
