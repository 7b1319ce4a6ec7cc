"""MPI constants: wildcards, protocol kinds, reserved tag space."""

from __future__ import annotations

#: Wildcards for receive matching.
ANY_SOURCE: int = -1
ANY_TAG: int = -1

#: Protocol kinds carried in the envelope.
KIND_EAGER = 0        # payload travels with the envelope
KIND_RTS = 1          # rendezvous request-to-send (envelope only)
KIND_CTS = 2          # rendezvous clear-to-send (receiver -> sender)
KIND_RENDEZVOUS_DATA = 3  # rendezvous payload
KIND_RTS_RDMA = 4     # RDMA rendezvous: envelope + rkey descriptor; the
                      # receiver pulls the payload with an RDMA read
KIND_RDMA_FIN = 5     # RDMA rendezvous done (receiver -> sender): the
                      # pull landed, the sender may deregister

#: User tags must stay below this; collectives use tags at and above it.
MAX_USER_TAG = 1 << 20
#: Internal point-to-point control (rendezvous CTS) tag space.
INTERNAL_TAG_BASE = 1 << 24
