"""The MPI message envelope: the 24-byte header MPI-FM prepends.

The paper singles out this header (§5: "the minimum length of the header
added by the MPI code is 24 bytes (6 words)") as the canonical example of
why gather-scatter matters: over FM 1.x, attaching it forces a full message
assembly copy; over FM 2.x it is just the first gather piece.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

#: 6 words: context id, source rank, tag, payload size, protocol kind, serial.
_FORMAT = "<iiiiii"
ENVELOPE_BYTES = struct.calcsize(_FORMAT)
assert ENVELOPE_BYTES == 24, "the paper's MPI header is 24 bytes"

#: The RTS_RDMA descriptor: the rkey the receiver's pull names.  It rides
#: as the message payload after the 24-byte envelope (which stays the
#: paper's size — the advert is a normal small FM message).
RDMA_DESC = struct.Struct("<q")


@dataclass(frozen=True)
class Envelope:
    """Matching and protocol metadata for one MPI message."""

    context: int     # communicator context id
    src_rank: int
    tag: int
    size: int        # payload bytes (excluding envelope)
    kind: int        # KIND_* protocol discriminator
    serial: int      # per (src, context) sequence, for rendezvous pairing

    def pack(self) -> bytes:
        return struct.pack(_FORMAT, self.context, self.src_rank, self.tag,
                           self.size, self.kind, self.serial)

    @classmethod
    def unpack(cls, raw: bytes) -> "Envelope":
        if len(raw) != ENVELOPE_BYTES:
            raise ValueError(
                f"envelope must be {ENVELOPE_BYTES} bytes, got {len(raw)}"
            )
        return cls(*struct.unpack(_FORMAT, raw))
