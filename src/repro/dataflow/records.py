"""The dataflow wire format: fixed-size records framed per edge.

A *record* is the quadruple ``(key, value, count, ts)`` of signed 64-bit
ints.  ``count`` carries conservation accounting: raw records from a
source have ``count=1``; a window aggregate folds N contributions and
carries ``count=N``, so ``sum(counts at the sinks) + filtered-away counts
== records emitted by the sources`` is an exact, checkable invariant.
``ts`` is the origin timestamp (max over members for aggregates) — the
sink's end-to-end latency sample is ``now - ts``.

On the wire each record is one FM2 message on its edge::

    EDGE_HEADER (edge_id, n_records, flags) | RECORD | padding

``n_records`` is 1, or 0 for a message that only ends its edge.  Padding
inflates the record's wire footprint to the scenario's ``req_bytes``
(>= RECORD.size), modelling fatter application records without
simulating their bytes in Python.  The receive handler scatters
only header + records out of the stream and leaves the padding
unconsumed — FM 2.x explicitly allows a handler to extract less than the
full message (§4.2), which is exactly the receiver-side economy the
paper's gather/scatter interface buys.

``flags & EOS_FLAG`` marks the *last* message on an edge; its record
(if any) precedes the end-of-stream marker.
"""

from __future__ import annotations

import struct
from typing import Optional

#: (key, value, count, ts) — all int64.
RECORD = struct.Struct("<qqqq")

#: (edge_id, n_records, flags) — per-message edge framing.
EDGE_HEADER = struct.Struct("<iii")

#: Header flag: this message ends its edge's stream.
EOS_FLAG = 1

#: Smallest legal per-record wire footprint.
MIN_RECORD_BYTES = RECORD.size


class Eos:
    """In-queue end-of-stream marker for one edge (never hits the wire
    as a record; cross-node edges signal it via ``EOS_FLAG``)."""

    __slots__ = ("edge_id",)

    def __init__(self, edge_id: int):
        self.edge_id = edge_id

    def __repr__(self) -> str:
        return f"<Eos edge={self.edge_id}>"


def pack_message(edge_id: int, record: Optional[tuple], flags: int,
                 record_bytes: int) -> bytes:
    """Serialise one edge message (header, then the record and its
    padding when there is one)."""
    if record is None:
        return EDGE_HEADER.pack(edge_id, 0, flags)
    return (EDGE_HEADER.pack(edge_id, 1, flags) + RECORD.pack(*record)
            + b"\0" * (record_bytes - RECORD.size))
