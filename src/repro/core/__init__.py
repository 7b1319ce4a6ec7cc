"""Fast Messages — the paper's primary contribution.

Two generations of the user-level messaging layer, implemented as real
protocols (actual payload bytes, packetisation, credit-based flow control,
handler dispatch) over the simulated hardware substrate:

* :mod:`repro.core.fm1` — FM 1.x (Table 1 of the paper):
  ``FM_send_4`` / ``FM_send`` / ``FM_extract``; contiguous-buffer API;
  full-message reassembly into a staging buffer before the handler runs.
* :mod:`repro.core.fm2` — FM 2.x (Table 2): the stream abstraction:
  ``FM_begin_message`` / ``FM_send_piece`` / ``FM_end_message`` /
  ``FM_receive`` / ``FM_extract(maxbytes)``; gather-scatter, transparent
  handler multithreading, receiver flow control.

Both generations provide the same guarantees (§3.1): reliable delivery,
in-order delivery, and sender flow control — built from the network's
properties (no drops, per-path FIFO, back-pressure) plus credits.
"""

from repro.core.common import (
    FM_CONTINUE,
    FmCorruptionError,
    FmError,
    FmParams,
    FmProtocolError,
    FmStalledError,
    FmTransportError,
    HandlerTable,
)
from repro.core.fm1.api import FM1
from repro.core.fm2.api import FM2
from repro.core.fm2.stream import RecvStream, SendStream
from repro.core.progress import Progress

__all__ = [
    "FM1",
    "FM2",
    "FM_CONTINUE",
    "FmCorruptionError",
    "FmError",
    "FmParams",
    "FmProtocolError",
    "FmStalledError",
    "FmTransportError",
    "HandlerTable",
    "Progress",
    "RecvStream",
    "SendStream",
]
