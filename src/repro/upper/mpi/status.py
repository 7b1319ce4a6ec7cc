"""MPI completion objects: Status and Request."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class MpiError(Exception):
    """MPI semantic errors (truncation, invalid rank/tag, misuse)."""


@dataclass
class Status:
    """Delivery metadata for a completed receive."""

    source: int
    tag: int
    count: int      # payload bytes actually received


class Request:
    """Handle for a nonblocking operation.

    Completion is a plain flag plus payload; waiting is done through the
    engine's progress loop (``comm.wait``), not through kernel events, which
    mirrors how MPI progress actually works over a polled network.
    """

    _seq = 0

    def __init__(self, kind: str):
        Request._seq += 1
        self.id = Request._seq
        self.kind = kind            # "send" | "recv"
        self.complete = False
        self.status: Optional[Status] = None
        self.data: Optional[bytes] = None   # received payload (recv requests)

    def finish(self, status: Optional[Status] = None, data: Optional[bytes] = None) -> None:
        if self.complete:
            raise MpiError(f"request {self.id} completed twice")
        self.complete = True
        self.status = status
        self.data = data

    def __repr__(self) -> str:
        state = "complete" if self.complete else "pending"
        return f"<Request #{self.id} {self.kind} {state}>"
