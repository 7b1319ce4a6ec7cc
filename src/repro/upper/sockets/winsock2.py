"""Winsock 2-style overlapped I/O — the paper's work-in-progress, finished.

§4.2 closes its API inventory with "An implementation of Winsock 2 is in
progress."  Winsock 2's distinguishing feature over BSD sockets is
**overlapped (asynchronous) I/O**: ``WSASend``/``WSARecv`` return
immediately with an OVERLAPPED handle, the transfer proceeds while the
application computes, and completion is harvested later
(``WSAGetOverlappedResult``).  That is a natural fit for FM 2.x — receive
posting gives the NIC-to-buffer path, and the polled progress engine plays
the role of the completion port.

This module implements that model over :class:`SocketStack`:

* :meth:`Wsa.send` / :meth:`Wsa.recv` post an operation and return an
  :class:`Overlapped` immediately;
* a per-node :class:`Wsa` engine advances all posted operations each time
  :meth:`Wsa.pump` runs (receive posting straight into the caller's
  buffer, sends segmented through the socket);
* :meth:`Wsa.get_overlapped_result` blocks (pumping) until one operation
  completes; :meth:`Wsa.wait_any` harvests whichever finishes first.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional

from repro.hardware.memory import Buffer

from repro.upper.sockets.socket_fm import Socket, SocketError, SocketStack


class Overlapped:
    """A pending asynchronous operation (the WSAOVERLAPPED analogue)."""

    _seq = 0

    def __init__(self, kind: str, sock: Socket, nbytes: int):
        Overlapped._seq += 1
        self.id = Overlapped._seq
        self.kind = kind                  # "send" | "recv"
        self.sock = sock
        self.requested = nbytes
        self.transferred = 0
        self.complete = False
        self.error: Optional[str] = None
        # recv internals.
        self.buffer: Optional[Buffer] = None
        self.offset = 0
        # send internals.
        self.data: bytes = b""

    def __repr__(self) -> str:
        state = ("error" if self.error else
                 "complete" if self.complete else "pending")
        return (f"<Overlapped #{self.id} {self.kind} "
                f"{self.transferred}/{self.requested} {state}>")


class Wsa:
    """A per-node overlapped-I/O engine over a :class:`SocketStack`."""

    def __init__(self, stack: SocketStack):
        self.stack = stack
        self._pending: deque[Overlapped] = deque()

    # -- posting ---------------------------------------------------------------
    def send(self, sock: Socket, data: bytes) -> Overlapped:
        """Post an asynchronous send; returns immediately (WSASend)."""
        operation = Overlapped("send", sock, len(data))
        operation.data = data
        self._pending.append(operation)
        return operation

    def recv(self, sock: Socket, buffer: Buffer, offset: int,
             nbytes: int) -> Overlapped:
        """Post an asynchronous receive into ``buffer`` (WSARecv).

        The destination is posted to the socket, so data arriving while the
        application computes is scattered directly into place.
        """
        if nbytes <= 0:
            raise SocketError(f"recv size must be positive, got {nbytes}")
        if sock.posted is not None or any(
                pending.sock is sock and pending.kind == "recv"
                for pending in self._pending):
            raise SocketError("WSARecv while another receive is pending")
        operation = Overlapped("recv", sock, nbytes)
        operation.buffer = buffer
        operation.offset = offset
        self._pending.append(operation)
        return operation

    # -- progress -----------------------------------------------------------------
    def pump(self) -> Generator:
        """Advance every posted operation one step (the completion port).

        Sends run to completion when serviced (segmentation is cheap and
        flow control back-pressures inside the socket); receives harvest
        whatever has arrived and complete when their byte count is met or
        the peer closes.  Returns True if anything progressed.
        """
        progressed = False
        for operation in list(self._pending):
            if operation.complete:
                self._pending.remove(operation)
                continue
            if operation.kind == "send":
                yield from operation.sock.send(operation.data)
                operation.transferred = len(operation.data)
                operation.complete = True
                progressed = True
                self._pending.remove(operation)
                continue
            advanced = yield from self._pump_recv(operation)
            progressed = progressed or advanced
            if operation.complete:
                self._pending.remove(operation)
        extracted = yield from self.stack.progress(4096)
        return progressed or bool(extracted)

    def _pump_recv(self, operation: Overlapped) -> Generator:
        sock = operation.sock
        before = operation.transferred
        operation.transferred = yield from sock.advance_receive(
            operation.buffer, operation.offset, operation.requested,
            before, "wsa.buffered_deliver")
        if operation.transferred == operation.requested:
            operation.complete = True
        elif sock.fin_received:
            sock.posted = None
            operation.error = "connection closed"
            operation.complete = True
            return True
        return operation.transferred > before

    # -- completion harvesting --------------------------------------------------------
    def get_overlapped_result(self, operation: Overlapped) -> Generator:
        """Block (pumping) until ``operation`` completes; returns bytes
        transferred (WSAGetOverlappedResult with fWait=TRUE)."""
        yield from self.stack._progress.wait_until(
            lambda: operation.complete,
            f"overlapped {operation!r} stalled", step=self.pump)
        if operation.error:
            raise SocketError(operation.error)
        return operation.transferred

    def wait_any(self, operations: list[Overlapped]) -> Generator:
        """Block until any of ``operations`` completes; returns its index."""
        if not operations:
            raise SocketError("wait_any needs at least one operation")
        yield from self.stack._progress.wait_until(
            lambda: any(operation.complete for operation in operations),
            "wait_any stalled", step=self.pump)
        return next(index for index, operation in enumerate(operations)
                    if operation.complete)

    def __repr__(self) -> str:
        return f"<Wsa node={self.stack.node.node_id} pending={len(self._pending)}>"
