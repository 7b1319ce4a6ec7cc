"""Sockets-FM: connection setup, byte streams, receive posting, pacing.

Wire format: every socket segment is one FM message whose first piece is an
8-byte header ``(conn_id, kind)`` packed little-endian, followed for DATA
segments by the payload.  Connections are identified by the *receiver's*
connection id, exchanged during the SYN handshake.

All calls are generators (``yield from sock.send(...)``) run inside node
programs; one :class:`SocketStack` lives per node.  Its extraction pass,
credit-stall hook and every blocking wait are the shared
:class:`~repro.core.progress.Progress` engine; what is the stack's own is
the SYN-ACK outbox and the per-call receiver pacing.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import TYPE_CHECKING, Generator, Optional

from repro.hardware.memory import Buffer
from repro.hardware.packet import Site

from repro.core.fm2.api import FM2
from repro.core.progress import Progress

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node

_HEADER = "<ii"
HEADER_BYTES = struct.calcsize(_HEADER)

KIND_SYN = 1
KIND_SYN_ACK = 2
KIND_DATA = 3
KIND_FIN = 4

#: Maximum payload of one socket segment (one FM message).
SEGMENT_BYTES = 4096


class SocketError(Exception):
    """Connection setup/teardown and usage errors."""


class Socket:
    """One endpoint of an established (or in-progress) connection."""

    def __init__(self, stack: "SocketStack", conn_id: int):
        self.stack = stack
        self.conn_id = conn_id          # my id, used by the peer to address me
        self.peer_node: Optional[int] = None
        self.peer_conn_id: Optional[int] = None
        self.established = False
        self.fin_received = False
        self.fin_sent = False
        self.rx_chunks: deque[bytes] = deque()
        self.rx_bytes = 0
        #: A pending recv's destination (receive posting target).
        self.posted: Optional[tuple[Buffer, int, int]] = None  # buf, off, want
        self.posted_filled = 0

    # -- data transfer --------------------------------------------------------
    def send(self, data: bytes) -> Generator:
        """Send all of ``data`` (segments it into FM messages)."""
        self._check_established()
        if self.fin_sent:
            raise SocketError("send after close")
        obs = self.stack.env.obs
        t0 = self.stack.env.now
        offset = 0
        while offset < len(data):
            take = min(SEGMENT_BYTES, len(data) - offset)
            yield from self.stack._send_segment(
                self, KIND_DATA, data[offset: offset + take])
            offset += take
        if obs is not None:
            obs.record(self.stack._send_site, t0, self.conn_id, len(data))

    def recv(self, nbytes: int) -> Generator:
        """Receive up to ``nbytes``; returns b"" at end of stream.

        Blocks until at least one byte (or FIN) is available.  Extraction is
        paced: the stack extracts roughly ``nbytes`` worth of network data
        per attempt, leaving the rest to FM's flow control.
        """
        if nbytes <= 0:
            raise SocketError(f"recv size must be positive, got {nbytes}")
        self._check_established()
        t0 = self.stack.env.now
        # Receiver pacing: extract only about what the reader asked for.
        budget = max(nbytes + HEADER_BYTES, 256)
        yield from self.stack._progress.wait_until(
            lambda: self.rx_bytes or self.fin_received,
            "recv stalled: peer gone?",
            step=lambda: self.stack.progress(budget))
        if not self.rx_bytes:
            return b""
        out = bytearray()
        while self.rx_chunks and len(out) < nbytes:
            chunk = self.rx_chunks.popleft()
            take = min(len(chunk), nbytes - len(out))
            out += chunk[:take]
            if take < len(chunk):
                self.rx_chunks.appendleft(chunk[take:])
        self.rx_bytes -= len(out)
        # Copy out of socket buffering to the application.
        yield from self.stack.cpu.execute(self.stack.cpu.memcpy_cost(len(out)))
        obs = self.stack.env.obs
        if obs is not None:
            obs.record(self.stack._recv_site, t0, self.conn_id, len(out))
        return bytes(out)

    def recv_into(self, buf: Buffer, offset: int, nbytes: int) -> Generator:
        """Receive exactly ``nbytes`` into ``buf`` with receive posting.

        The destination is posted to the stack first, so segments that
        arrive while we wait are scattered by the FM handler *directly*
        into ``buf`` — the Fast-Sockets-style copy avoidance the paper
        compares FM 2.x's interleaving against.  Returns the bytes filled.
        """
        if nbytes <= 0:
            raise SocketError(f"recv_into size must be positive, got {nbytes}")
        self._check_established()
        if self.posted is not None:
            raise SocketError("recv_into while another receive is posted")
        label = "sockets.buffered_deliver"
        filled = yield from self.advance_receive(buf, offset, nbytes, 0, label)
        if filled == nbytes:
            return nbytes
        try:
            # Paced per pass: extract only about what is still missing.
            yield from self.stack._progress.wait_until(
                lambda: self.posted_filled >= nbytes - filled
                or self.fin_received,
                "recv_into stalled: peer gone?",
                step=lambda: self.stack.progress(max(
                    nbytes - filled - self.posted_filled + HEADER_BYTES, 256)))
            filled = yield from self.advance_receive(buf, offset, nbytes,
                                                     filled, label)
            if filled < nbytes:
                raise SocketError(
                    f"stream closed after {filled} of {nbytes} bytes")
        finally:
            self.posted = None
            self.posted_filled = 0
        return nbytes

    def advance_receive(self, buf: Buffer, offset: int, nbytes: int,
                        filled: int, label: str) -> Generator:
        """Advance a posted receive of ``nbytes`` into ``buf`` at ``offset``
        of which ``filled`` are in place; returns the new fill.

        Stream order sets the steps: what the handler scattered into the
        posted window arrived before anything buffered behind it, so it is
        counted first; buffered bytes are then copied in (as ``label``),
        and whatever is still missing is posted for the handler to scatter
        directly.
        """
        filled += self.posted_filled
        self.posted = None
        self.posted_filled = 0
        while self.rx_chunks and filled < nbytes:
            chunk = self.rx_chunks.popleft()
            take = min(len(chunk), nbytes - filled)
            yield from self.stack.cpu.deposit(chunk[:take], buf,
                                              offset + filled, label=label)
            if take < len(chunk):
                self.rx_chunks.appendleft(chunk[take:])
            filled += take
            self.rx_bytes -= take
        if filled < nbytes:
            self.posted = (buf, offset + filled, nbytes - filled)
        return filled

    def recv_exactly(self, nbytes: int) -> Generator:
        """Receive exactly ``nbytes`` (raises if the stream ends early)."""
        out = bytearray()
        while len(out) < nbytes:
            chunk = yield from self.recv(nbytes - len(out))
            if not chunk:
                raise SocketError(
                    f"stream closed after {len(out)} of {nbytes} bytes"
                )
            out += chunk
        return bytes(out)

    def close(self) -> Generator:
        """Send FIN (half-close; the peer's recv then returns b"")."""
        if self.established and not self.fin_sent:
            self.fin_sent = True
            yield from self.stack._send_segment(self, KIND_FIN, b"")

    def _check_established(self) -> None:
        if not self.established:
            raise SocketError(f"socket {self.conn_id} is not connected")

    def __repr__(self) -> str:
        state = "ESTAB" if self.established else "INIT"
        return (f"<Socket {self.conn_id} {state} peer=node{self.peer_node}/"
                f"conn{self.peer_conn_id} rx={self.rx_bytes}B>")


class SocketStack:
    """Per-node socket machinery over the node's FM 2.x endpoint."""

    def __init__(self, node: "Node"):
        if not isinstance(node.fm, FM2):
            raise SocketError("Sockets-FM requires an FM 2.x endpoint")
        self.node = node
        self.env = node.env
        self.cpu = node.cpu
        self.fm: FM2 = node.fm
        track = f"node{node.node_id}/sockets"
        self._send_site = Site("sockets", "send", track, "conn", "bytes")
        self._recv_site = Site("sockets", "recv", track, "conn", "bytes")
        self.handler_id = self.fm.register_handler(self._handler)
        self._sockets: dict[int, Socket] = {}
        self._next_conn = 1
        self._accept_queue: deque[Socket] = deque()
        self._listening = False
        #: Deferred control replies (SYN-ACK), flushed by progress().
        self._outbox: deque[tuple[int, int, int, bytes]] = deque()  # _send_raw args
        self._progress = Progress(self.fm, SEGMENT_BYTES, self._flush,
                                  SocketError)
        self.fm.stall_hook = self._progress.on_credit_stall

    # -- connection setup ----------------------------------------------------------
    def listen(self) -> None:
        """Start accepting incoming connections."""
        self._listening = True

    def accept(self) -> Generator:
        """Block until an incoming connection is established; return it."""
        if not self._listening:
            raise SocketError("accept() before listen()")
        yield from self._progress.wait_until(
            lambda: self._accept_queue, "accept() timed out")
        return self._accept_queue.popleft()

    def connect(self, peer_node: int) -> Generator:
        """Open a connection to ``peer_node`` (blocks for the handshake)."""
        sock = self._new_socket()
        sock.peer_node = peer_node
        # SYN carries my conn id; peer replies with theirs.
        payload = struct.pack("<i", sock.conn_id)
        yield from self._send_raw(peer_node, 0, KIND_SYN, payload)
        yield from self._progress.wait_until(
            lambda: sock.established,
            f"connect to node {peer_node} timed out")
        return sock

    # -- progress --------------------------------------------------------------
    def progress(self, budget: int) -> Generator:
        """One paced extraction pass plus deferred control replies."""
        return self._progress.progress(budget)

    def _flush(self) -> Generator:
        flushed = False
        while self._outbox:
            yield from self._send_raw(*self._outbox.popleft())
            flushed = True
        return flushed

    # -- wire ------------------------------------------------------------------------
    def _send_segment(self, sock: Socket, kind: int, payload: bytes) -> Generator:
        return self._send_raw(sock.peer_node, sock.peer_conn_id, kind, payload)

    def _send_raw(self, peer_node: int, conn_id: int, kind: int,
                  payload: bytes) -> Generator:
        pieces = [struct.pack(_HEADER, conn_id, kind)]
        if payload:
            pieces.append(payload)
        return self.fm.send_gather(peer_node, self.handler_id, pieces)

    # -- FM handler -----------------------------------------------------------------
    def _handler(self, fm, stream, src: int) -> Generator:
        conn_id, kind = struct.unpack(
            _HEADER, (yield from stream.receive_bytes(HEADER_BYTES)))
        payload_len = stream.msg_bytes - HEADER_BYTES

        if kind == KIND_SYN:
            remote_conn = struct.unpack(
                "<i", (yield from stream.receive_bytes(payload_len)))[0]
            if not self._listening:
                raise SocketError(f"node {self.node.node_id}: SYN while not listening")
            sock = self._new_socket()
            sock.peer_node = src
            sock.peer_conn_id = remote_conn
            sock.established = True
            self._accept_queue.append(sock)
            reply = struct.pack("<i", sock.conn_id)
            self._outbox.append((src, remote_conn, KIND_SYN_ACK, reply))
            return

        sock = self._sockets.get(conn_id)
        if sock is None:
            raise SocketError(
                f"node {self.node.node_id}: segment for unknown conn {conn_id}"
            )

        if kind == KIND_SYN_ACK:
            sock.peer_conn_id = struct.unpack(
                "<i", (yield from stream.receive_bytes(payload_len)))[0]
            sock.established = True
            return
        if kind == KIND_FIN:
            sock.fin_received = True
            return
        if kind != KIND_DATA:
            raise SocketError(f"unknown segment kind {kind}")

        # Receive posting: a waiting recv's buffer gets the data directly.
        if sock.posted is not None:
            buf, off, want = sock.posted
            room = want - sock.posted_filled
            direct = min(room, payload_len)
            if direct:
                yield from stream.receive(buf, off + sock.posted_filled, direct)
                sock.posted_filled += direct
            payload_len -= direct
        if payload_len:
            data = yield from stream.receive_bytes(payload_len)
            sock.rx_chunks.append(data)
            sock.rx_bytes += payload_len

    # -- internals ---------------------------------------------------------------
    def _new_socket(self) -> Socket:
        conn_id = self._next_conn
        self._next_conn += 1
        sock = Socket(self, conn_id)
        self._sockets[conn_id] = sock
        return sock

    def __repr__(self) -> str:
        return (f"<SocketStack node={self.node.node_id} "
                f"conns={len(self._sockets)} accepting={self._listening}>")
