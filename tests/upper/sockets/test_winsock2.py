"""Winsock 2-style overlapped I/O over Sockets-FM."""

import pytest

from repro.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.hardware.memory import Buffer
from repro.upper.sockets import SocketError, SocketStack, Wsa


def make_pair():
    cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)
    stacks = [SocketStack(node) for node in cluster.nodes]
    return cluster, stacks


class TestOverlappedBasics:
    def test_post_returns_immediately(self):
        cluster, stacks = make_pair()
        out = {}

        def server(node):
            stacks[0].listen()
            sock = yield from stacks[0].accept()
            yield from sock.send(b"payload!")

        def client(node):
            wsa = Wsa(stacks[1])
            sock = yield from stacks[1].connect(0)
            dest = Buffer(8)
            operation = wsa.recv(sock, dest, 0, 8)
            out["pending_at_post"] = not operation.complete
            transferred = yield from wsa.get_overlapped_result(operation)
            out["n"] = transferred
            out["data"] = dest.read()

        cluster.run([server, client])
        assert out["pending_at_post"]
        assert out["n"] == 8
        assert out["data"] == b"payload!"

    def test_overlapped_send(self):
        cluster, stacks = make_pair()
        out = {}

        def server(node):
            stacks[0].listen()
            sock = yield from stacks[0].accept()
            out["echo"] = yield from sock.recv_exactly(4000)

        def client(node):
            wsa = Wsa(stacks[1])
            sock = yield from stacks[1].connect(0)
            operation = wsa.send(sock, bytes(range(250)) * 16)
            transferred = yield from wsa.get_overlapped_result(operation)
            out["sent"] = transferred

        cluster.run([server, client])
        assert out["sent"] == 4000
        assert out["echo"] == bytes(range(250)) * 16

    def test_compute_overlaps_transfer(self):
        """The point of overlapped I/O: application work proceeds while the
        receive is in flight, so total time is near max(compute, transfer)
        rather than their sum."""
        total_bytes = 20_000
        compute_ns = 200_000   # comparable to the ~270 us transfer

        def run(overlapped: bool) -> int:
            cluster, stacks = make_pair()
            out = {}

            def server(node):
                stacks[0].listen()
                sock = yield from stacks[0].accept()
                yield from sock.send(bytes(total_bytes))

            def client(node):
                wsa = Wsa(stacks[1])
                sock = yield from stacks[1].connect(0)
                dest = Buffer(total_bytes)
                start = node.env.now
                if overlapped:
                    operation = wsa.recv(sock, dest, 0, total_bytes)
                    for _ in range(10):
                        yield from node.cpu.compute(compute_ns // 10)
                        yield from wsa.pump()
                    yield from wsa.get_overlapped_result(operation)
                else:
                    yield from sock.recv_into(dest, 0, total_bytes)
                    yield from node.cpu.compute(compute_ns)
                out["elapsed"] = node.env.now - start

            cluster.run([server, client])
            return out["elapsed"]

        serial = run(overlapped=False)
        overlapped = run(overlapped=True)
        # Overlap hides a large fraction of the compute behind the wire.
        assert overlapped < serial - compute_ns * 0.5

    def test_recv_error_on_peer_close(self):
        cluster, stacks = make_pair()

        def server(node):
            stacks[0].listen()
            sock = yield from stacks[0].accept()
            yield from sock.send(b"xy")
            yield from sock.close()

        def client(node):
            wsa = Wsa(stacks[1])
            sock = yield from stacks[1].connect(0)
            dest = Buffer(10)
            operation = wsa.recv(sock, dest, 0, 10)   # more than will come
            yield from wsa.get_overlapped_result(operation)

        with pytest.raises(SocketError, match="closed"):
            cluster.run([server, client])

    def test_invalid_recv_size(self):
        cluster, stacks = make_pair()
        wsa = Wsa(stacks[1])
        with pytest.raises(SocketError, match="positive"):
            wsa.recv(object(), Buffer(4), 0, 0)


class TestWaitAny:
    def test_harvests_first_completion(self):
        cluster = Cluster(3, machine=PPRO_FM2, fm_version=2)
        stacks = [SocketStack(node) for node in cluster.nodes]
        out = {}

        def make_server(node_id, delay, payload):
            def server(node):
                stack = stacks[node_id]
                sock = yield from stack.connect(0)
                yield node.env.timeout(delay)
                yield from sock.send(payload)
            return server

        def client(node):
            stack = stacks[0]
            stack.listen()
            wsa = Wsa(stack)
            socks = []
            for _ in range(2):
                socks.append((yield from stack.accept()))
            buffers = [Buffer(4), Buffer(4)]
            operations = [wsa.recv(socks[i], buffers[i], 0, 4)
                          for i in range(2)]
            first = yield from wsa.wait_any(operations)
            out["first_data"] = buffers[first].read()
            for operation in operations:
                yield from wsa.get_overlapped_result(operation)
            out["all"] = sorted(buf.read() for buf in buffers)

        cluster.run([client,
                     make_server(1, 500_000, b"slow"),
                     make_server(2, 0, b"fast")])
        assert out["first_data"] == b"fast"
        assert out["all"] == [b"fast", b"slow"]

    def test_empty_wait_any_rejected(self):
        cluster, stacks = make_pair()

        def client(node):
            wsa = Wsa(stacks[1])
            yield from wsa.wait_any([])

        with pytest.raises(SocketError, match="at least one"):
            cluster.run([None, client])


class TestMultipleOutstanding:
    def test_two_receives_two_connections(self):
        cluster = Cluster(3, machine=PPRO_FM2, fm_version=2)
        stacks = [SocketStack(node) for node in cluster.nodes]
        out = {}

        def make_sender(node_id):
            def sender(node):
                sock = yield from stacks[node_id].connect(0)
                yield from sock.send(bytes([node_id]) * 3000)
            return sender

        def receiver(node):
            stack = stacks[0]
            stack.listen()
            wsa = Wsa(stack)
            socks = []
            for _ in range(2):
                socks.append((yield from stack.accept()))
            buffers = [Buffer(3000), Buffer(3000)]
            operations = [wsa.recv(socks[i], buffers[i], 0, 3000)
                          for i in range(2)]
            for operation in operations:
                yield from wsa.get_overlapped_result(operation)
            out["payloads"] = sorted({buf.read()[0] for buf in buffers})

        cluster.run([receiver, make_sender(1), make_sender(2)])
        assert out["payloads"] == [1, 2]


class TestPostedWindowOrder:
    """Two 80 B segments into one 100 B WSARecv: the handler scatters the
    first 100 stream bytes into the posted window and buffers the last 60
    behind it, and the receive must count the window before the buffer."""

    STREAM = bytes(range(160))

    def run(self, compute_before_post_ns: int):
        cluster, stacks = make_pair()
        out = {}

        def server(node):
            stacks[0].listen()
            sock = yield from stacks[0].accept()
            yield from sock.send(self.STREAM[:80])
            yield from sock.send(self.STREAM[80:])

        def client(node):
            wsa = Wsa(stacks[1])
            sock = yield from stacks[1].connect(0)
            # With no extraction in between, the segments wait at the NIC.
            yield from node.cpu.compute(compute_before_post_ns)
            dest = Buffer(100)
            operation = wsa.recv(sock, dest, 0, 100)
            out["n"] = yield from wsa.get_overlapped_result(operation)
            out["data"] = dest.read()
            out["rest"] = yield from sock.recv_exactly(60)

        cluster.run([server, client])
        return out

    @pytest.mark.parametrize("compute_before_post_ns", [0, 200_000],
                             ids=["posted_before_data", "posted_after_data"])
    def test_window_then_buffer(self, compute_before_post_ns):
        out = self.run(compute_before_post_ns)
        assert out["n"] == 100
        assert out["data"] == self.STREAM[:100]
        assert out["rest"] == self.STREAM[100:]

    def test_second_recv_on_a_socket_is_refused(self):
        cluster, stacks = make_pair()

        def server(node):
            stacks[0].listen()
            yield from stacks[0].accept()

        def client(node):
            wsa = Wsa(stacks[1])
            sock = yield from stacks[1].connect(0)
            wsa.recv(sock, Buffer(8), 0, 8)
            wsa.recv(sock, Buffer(8), 0, 8)

        with pytest.raises(SocketError, match="pending"):
            cluster.run([server, client])
