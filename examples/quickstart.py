#!/usr/bin/env python3
"""Quickstart: the FM 2.x API end to end on a two-node simulated cluster.

Demonstrates the full Table-2 surface — ``FM_begin_message`` /
``FM_send_piece`` / ``FM_end_message`` on the sender, a handler using
``FM_receive`` on the receiver, and paced ``FM_extract(bytes)`` — then
measures the two headline microbenchmarks the paper reports for FM 2.x
(one-way latency and peak bandwidth).

Run:  python examples/quickstart.py
"""

from repro import Cluster, PPRO_FM2
from repro.bench.microbench import fm_pingpong_latency_us, fm_stream_bandwidth_mbs
from repro.simkernel.units import ns_to_us


def main() -> None:
    cluster = Cluster(n_nodes=2, machine=PPRO_FM2, fm_version=2)
    received = []

    # An FM 2.x handler: a generator that consumes its message as a stream.
    # It reads an 8-byte application header first, then the payload —
    # the piecewise (scatter) receive that FM 1.x could not express.
    def handler(fm, stream, src):
        header = yield from stream.receive_bytes(8)
        body = yield from stream.receive_bytes(stream.msg_bytes - 8)
        received.append((src, header, body))

    handler_id = [node.fm.register_handler(handler) for node in cluster.nodes][0]

    message = b"FMHEADER" + b"the quick brown fox jumped over the lazy dog" * 20

    def sender(node):
        buf = node.buffer(len(message), fill=message)
        # Gather: compose the message from two pieces of arbitrary size.
        stream = yield from node.fm.begin_message(1, len(message), handler_id)
        yield from node.fm.send_piece(stream, buf, 0, 8)
        yield from node.fm.send_piece(stream, buf, 8, len(message) - 8)
        yield from node.fm.end_message(stream)
        print(f"[{ns_to_us(node.env.now):9.2f} us] node0: message sent "
              f"({len(message)} bytes)")

    def receiver(node):
        while not received:
            # Receiver flow control: present at most 2 KB per extract call.
            got = yield from node.fm.extract(max_bytes=2048)
            if not got:
                yield 500                 # sleep 500 ns before polling again
        src, header, body = received[0]
        print(f"[{ns_to_us(node.env.now):9.2f} us] node1: from node{src}, "
              f"header={header!r}, payload={len(body)} bytes intact="
              f"{header + body == message}")

    cluster.run([sender, receiver])

    print("\nFM 2.x headline microbenchmarks (paper: 11 us, 77 MB/s):")
    latency = fm_pingpong_latency_us(Cluster(2, PPRO_FM2, 2), msg_bytes=16)
    print(f"  one-way latency, 16 B : {latency:6.2f} us")
    for size in (128, 1024, 2048):
        bandwidth = fm_stream_bandwidth_mbs(Cluster(2, PPRO_FM2, 2), size)
        print(f"  bandwidth, {size:5d} B   : {bandwidth:6.2f} MB/s")


if __name__ == "__main__":
    main()
