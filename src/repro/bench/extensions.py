"""Beyond-the-paper extension studies on the same substrate.

The paper measures two nodes on one switch.  These extensions exercise the
parts of the system the paper's evaluation does not: fabric contention,
multi-hop latency, and collective scaling — the experiments a downstream
user of the library would run next.

* :func:`aggregate_pair_bandwidth` — N disjoint sender/receiver pairs on
  one crossbar: does per-pair bandwidth hold as the switch loads up?
* :func:`latency_vs_hops` — one-way latency across a switch chain, giving
  the per-hop cost of the wormhole fabric model.
* :func:`alltoall_scaling` — MPI alltoall completion time vs node count,
  FM 1.x binding vs FM 2.x binding.
"""

from __future__ import annotations

from repro.bench.microbench import (extract_until, fm_pingpong, fm_send,
                                    register_handler)
from repro.cluster.cluster import Cluster
from repro.configs import PPRO_FM2, SPARC_FM1
from repro.hardware.params import MachineParams
from repro.hardware.topology import single_switch, switch_chain
from repro.upper.mpi.world import build_mpi_world


def aggregate_pair_bandwidth(machine: MachineParams, fm_version: int,
                             n_pairs: int, msg_bytes: int = 1024,
                             n_messages: int = 30) -> list[float]:
    """Per-pair streaming bandwidth (MB/s) with n_pairs running at once.

    Pair ``i`` streams node ``2i`` -> node ``2i+1``; all pairs share one
    crossbar.  A non-blocking switch should keep per-pair bandwidth flat.
    """
    n_nodes = 2 * n_pairs
    cluster = Cluster(n_nodes, machine=machine, fm_version=fm_version,
                      topology=single_switch(n_nodes))
    done = {i: 0 for i in range(n_pairs)}
    spans: dict[int, list[int]] = {}

    def arrived(fm):
        pair = fm.node_id // 2
        done[pair] += 1
        spans[pair][1] = fm.env.now

    hid = register_handler(cluster, arrived)

    def make_sender(pair: int):
        def sender(node):
            spans[pair] = [node.env.now, node.env.now]
            buf = node.buffer(msg_bytes)
            for _ in range(n_messages):
                yield from fm_send(node.fm, 2 * pair + 1, hid, buf, msg_bytes)
        return sender

    def make_receiver(pair: int):
        def receiver(node):
            return extract_until(node, lambda: done[pair] >= n_messages)
        return receiver

    programs = []
    for pair in range(n_pairs):
        programs.append(make_sender(pair))
        programs.append(make_receiver(pair))
    cluster.run(programs)
    return [
        msg_bytes * n_messages / ((spans[pair][1] - spans[pair][0]) / 1e9) / 1e6
        for pair in range(n_pairs)
    ]


def latency_vs_hops(machine: MachineParams = PPRO_FM2,
                    max_switches: int = 4) -> list[tuple[int, float]]:
    """(switch count, one-way 16 B latency in µs) across a switch chain."""
    results = []
    for n_switches in range(1, max_switches + 1):
        n_hosts = 2 * n_switches
        topo = switch_chain(n_hosts, hosts_per_switch=2)
        cluster = Cluster(n_hosts, machine=machine, fm_version=2,
                          topology=topo)
        # Ping-pong between the two extreme hosts: crosses every switch.
        result = fm_pingpong(cluster, 16, iterations=10, warmup=2,
                             nodes=(0, n_hosts - 1))
        results.append((n_switches, result.one_way_latency_us))
    return results


def alltoall_scaling(fm_version: int, node_counts=(2, 4, 8),
                     chunk_bytes: int = 512) -> list[tuple[int, float]]:
    """(nodes, alltoall completion µs) for the given FM binding."""
    machine = SPARC_FM1 if fm_version == 1 else PPRO_FM2
    results = []
    for n in node_counts:
        cluster = Cluster(n, machine=machine, fm_version=fm_version)
        comms = build_mpi_world(cluster)
        finish = {}

        def make_program(rank: int):
            def program(node):
                chunks = [bytes(chunk_bytes) for _ in range(n)]
                result = yield from comms[rank].alltoall(chunks)
                assert len(result) == n
                finish[rank] = node.env.now
            return program

        cluster.run([make_program(r) for r in range(n)])
        results.append((n, max(finish.values()) / 1000.0))
    return results
