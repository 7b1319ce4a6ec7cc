"""The reference for dataflow-pump tests.

There is no switch for how a node's pump delivers: the reference run is the
same code with the loop it replaced patched back in for a node hosting one
remote-fed stage — no lanes, every parsed record put straight into the
stage's queue in arrival order, blocking while it is full — the
``tests/_elision.py`` pattern.  A node hosting several remote-fed stages
always ran the lane loop, so the reference leaves it alone.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.dataflow.records import EOS_FLAG, Eos
from repro.dataflow.runtime import NodeRuntime

_shipped_pump = NodeRuntime._pump


def _strict_pump(self):
    if len({edge.dst for edge in self.in_edges.values()}) > 1:
        yield from _shipped_pump(self)
        return
    endpoint = self.endpoint
    inbox = endpoint.inbox
    nic = self.node.nic
    edges = self.in_edges
    while True:
        while inbox:
            edge_id, records, flags = inbox.popleft()
            edge = edges[edge_id]
            dst = edge.dst
            for record in records:
                yield dst.queue.put(record)
                edge.received += 1
                self.stats.note_queue_depth(dst.stage_stats, dst.queue.level)
            if flags & EOS_FLAG:
                yield dst.queue.put(Eos(edge_id))
        yield from endpoint.fm.extract(self.extract_budget)
        if not inbox and nic.recv_region.level == 0:
            yield from endpoint.fm.idle_wait()


@contextmanager
def strict_single_stage_pump():
    """Within the block a node with one remote-fed stage runs the strict
    arrival-order loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(NodeRuntime, "_pump", _strict_pump)
        yield


@contextmanager
def lone_lane_bounded_by_its_queue():
    """Within the block a lone lane stages up to one queue's worth, like
    lanes that share a pump: the fold not taken."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(NodeRuntime, "_lane_bound", staticmethod(
            lambda stage, shared: max(1, stage.queue.capacity)))
        yield
