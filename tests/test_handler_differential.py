"""Stack differential for the handler coroutine.

Every scenario of the elision differential is run twice — as shipped, where
an FM 2.x handler is a coroutine of the process inside ``FM_extract``, and
with a ``Process`` per message and the two-event rendezvous it replaced
patched back in (``tests/_handlers.py``) — and must produce byte-identical
reports, the same packet waypoints in the same order and the same final
clock, on strictly fewer events.  The raw FM 1.x stream (handlers inline)
and the RDMA + NIC-barrier run (no handler on the path) are the controls:
equal counts.  Either way a quiesced endpoint holds no stream.
"""

from __future__ import annotations

import pytest

from repro.core.fm2 import FM2

from tests._handlers import handlers_as_processes
from tests.test_elision_differential import SCENARIOS, observed, shipped

NO_FM2_HANDLER = ("fm1-stream", "rdma-and-barriers")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_same_report_same_waypoints_fewer_events(name):
    report, waypoints, cluster = shipped(name)
    with handlers_as_processes():
        ref_report, ref_waypoints, ref_cluster = observed(SCENARIOS[name])
    env, ref_env = cluster.env, ref_cluster.env
    assert report == ref_report
    assert waypoints == ref_waypoints and waypoints
    assert env.now == ref_env.now
    if name in NO_FM2_HANDLER:
        assert env.scheduled_events == ref_env.scheduled_events
    else:
        assert env.scheduled_events < ref_env.scheduled_events
    for run in (cluster, ref_cluster):
        for node in run.nodes:
            if isinstance(node.fm, FM2):
                assert node.fm._streams == {}
                assert node.fm.pending_handlers() == 0
