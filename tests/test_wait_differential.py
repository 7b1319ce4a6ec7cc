"""Stack differential for the one-event capped wait.

Every scenario of the elision differential (FM 1.x, FM 2.x, RDMA + NIC
barriers, sharded, replicated under faults, dataflow, grouped mesh) is run
twice — as shipped, and with ``Environment.first_of`` patched back to the
``AnyOf`` it replaced (``tests/_waits.py``) — and must produce
byte-identical reports, the same packet waypoints in the same order and the
same final clock, on strictly fewer events.  The two raw FM streams are the
control: handlers run inside the extractor (inline on FM 1.x, as its
coroutine on FM 2.x) and the receiver polls, so there is no capped wait on
their path and the two counts must be equal.
"""

from __future__ import annotations

import pytest

from tests._waits import waits_as_conditions
from tests.test_elision_differential import SCENARIOS, observed, shipped


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_same_report_same_waypoints_fewer_events(name):
    report, waypoints, cluster = shipped(name)
    with waits_as_conditions():
        ref_report, ref_waypoints, ref_cluster = observed(SCENARIOS[name])
    env, ref_env = cluster.env, ref_cluster.env
    assert report == ref_report
    assert waypoints == ref_waypoints and waypoints
    assert env.now == ref_env.now
    if name in ("fm1-stream", "fm2-stream"):
        assert env.scheduled_events == ref_env.scheduled_events
    else:
        assert env.scheduled_events < ref_env.scheduled_events
