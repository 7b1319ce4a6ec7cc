"""End-to-end causal tracing: context propagation, flows, zero cost."""

from __future__ import annotations

import json

from repro.obs.export import (
    dumps_deterministic,
    flow_pid_pairs,
    trace_events,
    validate_trace_events,
)
from repro.workloads.presets import PRESETS
from repro.workloads.rpc_kind import RpcScenario
from repro.workloads.runner import execute_scenario


def small_rpc(fm_version: int = 2, **overrides) -> RpcScenario:
    spec = dict(
        name=f"trace-fm{fm_version}", kind="rpc", fm_version=fm_version,
        machine="ppro" if fm_version == 2 else "sparc",
        n_nodes=3, arrival="closed", think_ns=5_000, n_requests=6)
    spec.update(overrides)
    return RpcScenario(**spec)


class TestTracePropagation:
    def test_every_request_minted_one_trace(self):
        outcome = execute_scenario(small_rpc(), observe=True)
        obs = outcome.observer
        roots = [s for s in obs.spans
                 if s.trace_id is not None and s.parent_id is None]
        assert len(roots) == 12                 # 2 clients x 6 requests
        assert len({r.trace_id for r in roots}) == 12
        assert all(r.name == "rpc.request" for r in roots)
        assert sorted(obs.trace_ids()) == sorted(r.trace_id for r in roots)

    def test_two_level_tree_shape(self):
        """Each trace: one client root, one server hop, transport leaves
        parented to whichever side was executing when they happened."""
        outcome = execute_scenario(small_rpc(), observe=True)
        obs = outcome.observer
        for trace_id in obs.trace_ids():
            spans = obs.spans_for_trace(trace_id)
            roots = [s for s in spans if s.parent_id is None]
            assert len(roots) == 1
            serves = [s for s in spans if s.name == "rpc.serve"]
            assert len(serves) == 1
            assert serves[0].parent_id == roots[0].span_id
            ids = {s.span_id for s in spans}
            for span in spans:
                if span.parent_id is not None:
                    assert span.parent_id in ids   # no dangling parents
            # Transport spans exist on both sides of the hop.
            layers = {s.layer for s in spans}
            assert "fm" in layers and "nic" in layers

    def test_server_side_spans_carry_client_trace(self):
        """The NIC/FM spans on the server node join the client's trace —
        the context actually crossed the wire inside the packet."""
        outcome = execute_scenario(small_rpc(), observe=True)
        obs = outcome.observer
        for trace_id in obs.trace_ids():
            spans = obs.spans_for_trace(trace_id)
            nodes = {s.track.split("/", 1)[0] for s in spans}
            assert len(nodes) >= 2, f"trace {trace_id} stayed on {nodes}"

    def test_fm1_transport_propagates_too(self):
        outcome = execute_scenario(small_rpc(fm_version=1, n_nodes=2,
                                             n_requests=4), observe=True)
        trace = trace_events(outcome.observer.spans)
        validate_trace_events(trace)
        pairs = flow_pid_pairs(trace)
        assert pairs and all(a != b for a, b in pairs)


class TestFlowExport:
    def test_sharded_trace_flows_across_nodes(self):
        """Acceptance criterion: the sharded preset exports a valid trace
        with flow arrows spanning at least two nodes."""
        outcome = execute_scenario(PRESETS["rpc-sharded"], observe=True)
        trace = trace_events(outcome.observer.spans)
        validate_trace_events(trace)
        pairs = flow_pid_pairs(trace)
        assert len(pairs) >= 2
        assert all(src != dst for src, dst in pairs)
        # Request and response directions both appear: client->server pairs
        # and server->client pairs.
        assert {tuple(sorted(p)) for p in pairs} != pairs

    def test_x_events_carry_trace_args(self):
        outcome = execute_scenario(small_rpc(), observe=True)
        trace = trace_events(outcome.observer.spans)
        traced = [e for e in trace["traceEvents"]
                  if e["ph"] == "X" and "trace_id" in e["args"]]
        assert traced
        for event in traced:
            assert event["args"]["span_id"] >= 1
        untraced = [e for e in trace["traceEvents"]
                    if e["ph"] == "X" and "trace_id" not in e["args"]]
        # Non-request activity (e.g. credit control) stays traceless.
        for event in untraced:
            assert "span_id" not in event["args"]

    def test_flow_ids_pair_up(self):
        outcome = execute_scenario(small_rpc(), observe=True)
        events = trace_events(outcome.observer.spans)["traceEvents"]
        starts = sorted(e["id"] for e in events if e["ph"] == "s")
        ends = sorted(e["id"] for e in events if e["ph"] == "f")
        assert starts == ends and len(set(starts)) == len(starts)

    def test_export_round_trips_through_json(self):
        outcome = execute_scenario(small_rpc(), observe=True)
        text = dumps_deterministic(trace_events(outcome.observer.spans))
        validate_trace_events(json.loads(text))


class TestTraceDeterminismAndCost:
    def test_traced_export_byte_identical(self):
        def run_bytes() -> str:
            outcome = execute_scenario(PRESETS["rpc-sharded"], observe=True)
            return dumps_deterministic(trace_events(outcome.observer.spans))
        assert run_bytes() == run_bytes()

    def test_tracing_is_zero_simulated_cost(self):
        """Observed and unobserved runs produce byte-identical reports:
        minting/binding trace contexts never touches the event heap."""
        scenario = PRESETS["rpc-sharded"]
        off = dumps_deterministic(
            execute_scenario(scenario, observe=False).report)
        on = dumps_deterministic(
            execute_scenario(scenario, observe=True).report)
        assert off == on

    def test_bound_contexts_die_with_their_handler(self):
        """FM 2.x seeds every handler process with its packet's context;
        retiring the stream drops it again, so after a run the observer
        pins no finished process (and the report is still the plain one)."""
        scenario = PRESETS["rpc-sharded"]
        outcome = execute_scenario(scenario, observe=True)
        finished = [p for p in outcome.observer._bound if p.triggered]
        assert finished == []
        assert outcome.report == execute_scenario(scenario).report

    def test_trace_context_rides_packets_not_globals(self):
        """Concurrent clients interleave, yet every span lands in exactly
        the trace of the request that caused it (no cross-talk)."""
        outcome = execute_scenario(
            small_rpc(arrival="open", rate_rps=150_000.0, n_requests=8),
            observe=True)
        obs = outcome.observer
        for trace_id in obs.trace_ids():
            spans = obs.spans_for_trace(trace_id)
            root = next(s for s in spans if s.parent_id is None)
            req_id = root.attrs["req_id"]
            serve = next(s for s in spans if s.name == "rpc.serve")
            assert serve.attrs["req_id"] == req_id
