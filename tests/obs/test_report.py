"""The breakdown report: scenarios, stage accounting, and the CLI."""

import pytest

from repro.obs.report import (
    SCENARIOS,
    critical_path,
    main,
    render_waterfall,
    request_roots,
    run_scenario,
)
from repro.workloads.presets import PRESETS


class TestJourneyScenario:
    def test_stage_sum_equals_end_to_end(self):
        """Acceptance criterion: for the FM2 one-packet case the journey's
        stage durations sum exactly to the end-to-end latency."""
        report = run_scenario("journey-fm2")
        journey = report.journey
        assert journey is not None
        assert sum(d for _s, d in journey.stages()) == journey.total_ns

    def test_aggregate_stages_cover_the_packet(self):
        report = run_scenario("journey-fm2")
        stages = report.stage_rows()
        assert stages, "per-stage histograms missing"
        for _stage, count, p50, p99, total in stages:
            assert count == 1
            assert p50 == p99 == total
        (latency,) = report.obs.metrics.histograms("packet.latency_ns")
        # submit -> extract equals the sum of the waypoint stages.
        assert latency.total == sum(total for *_x, total in stages)

    def test_fm1_journey_runs(self):
        report = run_scenario("journey-fm1")
        assert report.cluster.fm_version == 1
        assert report.journey is not None


class TestStreamScenarios:
    def test_stream_fm2_aggregates_all_packets(self):
        report = run_scenario("stream-fm2", msg_bytes=1024, n_messages=10)
        (latency,) = report.obs.metrics.histograms("packet.latency_ns")
        assert latency.count == 10   # 1024B fits one FM2 packet per message
        assert report.obs.metrics.meters("link.bytes")
        text = report.render()
        assert "per-stage packet breakdown" in text
        assert "delivered link rates" in text

    def test_pingpong_scenario_both_directions(self):
        report = run_scenario("pingpong-fm2", n_messages=5)
        tracks = report.obs.tracks()
        assert "node0/nic.tx" in tracks and "node1/nic.tx" in tracks

    def test_mpi_scenario_has_mpi_spans(self):
        report = run_scenario("mpi-stream-fm2", msg_bytes=256, n_messages=5)
        layers = {layer for layer, *_r in report.span_summary()}
        assert "mpi" in layers and "fm" in layers and "nic" in layers

    def test_copy_bytes_federated_per_node(self):
        report = run_scenario("stream-fm2", msg_bytes=1024, n_messages=5)
        copies = report.obs.metrics.copy_bytes_by_label()
        assert "node1.cpu" in copies
        assert copies["node1.cpu"].get("fm2.deliver", 0) == 5 * 1024

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_scenario("no-such-scenario")


@pytest.fixture(scope="module")
def rpc_open():
    """The ``rpc-open`` preset observed: 3 clients x 60 traced requests."""
    return run_scenario("rpc-open")


class TestRequestWaterfalls:
    def test_rpc_scenario_has_traced_roots(self, rpc_open):
        roots = request_roots(rpc_open.obs)
        # 3 clients x 60 requests, every one traced from the client side.
        assert len(roots) == 180
        assert all(r.name == "rpc.request" for r in roots)
        assert all(r.parent_id is None and r.trace_id is not None
                   for r in roots)

    def test_critical_path_descends_to_a_leaf(self, rpc_open):
        root = request_roots(rpc_open.obs)[0]
        path = critical_path(rpc_open.obs, root)
        assert path[0] is root
        # Each step is a child of the previous and the serve hop is on it.
        for parent, child in zip(path, path[1:]):
            assert child.parent_id == parent.span_id
        assert any(s.name == "rpc.serve" for s in path)

    def test_waterfall_renders_tree(self, rpc_open):
        root = request_roots(rpc_open.obs)[0]
        text = render_waterfall(rpc_open.obs, root)
        assert "rpc.request" in text and "rpc.serve" in text
        assert "=" in text    # critical path highlighted
        # Every span row of the trace appears.
        assert len(text.splitlines()) == \
            2 + len(rpc_open.obs.spans_for_trace(root.trace_id))

    def test_non_rpc_scenarios_have_no_roots(self):
        report = run_scenario("stream-fm2", n_messages=3)
        assert request_roots(report.obs) == []


class TestPresets:
    """Any workload preset is a scenario: the one that is the report's
    namesake is the preset, not a private copy, and runs as defined."""

    def test_rpc_sharded_is_the_preset(self):
        report = run_scenario("rpc-sharded")
        preset = PRESETS["rpc-sharded"]
        clients = preset.n_nodes - preset.servers
        assert len(request_roots(report.obs)) == clients * preset.n_requests
        assert "per-stage packet breakdown" in report.render()

    def test_a_preset_keeps_its_fault_plan_and_reports_its_stalls(self):
        report = run_scenario("dataflow-rollup-stall")
        count, stalled_ns = report.credit_stalls()
        assert count > 0 and stalled_ns > 0
        assert f"credit stalls: {count} ({stalled_ns} ns stalled)" \
            in report.render()

    def test_a_preset_takes_no_size_or_count(self, capsys):
        with pytest.raises(ValueError, match="runs as defined"):
            run_scenario("rpc-open", n_messages=4)
        with pytest.raises(SystemExit) as exit_info:
            main(["rpc-open", "--msg-bytes", "64"])
        assert exit_info.value.code == 2
        assert "runs as defined" in capsys.readouterr().err


class TestCli:
    def test_all_scenarios_registered(self):
        assert set(SCENARIOS) == {
            "journey-fm1", "journey-fm2", "stream-fm1", "stream-fm2",
            "pingpong-fm2", "mpi-stream-fm2",
        }
        assert not set(SCENARIOS) & set(PRESETS)

    def test_waterfall_cli_on_a_preset(self, capsys):
        assert main(["rpc-open", "--waterfall", "1"]) == 0
        out = capsys.readouterr().out
        assert "scenario 'rpc-open'" in out
        assert out.count("critical path: app/rpc.request") == 1

    def test_journey_cli_exits_zero(self, capsys):
        assert main(["journey-fm2"]) == 0
        out = capsys.readouterr().out
        assert "one-packet journey" in out
        assert "credit stalls" in out

    def test_cli_trace_export(self, tmp_path, capsys):
        trace_path = tmp_path / "out.json"
        assert main(["journey-fm2", "--trace", str(trace_path)]) == 0
        assert trace_path.exists()
        import json

        from repro.obs.export import distinct_tracks, validate_trace_events
        trace = json.loads(trace_path.read_text())
        validate_trace_events(trace)
        assert distinct_tracks(trace) >= 5

    def test_cli_overrides(self, capsys):
        assert main(["stream-fm2", "--msg-bytes", "512",
                     "--messages", "4"]) == 0
        assert "stream-fm2" in capsys.readouterr().out
