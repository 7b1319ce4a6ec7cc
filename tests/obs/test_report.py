"""The breakdown report: scenarios, stage accounting, and the CLI
(``repro.workloads.run --breakdown``)."""

from dataclasses import asdict, replace

import pytest

import repro.workloads.run as run_module
from repro.obs.report import (
    BreakdownReport,
    critical_path,
    render_waterfall,
    request_roots,
)
from repro.workloads.presets import PRESET_PLANS, PRESETS
from repro.workloads.run import main
from repro.workloads.runner import Scenario, execute_scenario


def run_scenario(name, **fields):
    """The breakdown of preset ``name`` observed with its own fault plan,
    with ``fields`` changed."""
    outcome = execute_scenario(replace(PRESETS[name], **fields),
                               plan=PRESET_PLANS.get(name), observe=True)
    return BreakdownReport.of(outcome)


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
        report = run_scenario("stream-fm2", msg_bytes=1024, n_requests=10)
        (latency,) = report.obs.metrics.histograms("packet.latency_ns")
        assert latency.count == 10   # 1024B fits one FM2 packet per message
        assert report.obs.metrics.meters("link.bytes")
        text = report.render()
        assert "per-stage packet breakdown" in text
        assert "delivered link rates" in text

    def test_pingpong_scenario_both_directions(self):
        report = run_scenario("pingpong-fm2", iterations=5)
        tracks = report.obs.tracks()
        assert "node0/nic.tx" in tracks and "node1/nic.tx" in tracks

    def test_mpi_scenario_has_mpi_spans(self):
        report = run_scenario("mpi-stream-fm2", msg_bytes=256, n_requests=5)
        layers = {layer for layer, *_r in report.span_summary()}
        assert "mpi" in layers and "fm" in layers and "nic" in layers

    def test_copy_bytes_federated_per_node(self):
        report = run_scenario("stream-fm2", msg_bytes=1024, n_requests=5)
        copies = report.obs.metrics.copy_bytes_by_label()
        assert "node1.cpu" in copies
        assert copies["node1.cpu"].get("fm2.deliver", 0) == 5 * 1024

    def test_unknown_scenario_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["no-such-scenario", "--breakdown"])
        assert exit_info.value.code == 2
        assert "unknown preset 'no-such-scenario'" in capsys.readouterr().err


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
        report = run_scenario("stream-fm2", n_requests=3)
        assert request_roots(report.obs) == []


class TestPresets:
    """Any workload preset is a scenario: the one that is the report's
    namesake is the preset, not a private copy, and takes only its own
    kind's fields."""

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
        with pytest.raises(ValueError, match="unknown scenario fields"):
            Scenario.from_dict({**asdict(PRESETS["rpc-open"]),
                                "msg_bytes": 64})
        with pytest.raises(SystemExit) as exit_info:
            main(["rpc-open", "--breakdown", "--set", "msg_bytes=64"])
        assert exit_info.value.code == 2
        assert "unknown scenario fields: ['msg_bytes']" \
            in capsys.readouterr().err


class TestCli:
    def test_all_scenarios_registered(self):
        micro = {name for name, scenario in PRESETS.items()
                 if scenario.kind == "micro"}
        assert micro == {
            "journey-fm1", "journey-fm2", "stream-fm1", "stream-fm2",
            "pingpong-fm2", "mpi-stream-fm2", "rdma-pingpong",
        }

    def test_waterfall_cli_on_a_preset(self, capsys):
        assert main(["rpc-open", "--waterfall", "1"]) == 0
        out = capsys.readouterr().out
        assert "scenario 'rpc-open'" in out
        assert out.count("critical path: app/rpc.request") == 1

    def test_journey_cli_exits_zero(self, capsys):
        assert main(["journey-fm2", "--breakdown"]) == 0
        out = capsys.readouterr().out
        assert "one-packet journey" in out
        assert "credit stalls" in out

    def test_cli_trace_export(self, tmp_path, capsys):
        trace_path = tmp_path / "out.json"
        assert main(["journey-fm2", "--breakdown", "--trace",
                     str(trace_path)]) == 0
        assert trace_path.exists()
        import json

        from repro.obs.export import distinct_tracks, validate_trace_events
        trace = json.loads(trace_path.read_text())
        validate_trace_events(trace)
        assert distinct_tracks(trace) >= 5

    def test_cli_trace_into_a_missing_directory_is_refused_before_the_run(
            self, tmp_path, capsys):
        missing = tmp_path / "missing"
        with pytest.raises(SystemExit) as exit_info:
            main(["journey-fm2", "--breakdown", "--trace",
                  str(missing / "x.json")])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "not created here" in captured.err
        assert captured.out == ""           # the scenario never ran
        assert not missing.exists()

    def test_cli_overrides(self, capsys):
        assert main(["stream-fm2", "--breakdown", "--set", "msg_bytes=512",
                     "--set", "n_requests=4"]) == 0
        assert "stream-fm2" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, field", [
        (["pingpong-fm2", "--breakdown", "--set", "n_requests=0"],
         "n_requests"),
        (["stream-fm2", "--breakdown", "--set", "n_requests=0"],
         "n_requests"),
        (["stream-fm2", "--breakdown", "--set", "msg_bytes=-4"],
         "msg_bytes"),
    ])
    def test_cli_bad_size_or_count_is_refused_before_the_run(
            self, argv, field, capsys, monkeypatch):
        monkeypatch.setattr(run_module, "execute_scenario",
                            lambda *args, **kwargs: pytest.fail("ran"))
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"{field} must be >= " in captured.err
        assert captured.out == ""           # the scenario never ran

    def test_the_breakdown_leaves_the_json_report_as_it_was(self, tmp_path,
                                                           capsys):
        plain, observed = tmp_path / "plain.json", tmp_path / "observed.json"
        assert main(["dataflow-rollup-stall", "-o", str(plain)]) == 0
        assert main(["dataflow-rollup-stall", "-o", str(observed),
                     "--breakdown"]) == 0
        assert observed.read_bytes() == plain.read_bytes()
        assert observed.with_suffix(".runinfo.json").exists()
        out = capsys.readouterr().out
        assert "scenario 'dataflow-rollup-stall'" in out
        assert "credit stalls:" in out

    def test_a_spec_under_a_nic_stall_breaks_down_the_stalled_run(
            self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"kind": "micro", "name": "stream", '
                        '"n_requests": 20, "msg_bytes": 1024}')
        assert main(["--spec", str(spec), "--breakdown"]) == 0
        clean = capsys.readouterr().out
        assert main(["--spec", str(spec), "--breakdown",
                     "--nic-stall", "1:0:100000000:5000"]) == 0
        stalled = capsys.readouterr().out
        assert "scenario 'stream'" in stalled
        assert "fault    stall" in stalled and "fault" not in clean
        assert stalled != clean
