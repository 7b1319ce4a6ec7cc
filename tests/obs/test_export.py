"""Perfetto/Chrome trace-event export: schema, determinism, track layout."""

import json

import pytest

from repro.obs.export import (
    distinct_tracks,
    dumps_deterministic,
    export_trace,
    split_track,
    trace_events,
    validate_trace_events,
)
from repro.obs.span import Span
from repro.workloads.presets import PRESETS
from repro.workloads.runner import execute_scenario


def journey_observer():
    """The observer of one 16 B FM 2.x journey (``journey-fm2``)."""
    return execute_scenario(PRESETS["journey-fm2"], observe=True).observer


def sample_spans():
    return [
        Span("fm", "inject", 100, 200, "node0/fm", {"bytes": 16}),
        Span("nic", "tx_firmware", 200, 350, "node0/nic.tx", {}),
        Span("fabric", "wire", 350, 420, "fabric/l0", {}),
        Span("nic", "rx_dma", 420, 600, "node1/nic.rx", {}),
        Span("fm", "FM_extract", 600, 700, "node1/fm", {}),
    ]


class TestSplitTrack:
    def test_process_thread(self):
        assert split_track("node0/nic.tx") == ("node0", "nic.tx")

    def test_bare_name(self):
        assert split_track("fabric") == ("fabric", "main")

    def test_empty(self):
        assert split_track("") == ("unknown", "main")


class TestTraceEvents:
    def test_schema_valid(self):
        trace = trace_events(sample_spans())
        validate_trace_events(trace)

    def test_metadata_names_tracks(self):
        trace = trace_events(sample_spans())
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta if e["name"] == "process_name"}
        assert names == {"node0", "node1", "fabric"}

    def test_x_events_microseconds(self):
        trace = trace_events([Span("fm", "inject", 1500, 3500, "node0/fm")])
        (event,) = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert event["ts"] == 1.5
        assert event["dur"] == 2.0
        assert event["cat"] == "fm"

    def test_pids_deterministic_from_sorted_names(self):
        trace = trace_events(sample_spans())
        meta = {e["args"]["name"]: e["pid"]
                for e in trace["traceEvents"]
                if e["ph"] == "M" and e["name"] == "process_name"}
        # fabric < node0 < node1 lexicographically -> pids 1, 2, 3.
        assert meta == {"fabric": 1, "node0": 2, "node1": 3}

    def test_distinct_tracks_counts_x_rows(self):
        assert distinct_tracks(trace_events(sample_spans())) == 5

    def test_validate_rejects_bad_events(self):
        with pytest.raises(ValueError):
            validate_trace_events({"traceEvents": [{"ph": "Z"}]})
        with pytest.raises(ValueError):
            validate_trace_events({"traceEvents": "nope"})
        with pytest.raises(ValueError):
            validate_trace_events([])


class TestDeterministicDumps:
    def test_sorted_keys_no_spaces(self):
        text = dumps_deterministic({"b": 1, "a": [1, 2]})
        assert text == '{"a":[1,2],"b":1}\n'

    def test_same_spans_same_bytes(self):
        first = dumps_deterministic(trace_events(sample_spans()))
        second = dumps_deterministic(trace_events(sample_spans()))
        assert first == second


class TestExportedRun:
    def observed_trace_bytes(self):
        observer = journey_observer()
        return dumps_deterministic(trace_events(observer.spans))

    def test_fm2_pingpong_trace_valid_with_5_tracks(self, tmp_path):
        """The acceptance criterion: a 2-node FM2 exchange exports valid
        trace-event JSON with at least 5 distinct component tracks."""
        observer = journey_observer()
        path = export_trace(observer, tmp_path / "journey.json")
        trace = json.loads(path.read_text())
        validate_trace_events(trace)
        assert distinct_tracks(trace) >= 5

    def test_export_byte_identical_across_runs(self):
        assert self.observed_trace_bytes() == self.observed_trace_bytes()

    def test_export_creates_directories(self, tmp_path):
        observer = journey_observer()
        path = export_trace(observer, tmp_path / "deep" / "nested" / "t.json")
        assert path.exists()
