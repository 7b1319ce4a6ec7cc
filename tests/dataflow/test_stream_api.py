"""Pipeline graphs: construction, validation, window semantics."""

from __future__ import annotations

import pytest

from repro.dataflow.graph import StreamGraph
from repro.dataflow.ops import (AGG_OPS, FILTER_OPS, MAP_OPS, WindowState,
                                lookup)
from repro.dataflow.records import EDGE_HEADER, EOS_FLAG, RECORD, pack_message


def fanout_graph(n: int, selector: str, kind: str = "map", **lane):
    """source -> ``n`` lanes through ``selector`` -> sink: stage ids are
    src=0, lanes 1..n, sink=n+1."""
    g = StreamGraph()
    src = g.add_stage("src", "source")
    lanes = tuple(g.add_stage(f"w.{b}", kind, branch=b, **lane)
                  for b in range(n))
    g.connect(src, lanes, selector)
    sink = g.add_stage("sink", "sink")
    for lane_id in lanes:
        g.connect(lane_id, (sink,))
    return g


class TestGraphConstruction:
    def test_linear_pipeline_shape(self):
        g = StreamGraph()
        ids = [g.add_stage("src", "source"),
               g.add_stage("m", "map", op="double"),
               g.add_stage("f", "filter", op="even_keys"),
               g.add_stage("sink", "sink")]
        for src, dst in zip(ids, ids[1:]):
            g.connect(src, (dst,))
        g.validate()
        assert ids == [0, 1, 2, 3]
        assert [s.kind for s in g.stages] == ["source", "map", "filter",
                                              "sink"]
        # Forward-only construction: creation order is topological.
        for group in g.groups:
            assert all(dst > group.src for dst in group.dsts)

    def test_partition_materialises_lanes(self):
        g = fanout_graph(3, "hash", "window", op="max", window_ns=1_000)
        g.validate()
        names = [s.name for s in g.stages]
        assert names == ["src", "w.0", "w.1", "w.2", "sink"]
        fanout = g.downstream_groups(0)[0]
        assert fanout.selector == "hash"
        assert len(fanout.dsts) == 3
        # Gather: the sink takes one direct edge per lane.
        assert len(g.upstreams(4)) == 3

    def test_scatter_is_round_robin(self):
        g = fanout_graph(2, "round_robin")
        g.validate()
        assert g.downstream_groups(0)[0].selector == "round_robin"

    def test_merge_connects_every_source(self):
        g = StreamGraph()
        sources = [g.add_stage(f"s{i}", "source") for i in range(3)]
        m = g.add_stage("m", "map")
        for src in sources:
            g.connect(src, (m,))
        g.connect(m, (g.add_stage("sink", "sink"),))
        g.validate()
        assert g.upstreams(3) == [0, 1, 2]

    def test_lane_branch_indices(self):
        g = fanout_graph(4, "hash", "window", op="sum", window_ns=1_000)
        branches = [s.branch for s in g.stages if s.name.startswith("w.")]
        assert branches == [0, 1, 2, 3]

    def test_every_named_operator_is_a_stage(self):
        g = StreamGraph()
        for kind, ops, extra in (("map", MAP_OPS, {}),
                                 ("filter", FILTER_OPS, {}),
                                 ("window", AGG_OPS,
                                  {"window_ns": 1_000, "slide_ns": 250})):
            for op in ops:
                g.add_stage(f"{kind}.{op}", kind, op=op, **extra)
        assert len(g.stages) == len(MAP_OPS) + len(FILTER_OPS) + len(AGG_OPS)


class TestGraphValidation:
    def test_duplicate_stage_name_rejected(self):
        g = StreamGraph()
        g.add_stage("src", "source")
        with pytest.raises(ValueError, match="duplicate"):
            g.add_stage("src", "source")

    def test_dangling_source_rejected(self):
        g = StreamGraph()
        a = g.add_stage("a", "source")
        g.connect(a, (g.add_stage("sink", "sink"),))
        g.add_stage("lonely", "source")
        with pytest.raises(ValueError, match="feeds nothing"):
            g.validate()

    def test_sinkless_graph_rejected(self):
        g = StreamGraph()
        a = g.add_stage("a", "source")
        g.connect(a, (g.add_stage("m", "map"),))
        with pytest.raises(ValueError, match="no sink"):
            g.validate()

    def test_unknown_map_op_rejected(self):
        g = StreamGraph()
        with pytest.raises(ValueError, match="unknown map op"):
            g.add_stage("m", "map", op="frobnicate")

    def test_unknown_aggregation_rejected(self):
        g = StreamGraph()
        with pytest.raises(ValueError, match="unknown aggregation"):
            g.add_stage("w", "window", op="median", window_ns=1_000)

    def test_bad_partition_selector_rejected(self):
        g = fanout_graph(2, "hash")
        with pytest.raises(ValueError, match="selector must be one of"):
            g.connect(0, (1, 2), "random")

    def test_slide_must_divide_width(self):
        g = StreamGraph()
        with pytest.raises(ValueError, match="divide"):
            g.add_stage("w", "window", window_ns=1_000, slide_ns=300)

    def test_connect_only_points_forward_to_existing_stages(self):
        g = fanout_graph(2, "hash")
        with pytest.raises(ValueError, match="point forward"):
            g.connect(3, (1,))                  # sink back to a lane
        with pytest.raises(ValueError, match="point forward"):
            g.connect(1, (1,))                  # a self-loop
        with pytest.raises(ValueError, match="point forward"):
            g.connect(0, (4,))                  # no stage 4 yet
        assert len(g.groups) == 3               # nothing was added

    def test_lookup_lists_choices(self):
        with pytest.raises(ValueError) as exc:
            lookup(MAP_OPS, "nope", "map op")
        assert "identity" in str(exc.value)


class TestWindowState:
    def test_tumbling_folds_per_key_and_flushes_lazily(self):
        w = WindowState(100, 0, "sum")
        assert w.add(1, 10, 1, ts=10, now=10) == []
        assert w.add(1, 5, 2, ts=60, now=60) == []
        # A record in the next bucket closes the previous window.
        out = w.add(2, 7, 1, ts=120, now=120)
        assert out == [(1, 15, 3, 60)]
        assert w.final_flush() == [(2, 7, 1, 120)]

    def test_sliding_window_attributes_each_count_once(self):
        w = WindowState(200, 100, "sum")      # k = 2 overlapping buckets
        w.add(1, 10, 1, ts=50, now=50)
        out1 = w.add(1, 20, 1, ts=150, now=150)
        out2 = w.add(2, 5, 1, ts=250, now=250)
        out3 = w.final_flush()
        everything = out1 + out2 + out3
        # Values span the full window; counts attributed exactly once.
        assert (1, 10, 1, 50) in everything       # window [-100, 100)
        assert (1, 30, 1, 150) in everything      # window [0, 200): 10+20
        assert sum(count for _, _, count, _ in everything) == 3

    def test_count_aggregation_merges_buckets_with_sum(self):
        w = WindowState(200, 100, "count")
        w.add(1, 99, 1, ts=50, now=50)
        w.add(1, 42, 1, ts=60, now=60)
        w.add(1, 7, 1, ts=150, now=150)
        everything = w.final_flush()
        # Window [0, 200) saw 3 records of key 1: count-agg value is 3,
        # not 2 + 1-via-the-fold (the bucket-merge must use sum).
        assert (1, 3, 1, 150) in everything

    def test_max_aggregation(self):
        w = WindowState(100, 0, "max")
        w.add(5, 3, 1, ts=1, now=1)
        w.add(5, 9, 1, ts=2, now=2)
        w.add(5, 4, 1, ts=3, now=3)
        assert w.final_flush() == [(5, 9, 3, 3)]

    def test_aggregates_emitted_in_sorted_key_order(self):
        w = WindowState(100, 0, "sum")
        for key in (9, 2, 7, 4):
            w.add(key, 1, 1, ts=1, now=1)
        keys = [key for key, _, _, _ in w.final_flush()]
        assert keys == sorted(keys)

    def test_empty_final_flush(self):
        assert WindowState(100, 0, "sum").final_flush() == []


class TestWireFormat:
    def test_message_packs_header_record_and_padding(self):
        msg = pack_message(7, (1, 2, 3, 4), flags=0, record_bytes=64)
        assert EDGE_HEADER.unpack_from(msg) == (7, 1, 0)
        assert RECORD.unpack_from(msg, EDGE_HEADER.size) == (1, 2, 3, 4)
        # Padding to the per-record wire footprint beyond the 32 used.
        assert len(msg) == EDGE_HEADER.size + 64

    def test_eos_message_is_a_bare_header(self):
        msg = pack_message(7, None, flags=EOS_FLAG, record_bytes=64)
        assert EDGE_HEADER.unpack_from(msg) == (7, 0, EOS_FLAG)
        assert len(msg) == EDGE_HEADER.size
