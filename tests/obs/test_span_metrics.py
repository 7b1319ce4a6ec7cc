"""Spans, the metrics registry, and the Observer lifecycle."""

import pytest

from repro.cluster import Cluster
from repro.configs import PPRO_FM2
from repro.hardware.memory import CopyMeter
from repro.hardware.packet import Site
from repro.obs.metrics import DEFAULT_WINDOW_NS, Metrics, Reservoir
from repro.obs.export import trace_events
from repro.obs.observer import Observer
from repro.obs.span import LAYER_ORDER, Span, layer_rank
from repro.obs.timeseries import RateSeries
from repro.simkernel import Environment


class TestSpan:
    def test_duration_and_key(self):
        span = Span("fm", "inject", 100, 250, track="node0/fm",
                    attrs={"bytes": 16})
        assert span.duration_ns == 150
        assert span.key() == ("fm", "inject")

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Span("fm", "inject", 250, 100)

    def test_layer_rank_orders_top_down(self):
        ranks = [layer_rank(layer) for layer in LAYER_ORDER]
        assert ranks == sorted(ranks)
        assert layer_rank("app") < layer_rank("fm") < layer_rank("fabric")
        assert layer_rank("no-such-layer") > layer_rank("fabric")


class TestHistogram:
    def test_percentiles_nearest_rank(self):
        hist = Reservoir("lat")
        for value in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]:
            hist.record(value)
        assert hist.p50 == 50
        assert hist.p99 == 100
        assert hist.percentile(0) == 10
        assert hist.percentile(100) == 100
        assert hist.mean == 55.0
        assert hist.count == 10
        assert hist.total == 550

    def test_single_sample(self):
        hist = Reservoir("lat")
        hist.record(42)
        assert hist.p50 == hist.p99 == 42

    def test_empty_raises(self):
        hist = Reservoir("lat")
        with pytest.raises(ValueError):
            _ = hist.p50
        with pytest.raises(ValueError):
            _ = hist.mean

    def test_bad_percentile_rejected(self):
        hist = Reservoir("lat")
        hist.record(1)
        with pytest.raises(ValueError):
            hist.percentile(101)


class TestRateMeter:
    """A rate meter is the registry's :class:`RateSeries`."""

    def test_buckets_by_window(self, env):
        meter = Metrics(env).meter("bytes", window_ns=100)
        meter.observe(10)

        def worker(env):
            yield env.timeout(250)
            meter.observe(20)
        env.run(until=env.process(worker(env)))
        assert meter.total == 30
        assert meter.points() == [[0, 10], [200, 20]]

    def test_mean_rate(self, env):
        metrics = Metrics(env)
        meter = metrics.meter("bytes", window_ns=1000)
        meter.observe(2000)   # 2000 bytes in one 1 us window = 2000 MB/s
        assert meter.mean_rate_mbs() == pytest.approx(2000.0)
        assert metrics.meter("idle").mean_rate_mbs() == 0.0

    def test_bad_window_rejected(self, env):
        with pytest.raises(ValueError, match="window"):
            Metrics(env).meter("x", window_ns=0)

    def test_matches_the_bucketing_it_replaced(self, env):
        """A hand-driven sequence, including a mark dated before ``now``,
        gives the buckets, total and mean rate of the old dedicated
        meter: ``at // window`` buckets, a running sum, and
        ``total / (spanned windows * window)``."""
        meter = Metrics(env).meter("bytes", window_ns=100)
        assert isinstance(meter, RateSeries)

        def worker(env):
            meter.observe(7)                          # t=0 -> window 0
            yield env.timeout(320)
            meter.observe(30, at=40)                  # dated t=40 -> window 0
            meter.observe(5)                          # t=320 -> window 3
            yield env.timeout(200)
            meter.observe(11, at=env.now - 1)         # t=519 -> window 5
        env.run(until=env.process(worker(env)))
        assert meter.points() == [[0, 37], [300, 5], [500, 11]]
        assert meter.total == 53
        # Windows 0..5 spanned: 53 bytes over 600 ns.
        assert meter.mean_rate_mbs() == 53 / (6 * 100 / 1e9) / 1e6
        with pytest.raises(ValueError, match="window"):
            Metrics(env).meter("bytes", window_ns=0)


class TestMetrics:
    def test_histogram_get_or_create_by_labels(self):
        metrics = Metrics()
        a = metrics.histogram("stage", stage="wire")
        b = metrics.histogram("stage", stage="wire")
        c = metrics.histogram("stage", stage="dma")
        assert a is b
        assert a is not c

    def test_label_subset_queries_sorted(self):
        metrics = Metrics()
        metrics.histogram("q", node="1", dir="rx").record(1)
        metrics.histogram("q", node="0", dir="rx").record(2)
        metrics.histogram("q", node="0", dir="tx").record(3)
        node0 = metrics.histograms("q", node="0")
        assert len(node0) == 2
        assert [h.labels["dir"] for h in node0] == ["rx", "tx"]
        assert len(metrics.histograms("q")) == 3
        assert metrics.histograms("other") == []

    def test_meter_requires_env(self):
        with pytest.raises(RuntimeError):
            Metrics().meter("bytes")

    def test_meter_get_or_create(self, env):
        metrics = Metrics(env)
        assert metrics.meter("b", link="l0") is metrics.meter("b", link="l0")
        assert len(metrics.meters("b")) == 1
        assert metrics.meters("b")[0].interval_ns == DEFAULT_WINDOW_NS

    def test_meter_window_mismatch_rejected(self, env):
        metrics = Metrics(env)
        metrics.meter("b", 500, link="l0")
        assert metrics.meter("b", 500, link="l0").interval_ns == 500
        with pytest.raises(ValueError, match="500 ns window"):
            metrics.meter("b", link="l0")

    def test_non_str_label_values_are_findable(self, env):
        """Label values are normalised to ``str`` where the key is built,
        so an instrument created with ``nic=3`` answers both spellings."""
        metrics = Metrics(env)
        hist = metrics.histogram("x", nic=3)
        meter = metrics.meter("y", link=7)
        assert metrics.histogram("x", nic="3") is hist
        assert metrics.histograms("x", nic=3) == [hist]
        assert metrics.histograms("x", nic="3") == [hist]
        assert metrics.meters("y", link=7) == [meter]
        assert metrics.meters("y", link="7") == [meter]
        assert hist.labels == {"nic": "3"} and meter.labels == {"link": "7"}
        assert list(metrics.as_dict()["histograms"]) == ["x{nic=3}"]
        assert list(metrics.as_dict()["meters"]) == ["y{link=7}"]

    def test_federates_counters_and_copy_meters(self):
        metrics = Metrics()
        metrics.counters("mpi.rank0")["spills"] += 3
        assert metrics.counters("mpi.rank0") is metrics.counters("mpi.rank0")
        meter = CopyMeter()
        meter.record(64, "fm1.staging_copy")
        metrics.register_copy_meter("node0.cpu", meter)
        assert metrics.counters("mpi.rank0")["spills"] == 3
        assert metrics.as_dict()["counters"] == {"mpi.rank0": {"spills": 3}}
        assert metrics.copy_bytes_by_label() == {
            "node0.cpu": {"fm1.staging_copy": 64}
        }

    def test_duplicate_registration_rejected(self):
        metrics = Metrics()
        metrics.register_copy_meter("y", CopyMeter())
        with pytest.raises(ValueError):
            metrics.register_copy_meter("y", CopyMeter())

    def test_as_dict_summary(self, env):
        metrics = Metrics(env)
        metrics.histogram("lat", stage="wire").record(100)
        metrics.meter("bytes", link="l0").observe(500)
        summary = metrics.as_dict()
        assert summary["histograms"]["lat{stage=wire}"]["count"] == 1
        assert summary["histograms"]["lat{stage=wire}"]["p50"] == 100
        assert summary["meters"]["bytes{link=l0}"]["total"] == 500


class TestObserver:
    def test_attach_detach(self, env):
        observer = Observer().attach(env)
        assert env.obs is observer
        assert observer.metrics.env is env
        observer.detach(env)
        assert env.obs is None

    def test_detach_only_removes_self(self, env):
        first = Observer().attach(env)
        second = Observer().attach(env)
        first.detach(env)          # no longer installed; must not clobber
        assert env.obs is second

    def test_span_default_end_is_now(self, env):
        observer = Observer().attach(env)

        def worker(env):
            yield env.timeout(40)
            observer.record(Site("fm", "inject", "node0/fm", "bytes"), 10, 16)
        env.run(until=env.process(worker(env)))
        (span,) = observer.spans
        assert (span.t_start, span.t_end) == (10, 40)
        assert span.attrs == {"bytes": 16}

    def test_span_before_attach_raises(self):
        """A real exception, not an ``assert``: it must survive ``-O``."""
        observer = Observer()
        site = Site("fm", "inject", "")
        with pytest.raises(RuntimeError, match=r"record\(\) before attach\(\)"):
            observer.record(site, 0)
        observer.record(site, 0, t_end=5)   # needs no clock
        span = observer.spans[-1]
        assert (span.t_end, span.trace_id, span.span_id) == (5, None, 1)

    def test_queries(self, env):
        observer = Observer().attach(env)
        observer.record(Site("fm", "inject", "node0/fm"), 0, t_end=5)
        observer.record(Site("nic", "tx_firmware", "node0/nic.tx"), 5, t_end=9)
        observer.record(Site("fm", "inject", "node1/fm"), 9, t_end=12)
        assert len(observer.spans_for(layer="fm")) == 2
        assert len(observer.spans_for(layer="fm", track="node0/fm")) == 1
        assert observer.tracks() == ["node0/fm", "node0/nic.tx", "node1/fm"]
        assert len(observer) == 3

    def test_spans_read_mid_run_equal_one_read_at_the_end(self):
        """The lazy view builds rows once, in order, whatever the reads,
        across the batches the log packs its rows in."""
        def record(reads_at):
            env = Environment()
            observer = Observer().attach(env)
            reads = []
            injects = [Site("fm", "inject", f"node{node}/fm", "bytes")
                       for node in range(2)]
            tx = Site("nic", "tx_firmware", "", "seq")

            def worker(env):
                for step in range(2500):
                    yield 10
                    observer.record(injects[step % 2], env.now - 5, step)
                    if step % 7 == 1:
                        observer.record(tx, env.now - 3, step,
                                        ctx=observer.mint_trace())
                    if step in reads_at:
                        reads.append(list(observer.spans))
            env.process(worker(env))
            env.run()
            return observer.spans, reads

        read_thrice, (first, second) = record(reads_at=(1, 1500))
        read_once, _ = record(reads_at=())
        assert read_thrice == read_once
        assert read_thrice[:len(first)] == first
        assert read_thrice[:len(second)] == second
        assert len(read_once) == 2500 + 357 and len(second) > 1024
        assert [(s.t_start, s.t_end, s.track, s.attrs, s.trace_id,
                 s.span_id, s.parent_id) for s in first] == [
            (5, 10, "node0/fm", {"bytes": 0}, None, 1, None),
            (15, 20, "node1/fm", {"bytes": 1}, None, 2, None),
            (17, 20, "", {"seq": 1}, 1, 4, 3)]

    def test_len_counts_rows_and_builds_no_span(self, env, monkeypatch):
        import repro.obs.observer as observer_module
        observer = Observer().attach(env)
        inject = Site("fm", "inject", "", "bytes")
        for start in range(3):
            observer.record(inject, start, 8, t_end=start + 1)
        observer.spans                     # the first read builds three
        observer.record(Site("fm", "extract", ""), 4, t_end=6)

        def no_span(*args):
            raise AssertionError("len() built a Span")
        monkeypatch.setattr(observer_module, "Span", no_span)
        assert len(observer) == 4
        monkeypatch.undo()
        assert len(observer) == len(observer.spans) == 4

    def test_reversed_interval_raises_at_record_time(self, env):
        observer = Observer().attach(env)
        with pytest.raises(ValueError,
                           match=r"span fm/inject ends before it starts "
                                 r"\(9 \.\. 4\)"):
            observer.record(Site("fm", "inject", ""), 9, t_end=4)
        assert len(observer) == 0 and observer.spans == []

    def test_record_takes_one_value_per_site_key(self, env):
        """Values are positional, so a count that does not match the site's
        keys would misalign every later span's attrs: the site's first
        span refuses it, and records nothing."""
        observer = Observer().attach(env)
        site = Site("fm", "inject", "node0/fm", "dest", "bytes")
        with pytest.raises(TypeError, match="inject"):
            observer.record(site, 0, 1, t_end=5)
        assert len(observer) == 0 and observer.tracks() == []
        observer.record(site, 0, 1, 16, t_end=5)
        assert observer.spans[0].attrs == {"dest": 1, "bytes": 16}

    def test_a_none_value_leaves_its_attr_out(self, env):
        """An optional attr (a request's shard or routing key) is recorded
        as ``None`` at one site and left out of that span's attrs, without
        shifting the values of the spans after it."""
        observer = Observer().attach(env)
        site = Site("app", "rpc.request", "node0/rpc",
                    "req_id", "status", "shard", "key")
        observer.record(site, 0, 1, "ok", None, None, t_end=5)
        observer.record(site, 0, 2, "ok", 3, None, t_end=6)
        observer.record(site, 0, 3, "shed", 0, 7, t_end=7)
        assert [span.attrs for span in observer.spans] == [
            {"req_id": 1, "status": "ok"},
            {"req_id": 2, "status": "ok", "shard": 3},
            {"req_id": 3, "status": "shed", "shard": 0, "key": 7}]

    def test_cached_instruments_follow_a_replaced_observer(self, fm2_cluster):
        """Links and NICs keep their per-packet instruments per *observer
        object*: a second observer (``attach`` replaces the first) must get
        its own samples, not feed the first one's registry."""
        cluster = fm2_cluster

        def handler(fm, stream, src):
            yield from stream.receive_bytes(stream.msg_bytes)
        (hid,) = {node.fm.register_handler(handler) for node in cluster.nodes}

        def sender(node):
            buf = node.buffer(64, fill=b"x" * 64)
            yield from node.fm.send_buffer(1, hid, buf, 64)

        def receiver(node):
            while not (yield from node.fm.extract()):
                yield from node.fm.idle_wait()

        seen = []
        for _ in range(2):
            observer = cluster.observe()
            cluster.run([sender, receiver])
            (depth,) = observer.metrics.histograms("nic.recv_region_depth",
                                                   nic="nic1")
            seen.append((depth.count, sorted(
                (m.labels["link"], m.total)
                for m in observer.metrics.meters("link.bytes"))))
        assert seen[0] == seen[1]
        assert seen[0][0] == 1 and len(seen[0][1]) == 2   # host->switch->host

    def test_late_and_replacing_observers_hold_only_their_own_rows(self):
        """Components build their sites before any observer exists, and
        each observer enters a site on its own first span.  An observer
        attached mid-run and one that replaces it mid-run hold only the
        spans each recorded, with only those spans' sites and tracks.  The
        first keeps its rows and adds only spans of operations it saw
        start; between them they hold every span of the single-observer
        run that did not start before the first attached."""
        def run(swaps):
            """Twelve 64 B messages; ``swaps[i](cluster)`` is called once
            the sender has sent message ``i``."""
            cluster = Cluster(2, machine=PPRO_FM2, fm_version=2)

            def handler(fm, stream, src):
                yield from stream.receive_bytes(stream.msg_bytes)
            (hid,) = {node.fm.register_handler(handler)
                      for node in cluster.nodes}

            def sender(node):
                buf = node.buffer(64, fill=b"x" * 64)
                for i in range(12):
                    yield from node.fm.send_buffer(1, hid, buf, 64)
                    if i in swaps:
                        swaps[i](cluster)

            def receiver(node):
                got = 0
                while got < 12 * 64:
                    got += yield from node.fm.extract()
                    if got < 12 * 64:
                        yield from node.fm.idle_wait()
            cluster.run([sender, receiver])

        def fields(spans):
            return sorted((s.layer, s.name, s.t_start, s.t_end, s.track,
                           sorted(s.attrs.items())) for s in spans)

        whole = []
        run({0: lambda cluster: whole.append(cluster.observe())})
        observers, kept, swapped_at = [], [], []

        def replace(cluster):
            if observers:
                kept.append(list(observers[-1].spans))
            observers.append(cluster.observe())
            swapped_at.append(cluster.now)
        run({3: replace, 8: replace})
        late, second = observers

        assert late.spans[:len(kept[0])] == kept[0]
        assert all(s.t_start < swapped_at[1] for s in late.spans[len(kept[0]):])
        both = fields(late.spans) + fields(second.spans)
        missing = fields(whole[0].spans)
        for span in both:
            missing.remove(span)              # each one exactly once
        assert both and missing
        assert all(t_start < swapped_at[0] for _l, _n, t_start, *_ in missing)
        for observer in observers:
            spans = observer.spans
            assert observer.tracks() == sorted({s.track for s in spans})
            assert sorted((site.layer, site.name, site.track)
                          for site in observer._sites) == sorted(
                {(s.layer, s.name, s.track) for s in spans})
            exported = [event for event in trace_events(spans)["traceEvents"]
                        if event["ph"] == "X"]
            assert len(exported) == len(observer) == len(spans)

    def test_packet_done_builds_stage_histograms(self, env):
        from repro.hardware.packet import Packet, PacketFlags, PacketHeader
        observer = Observer().attach(env)
        packet = Packet(PacketHeader(0, 1, 0, 0, 0, 4,
                                     PacketFlags.FIRST | PacketFlags.LAST),
                        b"abcd")
        packet.stamp("submit", 100)
        packet.stamp("wire", 250)
        observer.packet_done(packet, "extract", 400)
        stages = {h.labels["stage"]: h.total
                  for h in observer.metrics.histograms("packet.stage")}
        assert stages == {"submit -> wire": 150, "wire -> extract": 150}
        (latency,) = observer.metrics.histograms("packet.latency_ns")
        assert latency.total == 300

    def test_hops_builds_one_span_per_hop_stamp(self, env):
        from repro.hardware.packet import (FORWARD_HOP, TX_HOP, WIRE_HOP,
                                           Packet, PacketHeader)
        from repro.obs.span import TraceContext
        observer = Observer().attach(env)
        packet = Packet(PacketHeader(0, 1, 0, 7, 3, 4), b"abcd")
        packet.trace = TraceContext(1, 2)
        packet.stamp("nic0.submit", 100)
        packet.stamp("nic0.inject", 180, TX_HOP, 120, "node0/nic.tx")
        packet.stamp("l0.wire", 250, WIRE_HOP, 180, "fabric/l0")
        packet.stamp("s0.forward", 300, FORWARD_HOP, 250, "fabric/s0", 2, 5)

        def journey_end():
            # Later than the stamps, under a context of its own: neither
            # may leak into the hop spans or the link.bytes buckets.
            yield 3 * DEFAULT_WINDOW_NS
            observer.bind(TraceContext(9, 9))
            observer.hops(packet)

        env.process(journey_end())
        env.run()
        assert [(s.layer, s.name, s.t_start, s.t_end, s.track, s.trace_id,
                 s.parent_id) for s in observer.spans] == [
            ("nic", "tx_firmware", 120, 180, "node0/nic.tx", 1, 2),
            ("fabric", "wire", 180, 250, "fabric/l0", None, None),
            ("fabric", "forward", 250, 300, "fabric/s0", None, None)]
        assert observer.spans[2].attrs == {"in_port": 2, "out_port": 5,
                                           "src": 0, "dest": 1}
        (meter,) = observer.metrics.meters("link.bytes")
        assert meter.labels == {"link": "l0"}
        assert meter.points() == [[0, packet.wire_bytes]]
