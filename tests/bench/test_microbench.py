"""Microbenchmark harness sanity (mechanics, not calibration)."""

import json
from dataclasses import replace

import pytest

from repro.bench.breakdown import STAGES, breakdown_sweep
from repro.bench.microbench import fm_pingpong, fm_stream
from repro.bench.sweeps import measure
from repro.cluster import Cluster
from repro.configs import PPRO_FM2, SPARC_FM1
from repro.hardware.topology import switch_chain
from repro.workloads.presets import PRESETS

from tests.golden import regen


class TestPingPong:
    @pytest.mark.parametrize("machine,version", [(SPARC_FM1, 1), (PPRO_FM2, 2)])
    def test_reports_positive_latency(self, machine, version):
        result = fm_pingpong(Cluster(2, machine, version), 16, iterations=5)
        assert result.one_way_latency_us > 0
        assert result.round_trips == 5

    def test_latency_grows_with_message_size(self):
        small = fm_pingpong(Cluster(2, PPRO_FM2, 2), 16, iterations=5)
        large = fm_pingpong(Cluster(2, PPRO_FM2, 2), 2048, iterations=5)
        assert large.one_way_latency_us > small.one_way_latency_us

    def test_warmup_excluded(self):
        result = fm_pingpong(Cluster(2, PPRO_FM2, 2), 16, iterations=7,
                             warmup=2)
        assert result.round_trips == 7

    def test_far_corners_of_a_switch_chain_are_the_pinned_hop_table(self):
        """``nodes`` picks the pair: hosts 0 and n-1 of a chain cross every
        switch, which is ``latency_vs_hops`` — to the last digit."""
        pinned = json.loads(regen.golden_text(regen.PAPER_FIGURES))
        for n_switches, latency_us in pinned["latency_vs_hops"]:
            n = 2 * n_switches
            cluster = Cluster(n, PPRO_FM2, 2,
                              topology=switch_chain(n, hosts_per_switch=2))
            result = fm_pingpong(cluster, 16, iterations=10, warmup=2,
                                 nodes=(0, n - 1))
            assert result.one_way_latency_us == latency_us


class TestStream:
    @pytest.mark.parametrize("machine,version", [(SPARC_FM1, 1), (PPRO_FM2, 2)])
    def test_bandwidth_positive_and_bounded(self, machine, version):
        result = fm_stream(Cluster(2, machine, version), 512, n_messages=20)
        assert 0 < result.bandwidth_mbs < machine.link.bandwidth / 1e6
        assert result.n_messages == 20

    def test_bandwidth_monotone_in_size(self):
        bandwidths = [fm_stream(Cluster(2, PPRO_FM2, 2), size, 20).bandwidth_mbs
                      for size in (16, 256, 2048)]
        assert bandwidths == sorted(bandwidths)

    def test_more_messages_converges(self):
        """Pipeline fill amortises: doubling the message count moves the
        measured bandwidth by only a few percent once warm."""
        mid = fm_stream(Cluster(2, PPRO_FM2, 2), 1024, n_messages=40)
        long = fm_stream(Cluster(2, PPRO_FM2, 2), 1024, n_messages=80)
        assert mid.bandwidth_mbs == pytest.approx(long.bandwidth_mbs,
                                                  rel=0.10)

    def test_extract_budget_does_not_change_result(self):
        free = fm_stream(Cluster(2, PPRO_FM2, 2), 1024, 20)
        paced = fm_stream(Cluster(2, PPRO_FM2, 2), 1024, 20,
                          extract_budget=2048)
        assert paced.bandwidth_mbs == pytest.approx(free.bandwidth_mbs,
                                                    rel=0.25)


class TestBreakdown:
    def test_three_stages(self):
        assert list(STAGES) == [
            "Link Mgmt", "I/O bus Mgmt", "Flow Control"]

    def test_stage_ordering_matches_figure_3a(self):
        """Link-only is far above the bus-limited curves; flow control costs
        only a little more than the bus crossing."""
        curves = breakdown_sweep(replace(PRESETS["stream-fm1"], n_requests=25),
                                 (64, 256, 512))
        link, bus, flow = curves
        assert link.peak_mbs > 2.5 * bus.peak_mbs
        assert bus.peak_mbs >= flow.peak_mbs
        assert flow.peak_mbs > 0.8 * bus.peak_mbs

    def test_lean_driver_reaches_near_link_speed(self):
        """Stage 1, ``link-stream``, runs the lean driver on a free bus."""
        bandwidth = measure(PRESETS["stream-fm1"], pattern="link-stream",
                            msg_bytes=512, n_requests=30).bandwidth_mbs
        wire_payload_limit = SPARC_FM1.link.bandwidth / 1e6 * (128 / 144)
        assert bandwidth > 0.9 * wire_payload_limit
