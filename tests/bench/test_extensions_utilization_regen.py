"""Extension studies, utilisation analysis, and the regen CLI."""

from dataclasses import replace

import pytest

from repro.bench.regen import FIGURES, main as regen_main
from repro.bench.sweeps import measure
from repro.bench.utilization import Utilization, stream_utilization
from repro.workloads.presets import PRESETS


def stream(preset, msg_bytes, n_messages, **fields):
    """Utilisation of ``preset`` at another size and count."""
    return stream_utilization(replace(PRESETS[preset], msg_bytes=msg_bytes,
                                      n_requests=n_messages, **fields))


def pair_bandwidths(preset, n_pairs, msg_bytes, n_messages):
    """Per-pair MB/s of ``n_pairs`` pairs streaming at once on one
    crossbar, on ``preset``'s machine and FM generation."""
    result = measure(PRESETS[preset], pattern="pair-streams",
                     n_nodes=2 * n_pairs, msg_bytes=msg_bytes,
                     n_requests=n_messages)
    return [pair.bandwidth_mbs for pair in result.pairs]


def alltoall_us(preset, n_nodes):
    """One MPI alltoall of 512 B chunks over ``n_nodes``, in µs."""
    return measure(PRESETS[preset], pattern="mpi-alltoall", n_nodes=n_nodes,
                   msg_bytes=512).completion_us


class TestAggregatePairs:
    def test_single_pair_matches_plain_stream(self):
        (bandwidth,) = pair_bandwidths("stream-fm2", 1, 1024, 20)
        assert 40 < bandwidth < 90

    def test_two_pairs_no_interference(self):
        bandwidths = pair_bandwidths("stream-fm2", 2, 1024, 20)
        assert len(bandwidths) == 2
        assert max(bandwidths) / min(bandwidths) < 1.1

    def test_fm1_pairs_also_scale(self):
        assert all(b > 10 for b in pair_bandwidths("stream-fm1", 2, 512, 15))


class TestLatencyVsHops:
    def test_monotone_and_bounded(self):
        latencies = list(FIGURES["ext_hops"]().values.values())
        assert latencies == sorted(latencies)
        assert latencies[0] == pytest.approx(10.1, rel=0.2)
        assert latencies[-1] < latencies[0] + 4


class TestAlltoallScaling:
    def test_grows_with_nodes_and_fm2_wins(self):
        fm1 = [alltoall_us("stream-fm1", n) for n in (2, 4)]
        fm2 = [alltoall_us("stream-fm2", n) for n in (2, 4)]
        assert fm1[0] < fm1[1]
        assert fm2[0] < fm2[1]
        assert fm2[0] < fm1[0]


class TestUtilization:
    def test_fm1_is_send_side_bound(self):
        util = stream("stream-fm1", 512, 30)
        assert util.bottleneck == "sender_cpu"
        assert util.sender_bus > 0.6

    def test_fm2_send_path_copyless(self):
        util = stream("stream-fm2", 2048, 30)
        assert util.sender_copy_bytes == 0

    def test_mpi1_receiver_copies_dominate(self):
        util = stream("mpi-stream-fm2", 512, 20, machine="sparc",
                      fm_version=1)
        payload = 512 * 20
        assert util.receiver_copy_bytes > 3 * payload

    def test_rows_render(self):
        util = stream("stream-fm2", 256, 10)
        rows = dict(util.rows())
        assert "bottleneck" in rows
        assert rows["sender CPU busy"].endswith("%")

    def test_invalid_elapsed_rejected(self):
        from repro.cluster import Cluster
        from repro.bench.utilization import _snapshot
        with pytest.raises(ValueError):
            _snapshot(Cluster(2), 0)


class TestRegenCli:
    def test_figures_registry_complete(self):
        assert set(FIGURES) == {
            "fig1", "fig2", "fig3a", "fig3b", "fig4", "fig5", "fig6",
            "journey", "scorecard", "ext_hops", "ext_latency_size",
            "ext_rdma", "ext_scaling", "ext_utilization", "ext_workloads",
            "ext_sharding", "ext_replication", "ext_dataflow",
            "ablation_fm2_features"}

    def test_cheap_figures_run(self, capsys):
        assert regen_main(["fig1", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "Figure 2" in out
        assert "regenerated in" in out

    def test_simulated_figure_runs(self, capsys):
        assert regen_main(["fig3b"]) == 0
        out = capsys.readouterr().out
        assert "N-half" in out
