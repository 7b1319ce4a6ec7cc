"""Legacy protocol model (Figure 1, §2.2)."""

import pytest

from repro.legacy import (
    ETHERNET_100MBIT,
    ETHERNET_1GBIT,
    FixedOverheadStack,
    LEGACY_UDP_OVERHEAD_US,
    theoretical_bandwidth_mbs,
)


class TestTheoreticalCurve:
    def test_paper_overhead_constant(self):
        assert LEGACY_UDP_OVERHEAD_US == 125.0

    def test_small_messages_capped_near_2mbs(self):
        """§2.2: for typical packet sizes (< 256 B), no more than
        ~2 MB/s can be sustained."""
        for size in (64, 128, 256):
            assert theoretical_bandwidth_mbs(size, ETHERNET_1GBIT) <= 2.1

    def test_figure1_anchor_values(self):
        # At 1024 B the 1 Gb curve reaches ~7.7 MB/s, 100 Mb ~4.95 MB/s.
        gbit = theoretical_bandwidth_mbs(1024, ETHERNET_1GBIT)
        mbit = theoretical_bandwidth_mbs(1024, ETHERNET_100MBIT)
        assert gbit == pytest.approx(7.69, rel=0.02)
        assert mbit == pytest.approx(4.95, rel=0.02)

    def test_wire_speed_barely_matters_for_short_messages(self):
        """The figure's whole point: below ~256 B the two curves overlap."""
        for size in (8, 64, 256):
            slow = theoretical_bandwidth_mbs(size, ETHERNET_100MBIT)
            fast = theoretical_bandwidth_mbs(size, ETHERNET_1GBIT)
            assert fast / slow < 1.2

    def test_monotone_in_size(self):
        curve = [theoretical_bandwidth_mbs(size, ETHERNET_1GBIT)
                 for size in (8, 16, 64, 256, 1024)]
        assert curve == sorted(curve)

    def test_zero_overhead_reaches_wire_speed(self):
        bw = theoretical_bandwidth_mbs(1024, ETHERNET_1GBIT, overhead_us=0)
        assert bw == pytest.approx(125.0, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            theoretical_bandwidth_mbs(0, ETHERNET_1GBIT)
        with pytest.raises(ValueError):
            theoretical_bandwidth_mbs(64, -1)
        with pytest.raises(ValueError):
            theoretical_bandwidth_mbs(64, ETHERNET_1GBIT, overhead_us=-1)


class TestSimulatedStack:
    @pytest.mark.parametrize("size", [8, 256, 1024])
    def test_simulation_matches_analytic_closely(self, size):
        stack = FixedOverheadStack(ETHERNET_1GBIT)
        simulated = stack.measure_bandwidth_mbs(size, n_messages=30)
        analytic = theoretical_bandwidth_mbs(size, ETHERNET_1GBIT)
        # The simulation pipelines protocol processing with the wire, so it
        # can run up to wire_time/total ahead of the serial analytic curve
        # (~6% at 1024 B on 1 Gb/s); never slower.
        assert analytic <= simulated <= analytic * 1.10

    def test_overhead_dominates_regardless_of_wire(self):
        slow = FixedOverheadStack(ETHERNET_100MBIT).measure_bandwidth_mbs(128)
        fast = FixedOverheadStack(ETHERNET_1GBIT).measure_bandwidth_mbs(128)
        assert fast / slow < 1.15
