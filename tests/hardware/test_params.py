"""Parameter dataclasses: validation and the with_* modification helpers."""

import dataclasses

import pytest

from repro.configs import PPRO_FM2, SPARC_FM1
from repro.hardware.params import (
    BusParams,
    CpuParams,
    LinkParams,
    NicParams,
    SwitchParams,
)

GOOD_CPU = dict(clock_hz=200e6, memcpy_bw=100e6, memcpy_startup_ns=100,
                call_ns=50, poll_ns=30, per_packet_ns=100, per_message_ns=500)
GOOD_BUS = dict(pio_bw=80e6, pio_startup_ns=100, dma_bw=100e6,
                dma_startup_ns=500)
GOOD_NIC = dict(sram_packet_slots=4, host_queue_slots=4, recv_region_slots=16,
                firmware_send_ns=100, firmware_recv_ns=100)
GOOD_LINK = dict(bandwidth=160e6, propagation_ns=50, slots=2)


class TestValidation:
    @pytest.mark.parametrize("field", ["clock_hz", "memcpy_bw"])
    def test_cpu_positive_fields(self, field):
        with pytest.raises(ValueError, match=field):
            CpuParams(**{**GOOD_CPU, field: 0})

    @pytest.mark.parametrize("field", ["memcpy_startup_ns", "call_ns",
                                       "poll_ns", "per_packet_ns",
                                       "per_message_ns"])
    def test_cpu_nonnegative_fields(self, field):
        with pytest.raises(ValueError, match=field):
            CpuParams(**{**GOOD_CPU, field: -1})
        CpuParams(**{**GOOD_CPU, field: 0})   # zero is fine

    @pytest.mark.parametrize("field", ["pio_bw", "dma_bw"])
    def test_bus_positive_fields(self, field):
        with pytest.raises(ValueError):
            BusParams(**{**GOOD_BUS, field: 0})

    @pytest.mark.parametrize("field", ["sram_packet_slots", "host_queue_slots",
                                       "recv_region_slots"])
    def test_nic_positive_slots(self, field):
        with pytest.raises(ValueError):
            NicParams(**{**GOOD_NIC, field: 0})

    def test_link_validation(self):
        with pytest.raises(ValueError):
            LinkParams(**{**GOOD_LINK, "bandwidth": 0})
        with pytest.raises(ValueError):
            LinkParams(**{**GOOD_LINK, "slots": 0})

    def test_switch_validation(self):
        with pytest.raises(ValueError):
            SwitchParams(routing_ns=-1)
        with pytest.raises(ValueError):
            SwitchParams(port_buffer_slots=0)


class TestWithHelpers:
    def test_with_link_changes_only_link(self):
        modified = PPRO_FM2.with_link(propagation_ns=1234)
        assert modified.link.propagation_ns == 1234
        assert modified.link.bandwidth == PPRO_FM2.link.bandwidth
        assert modified.cpu == PPRO_FM2.cpu
        assert PPRO_FM2.link.propagation_ns != 1234   # original untouched

    def test_with_cpu(self):
        modified = SPARC_FM1.with_cpu(memcpy_bw=50e6)
        assert modified.cpu.memcpy_bw == 50e6
        assert modified.bus == SPARC_FM1.bus

    def test_with_bus_and_nic(self):
        modified = PPRO_FM2.with_bus(pio_bw=1e9).with_nic(sram_packet_slots=2)
        assert modified.bus.pio_bw == 1e9
        assert modified.nic.sram_packet_slots == 2

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            PPRO_FM2.cpu.poll_ns = 1


class TestCalibratedConfigs:
    @pytest.mark.parametrize("machine", [SPARC_FM1, PPRO_FM2],
                             ids=["sparc", "ppro"])
    def test_configs_internally_consistent(self, machine):
        # Receive DMA must be at least as fast as the wire, or the NIC
        # could never keep up in steady state.
        assert machine.bus.dma_bw >= machine.link.bandwidth / 4
        # memcpy must beat PIO (else the copy-avoidance story is moot).
        assert machine.cpu.memcpy_bw >= machine.bus.pio_bw * 0.7

    def test_ppro_is_uniformly_faster(self):
        assert PPRO_FM2.cpu.memcpy_bw > SPARC_FM1.cpu.memcpy_bw
        assert PPRO_FM2.bus.pio_bw > SPARC_FM1.bus.pio_bw
        assert PPRO_FM2.bus.dma_bw > SPARC_FM1.bus.dma_bw
        assert PPRO_FM2.link.bandwidth > SPARC_FM1.link.bandwidth
