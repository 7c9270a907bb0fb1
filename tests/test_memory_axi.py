"""Unit tests for the AXI interface model."""

import pytest

from repro.memory.axi import AxiConfig


class TestAxiConfig:
    def test_defaults_are_paper_values(self):
        axi = AxiConfig()
        assert axi.data_width_bits == 32
        assert axi.bytes_per_cycle == 4

    def test_cycle_ns(self):
        axi = AxiConfig(clock_mhz=200.0)
        assert axi.cycle_ns == pytest.approx(5.0)

    def test_cycles_for_bytes_rounds_up(self):
        axi = AxiConfig(data_width_bits=32)
        assert axi.cycles_for_bytes(0) == 0
        assert axi.cycles_for_bytes(1) == 1
        assert axi.cycles_for_bytes(4) == 1
        assert axi.cycles_for_bytes(5) == 2
        assert axi.cycles_for_bytes(256) == 64

    def test_wide_bus_fewer_cycles(self):
        narrow = AxiConfig(data_width_bits=32)
        wide = AxiConfig(data_width_bits=512)
        nbytes = 256
        assert wide.cycles_for_bytes(nbytes) * 16 == narrow.cycles_for_bytes(nbytes)

    def test_stream_ns_scales_linearly(self):
        axi = AxiConfig()
        assert axi.stream_ns(64) == pytest.approx(2 * axi.stream_ns(32))

    def test_stream_ns_zero_bytes(self):
        assert AxiConfig().stream_ns(0) == 0.0

    @pytest.mark.parametrize("width", [0, -8, 12, 33])
    def test_invalid_width_rejected(self, width):
        with pytest.raises(ValueError):
            AxiConfig(data_width_bits=width)

    def test_invalid_clock_rejected(self):
        with pytest.raises(ValueError):
            AxiConfig(clock_mhz=0)

    @pytest.mark.parametrize("clock", [-1.0, float("nan"), float("inf")])
    def test_non_finite_or_negative_clock_rejected(self, clock):
        with pytest.raises(ValueError, match="clock_mhz must be positive"):
            AxiConfig(clock_mhz=clock)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            AxiConfig().cycles_for_bytes(-1)

    def test_calibrated_stream_rate(self):
        """Default rate reproduces the Table 5 slope: ~5.3 ns per element."""
        axi = AxiConfig()
        per_element = axi.stream_ns(4)
        assert 5.0 < per_element < 5.6
