"""Unit tests for the memory timing model."""

import pytest

from repro.memory.axi import AxiConfig
from repro.memory.spec import BankKind
from repro.memory.timing import MemoryTimingModel, default_timing_model


class TestMemoryTimingModel:
    def test_dram_access_has_fixed_initiation(self):
        t = MemoryTimingModel()
        assert t.dram_access_ns(0) == pytest.approx(t.dram_init_ns)

    def test_dram_access_grows_with_payload(self):
        t = MemoryTimingModel()
        assert t.dram_access_ns(256) > t.dram_access_ns(16)

    def test_initiation_dominates_short_vectors(self):
        """Section 3.3: for short vectors the row initiation dominates,
        which is why one merged access is almost 2x cheaper than two."""
        t = default_timing_model()
        dim8 = t.dram_access_ns(8 * 4)
        dim16_merged = t.dram_access_ns(16 * 4)
        assert dim16_merged < 2 * dim8
        # One merged access saves at least 40% over two separate ones.
        assert dim16_merged / (2 * dim8) < 0.6

    def test_onchip_is_about_a_third(self):
        """Section 3.2.2: on-chip lookup ~1/3 the DRAM time."""
        t = default_timing_model()
        nbytes = 64
        ratio = t.onchip_access_ns(nbytes) / t.dram_access_ns(nbytes)
        assert ratio == pytest.approx(1 / 3)

    def test_access_ns_dispatches_on_kind(self):
        t = default_timing_model()
        assert t.access_ns(BankKind.HBM, 16) == t.access_ns(BankKind.DDR, 16)
        assert t.access_ns(BankKind.ONCHIP, 16) < t.access_ns(BankKind.HBM, 16)

    def test_table5_calibration_points(self):
        """The default model reproduces the paper's own microbenchmark
        (Table 5, one round of HBM lookups) within 4%."""
        t = default_timing_model()
        paper = {4: 334.5, 8: 353.7, 16: 411.6, 32: 486.3, 64: 648.4}
        for dim, expected in paper.items():
            ours = t.dram_access_ns(dim * 4)
            assert ours == pytest.approx(expected, rel=0.04)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MemoryTimingModel(dram_init_ns=-1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="dram_init_ns must be finite"):
                MemoryTimingModel(dram_init_ns=bad)
        with pytest.raises(ValueError):
            MemoryTimingModel(onchip_latency_fraction=0.0)
        with pytest.raises(ValueError):
            MemoryTimingModel(onchip_latency_fraction=1.5)

    def test_custom_axi_changes_stream_time(self):
        slow = MemoryTimingModel(axi=AxiConfig(clock_mhz=100))
        fast = MemoryTimingModel(axi=AxiConfig(clock_mhz=400))
        assert slow.dram_access_ns(256) > fast.dram_access_ns(256)
