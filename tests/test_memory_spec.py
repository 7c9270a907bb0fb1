"""Unit tests for memory-system specifications."""

import pytest

from repro.memory.axi import AxiConfig
from repro.memory.spec import (
    BankKind,
    BankSpec,
    MemorySystemSpec,
    u280_memory_system,
)

GIB = 1 << 30
MIB = 1 << 20


class TestBankKind:
    def test_dram_classification(self):
        assert BankKind.HBM.is_dram
        assert BankKind.DDR.is_dram
        assert not BankKind.ONCHIP.is_dram


class TestBankSpec:
    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            BankSpec(0, BankKind.HBM, 0)


class TestMemorySystemSpec:
    def test_duplicate_ids_rejected(self):
        banks = (
            BankSpec(0, BankKind.HBM, MIB),
            BankSpec(0, BankKind.DDR, MIB),
        )
        with pytest.raises(ValueError):
            MemorySystemSpec(banks=banks)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MemorySystemSpec(banks=())

    def test_bank_lookup(self, tiny_memory):
        assert tiny_memory.bank(3).kind is BankKind.DDR
        with pytest.raises(KeyError):
            tiny_memory.bank(99)

    def test_kind_queries(self, tiny_memory):
        assert len(tiny_memory.dram_banks) == 4
        assert len(tiny_memory.onchip_banks) == 2
        assert tiny_memory.num_dram_channels == 4


class TestU280:
    def test_paper_configuration(self):
        mem = u280_memory_system()
        hbm = mem.banks_of(BankKind.HBM)
        ddr = mem.banks_of(BankKind.DDR)
        assert len(hbm) == 32
        assert len(ddr) == 2
        # Section 5.1: 8 GB HBM2 and 32 GB DDR4.
        assert sum(b.capacity_bytes for b in hbm) == 8 * GIB
        assert sum(b.capacity_bytes for b in ddr) == 32 * GIB
        # 34 DRAM channels total (appendix).
        assert mem.num_dram_channels == 34

    def test_hbm_less_fpga(self):
        """Section 3.4.2: the algorithm generalises to FPGAs without HBM."""
        mem = u280_memory_system(hbm_channels=0)
        assert mem.num_dram_channels == 2
        assert all(b.kind is not BankKind.HBM for b in mem.banks)

    @pytest.mark.parametrize(
        "field", ["hbm_channels", "ddr_channels", "onchip_banks"]
    )
    def test_negative_count_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 0, got -1"):
            u280_memory_system(**{field: -1})

    def test_zero_dram_counts_allowed(self):
        mem = u280_memory_system(hbm_channels=0, ddr_channels=0)
        assert mem.num_dram_channels == 0
        assert len(mem.onchip_banks) == 8

    def test_custom_axi_propagates(self):
        axi = AxiConfig(data_width_bits=512)
        assert u280_memory_system(axi=axi).axi.data_width_bits == 512

    def test_iteration_covers_all_banks(self):
        mem = u280_memory_system()
        assert len(list(mem)) == 32 + 2 + 8
