"""Unit tests for the related-work baselines, the LRU row cache, and the CLI."""

import numpy as np
import pytest

from repro.baselines.gpu import GpuCostModel
from repro.baselines.nmp import NmpCostModel, NmpSpec
from repro.cli import main
from repro.cpu.costmodel import CpuCostModel
from repro.memory import get_cache_policy
from repro.models.distributions import zipf_indices
from repro.models.spec import production_small


@pytest.fixture(scope="module")
def model():
    return production_small()


class TestGpuBaseline:
    def test_loses_to_cpu_at_small_batch(self, model):
        """Gupta et al. 2020a: GPUs only win at very large batches."""
        gpu = GpuCostModel(model)
        cpu = CpuCostModel(model)
        assert gpu.end_to_end_latency_ms(1) > cpu.end_to_end_latency_ms(1)
        assert gpu.end_to_end_latency_ms(64) > cpu.end_to_end_latency_ms(64)

    def test_wins_at_large_batch(self, model):
        gpu = GpuCostModel(model)
        cpu = CpuCostModel(model)
        assert gpu.throughput_items_per_s(8192) > cpu.throughput_items_per_s(
            8192
        )

    def test_high_latency_at_winning_batch(self, model):
        """Even where the GPU wins on throughput, its batch latency is
        SLA-hostile — the paper's 'GPUs suffer from high latency'."""
        gpu = GpuCostModel(model)
        assert gpu.end_to_end_latency_ms(8192) > 30.0

    def test_kernel_overhead_scales_with_tables(self, model):
        from repro.models.spec import production_large

        small = GpuCostModel(model)
        large = GpuCostModel(production_large())
        assert large.op_overhead_ms() > small.op_overhead_ms()

    def test_batch_validation(self, model):
        with pytest.raises(ValueError):
            GpuCostModel(model).end_to_end_latency_ms(0)


class TestNmpBaseline:
    def test_accelerates_embedding_layer(self, model):
        nmp = NmpCostModel(model)
        cpu = CpuCostModel(model)
        assert nmp.embedding_latency_ms(2048) < cpu.embedding_latency_ms(2048)

    def test_end_to_end_gain_smaller_than_embedding_gain(self, model):
        """Amdahl: NMP leaves the MLP and framework costs in place."""
        nmp = NmpCostModel(model)
        cpu = CpuCostModel(model)
        emb_gain = cpu.embedding_latency_ms(2048) / nmp.embedding_latency_ms(2048)
        e2e_gain = cpu.end_to_end_latency_ms(2048) / nmp.end_to_end_latency_ms(2048)
        assert e2e_gain < emb_gain

    def test_microrec_still_faster(self, model):
        from repro.experiments.common import accelerator

        nmp = NmpCostModel(model)
        fpga = accelerator("small", "fixed16").performance()
        nmp_per_item_us = nmp.end_to_end_latency_ms(2048) / 2048 * 1e3
        fpga_per_item_us = fpga.batch_latency_ms(2048) / 2048 * 1e3
        assert fpga_per_item_us < nmp_per_item_us

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NmpSpec(lookup_speedup=0.5)
        with pytest.raises(ValueError):
            NmpSpec(op_overhead_fraction=1.5)


def lru_hits(trace, capacity_rows):
    return get_cache_policy("lru").hits(np.array(trace), capacity_rows)


def lru_zipf_hit_rate(rows, capacity_rows, alpha):
    keys = zipf_indices(np.random.default_rng(0), rows, 50_000, alpha)
    return float(lru_hits(keys, capacity_rows).mean())


class TestLruRowCache:
    """The ``lru`` cache policy as a row cache in front of one table."""

    def test_hits_and_misses(self):
        hits = lru_hits([1, 1, 2, 3, 1], capacity_rows=2)
        # 3 evicts 1 (LRU), so the last touch of 1 misses.
        assert hits.tolist() == [False, True, False, False, False]
        assert hits.mean() == pytest.approx(1 / 5)

    def test_lru_order_updated_on_hit(self):
        # The hit on 1 makes it MRU, so 3 evicts 2 instead.
        hits = lru_hits([1, 2, 1, 3, 1, 2], capacity_rows=2)
        assert hits.tolist()[-2:] == [True, False]

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity_rows"):
            lru_hits([1], 0)

    def test_zipf_hit_rate_grows_with_skew(self):
        flat = lru_zipf_hit_rate(rows=10_000, capacity_rows=100, alpha=0.0)
        skewed = lru_zipf_hit_rate(rows=10_000, capacity_rows=100, alpha=1.2)
        assert skewed > flat + 0.2

    def test_zipf_hit_rate_grows_with_capacity(self):
        small = lru_zipf_hit_rate(rows=10_000, capacity_rows=50, alpha=1.05)
        big = lru_zipf_hit_rate(rows=10_000, capacity_rows=2000, alpha=1.05)
        assert big > small


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "production models" in out
        assert "small" in out

    def test_version_flag(self, capsys):
        import repro
        from repro._version import __version__

        # argparse's version action prints and exits 0.
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"
        # The importable version comes from the same single source that
        # setup.py execs into its metadata.
        assert repro.__version__ == __version__

    def test_version_matches_setup_metadata(self):
        import os
        import re

        from repro._version import __version__

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        setup_text = open(os.path.join(root, "setup.py")).read()
        # setup.py must source its version from _version.py, not pin one.
        assert "_version.py" in setup_text
        assert not re.search(r'version\s*=\s*"[0-9]', setup_text)
        assert re.match(r"^\d+\.\d+\.\d+$", __version__)

    def test_plan_small(self, capsys):
        assert main(["plan", "small"]) == 0
        out = capsys.readouterr().out
        assert "dram_rounds: 1" in out

    def test_plan_no_cartesian(self, capsys):
        assert main(["plan", "small", "--no-cartesian"]) == 0
        out = capsys.readouterr().out
        assert "dram_rounds: 2" in out

    def test_plan_unknown_model(self, capsys):
        assert main(["plan", "medium"]) == 2

    def test_experiments_single(self, capsys):
        assert main(["experiments", "table5"]) == 0
        out = capsys.readouterr().out
        assert "table5" in out

    def test_experiments_unknown(self, capsys):
        assert main(["experiments", "table99"]) == 2

    def test_fleet(self, capsys):
        assert main(["fleet", "small", "100000"]) == 0
        out = capsys.readouterr().out
        assert "fpga" in out and "cpu" in out

    def test_fleet_unknown_model(self, capsys):
        assert main(["fleet", "tiny", "1000"]) == 2
