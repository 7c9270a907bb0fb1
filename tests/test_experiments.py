"""Tests for the experiment harness: every table/figure regenerates and
reproduces the paper's qualitative claims."""

import pytest

from repro.experiments import paper_data, table2, table4
from repro.experiments.harness import CHARTS, EXPERIMENTS, render_one
from repro.experiments.report import ExperimentResult, render_table


@pytest.fixture(scope="module")
def results():
    return {name: run() for name, run in EXPERIMENTS.items()}


class TestHarness:
    def test_all_experiments_present(self):
        paper = {
            "figure3",
            "table2",
            "table3",
            "table4",
            "table5",
            "figure7",
            "table6",
            "cost",
        }
        extensions = {
            "queuing",
            "serving_sla",
            "latency_under_load",
            "heterogeneous_fleet",
            "elastic_fleet",
            "sharded_fleet",
            "quantization",
            "related_work",
            "compression",
            "cache_study",
            "tiered_storage",
            "trace_scale",
        }
        assert set(EXPERIMENTS) == paper | extensions

    def test_every_experiment_has_rows(self, results):
        for name, result in results.items():
            assert isinstance(result, ExperimentResult)
            assert result.rows, name

    def test_render_all(self, results):
        for name, result in results.items():
            assert name in render_one(result)
        for name, (*_, title) in CHARTS.items():
            assert title in render_one(results[name])

    def test_render_table_formats(self, results):
        text = render_table(results["table3"])
        assert "dram_rounds" in text
        assert "note:" in text


class TestFigure3:
    def test_embedding_dominates(self, results):
        for row in results["figure3"].rows:
            assert row["embedding_share"] > 0.5
            # Within 15 percentage points of the paper's share.
            assert abs(row["embedding_share"] - row["paper_share"]) < 0.15


class TestTable2:
    def test_speedup_range(self, results):
        lo, hi = table2.speedup_range(results["table2"])
        # Paper: 2.5-5.4x.  Same order, overlapping range; the top end
        # within 30% of the paper's 5.41x.
        assert 2.0 < lo < 3.0
        assert 0.7 * paper_data.TABLE2_SPEEDUP_RANGE[1] < hi < 6.0

    def test_fpga_beats_cpu_everywhere(self, results):
        for row in results["table2"].rows:
            if "speedup_vs_cpu_b2048" in row:
                assert row["speedup_vs_cpu_b2048"] > 2.0

    def test_microsecond_latency(self, results):
        for row in results["table2"].rows:
            if str(row["engine"]).startswith("FPGA"):
                # Tens of microseconds: the paper's band is 16.3-31.0.
                assert 0.010 < row["latency_ms"] < 0.040
            else:
                assert row["latency_ms"] > 3.0  # milliseconds


class TestTable3:
    def _row(self, results, model, cartesian):
        for row in results["table3"].rows:
            if row["model"] == model and row["cartesian"] == cartesian:
                return row
        raise AssertionError("row missing")

    @pytest.mark.parametrize("model", ["small", "large"])
    def test_rounds_match_paper_exactly(self, results, model):
        for label in ("without", "with"):
            row = self._row(results, model, label)
            assert row["dram_rounds"] == row["paper_rounds"]

    @pytest.mark.parametrize("model", ["small", "large"])
    def test_storage_overhead_marginal(self, results, model):
        row = self._row(results, model, "with")
        assert 1.0 < row["storage_rel"] < 1.04

    @pytest.mark.parametrize("model", ["small", "large"])
    def test_latency_ratio_close_to_paper(self, results, model):
        row = self._row(results, model, "with")
        assert row["latency_rel"] == pytest.approx(
            row["paper_latency_rel"], abs=0.13
        )
        # Merging must cut latency by more than 15% (0.658 small, 0.815
        # large); the band above alone allows 0.851 on the large model.
        assert row["latency_rel"] < 0.85


class TestTable4:
    def test_cartesian_beats_hbm_only(self, results):
        speedups = table4.speedups_at(results["table4"], 2048)
        for s in speedups.values():
            assert s["cartesian"] > s["hbm"]

    def test_b2048_speedups_same_order_as_paper(self, results):
        speedups = table4.speedups_at(results["table4"], 2048)
        assert speedups["small"]["cartesian"] == pytest.approx(13.82, rel=0.15)
        assert speedups["large"]["cartesian"] == pytest.approx(14.70, rel=0.15)

    def test_cartesian_extra_factor(self, results):
        """Contribution 2: Cartesian adds 1.39-1.69x on top of HBM."""
        speedups = table4.speedups_at(results["table4"], 2048)
        for s in speedups.values():
            extra = s["cartesian"] / s["hbm"]
            assert 1.2 < extra < 1.8


class TestTable5:
    def test_lookup_latencies_within_5pct(self, results):
        for row in results["table5"].rows:
            assert row["lookup_ns"] == pytest.approx(
                row["paper_lookup_ns"], rel=0.05
            )

    def test_speedup_extremes(self, results):
        rows = results["table5"].rows
        best = max(r["speedup"] for r in rows)
        worst = min(r["speedup"] for r in rows)
        # Paper: 18.7-72.4x; keep the same order and orientation.
        assert 60 < best < 90
        assert 15 < worst < 30

    def test_best_case_is_8_tables_dim4(self, results):
        rows = results["table5"].rows
        best = max(rows, key=lambda r: r["speedup"])
        assert (best["tables"], best["dim"]) == (8, 4)

    def test_worst_case_is_12_tables_dim64(self, results):
        rows = results["table5"].rows
        worst = min(rows, key=lambda r: r["speedup"])
        assert (worst["tables"], worst["dim"]) == (12, 64)

    def test_twelve_tables_take_two_rounds(self, results):
        """One HBM round at 8 tables, two at 12 (the ratio reads 2.0)."""
        by_key = {(r["tables"], r["dim"]): r for r in results["table5"].rows}
        for dim in (4, 8, 16, 32, 64):
            ratio = by_key[(12, dim)]["lookup_ns"] / by_key[(8, dim)]["lookup_ns"]
            assert 1.8 < ratio < 2.2, dim


class TestFigure7:
    def test_flat_then_decay(self, results):
        for model in ("small", "large"):
            series = {
                r["rounds"]: r["relative"]
                for r in results["figure7"].rows
                if r["model"] == model
            }
            # Flat region: three rounds at no throughput loss at all.
            assert series[2] == series[3] == 1.0
            assert series[10] < 0.85
            # Monotone non-increasing.
            vals = [series[r] for r in sorted(series)]
            assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_tolerated_rounds_close_to_paper(self, results):
        for row in results["figure7"].rows:
            assert abs(row["tolerated_rounds"] - row["paper_tolerated"]) <= 2
        tol = {
            r["model"]: r["tolerated_rounds"] for r in results["figure7"].rows
        }
        # Reads 7 and 6; the band above alone lets the large model's
        # paper 4 fall to 2.
        assert tol["small"] >= 4 and tol["large"] >= 3

    def test_small_tolerates_more_than_large(self, results):
        tol = {
            r["model"]: r["tolerated_rounds"] for r in results["figure7"].rows
        }
        assert tol["small"] >= tol["large"]


class TestTable6:
    def test_totals_within_3pct(self, results):
        for row in results["table6"].rows:
            for res in ("bram", "dsp", "ff", "lut", "uram"):
                assert row[res] == pytest.approx(row[f"paper_{res}"], rel=0.03)

    def test_frequencies_exact(self, results):
        for row in results["table6"].rows:
            assert row["freq_mhz"] == row["paper_freq"]

    def test_bram_utilisation_high(self, results):
        """High utilisation is the paper's reason for 120-140 MHz clocks
        (0.774-0.847 here)."""
        for row in results["table6"].rows:
            assert row["bram_util"] > 0.7


class TestCost:
    def test_fpga_cheaper_per_inference(self, results):
        for row in results["cost"].rows:
            if str(row["engine"]).startswith("FPGA"):
                # Beneficial long-term (the paper's appendix): under half
                # the CPU's dollars per inference.
                assert row["cost_ratio_vs_cpu"] < 0.5


class TestCompression:
    @pytest.mark.parametrize("model", ["small", "large"])
    def test_int8_tables_shrink_and_speed_up(self, results, model):
        rows = {
            (r["model"], r["tables"], r["cartesian"]): r
            for r in results["compression"].rows
        }
        fp32 = rows[(model, "fp32", "without")]
        int8 = rows[(model, "int8", "without")]
        # Storage reads 0.304 (small) and 0.297 (large) of fp32.
        assert int8["storage_gb"] < fp32["storage_gb"] / 2.5
        assert int8["dram_rounds"] <= fp32["dram_rounds"]
        assert int8["lookup_ns"] < fp32["lookup_ns"]
        # Compression plus merging is never worse than compression alone.
        both = rows[(model, "int8", "with")]
        assert both["lookup_ns"] <= int8["lookup_ns"] + 1e-9


class TestCacheStudy:
    def test_hits_need_skew_and_capacity(self, results):
        rows = {
            (r["zipf_alpha"], r["cache_rows"]): r
            for r in results["cache_study"].rows
        }
        # No skew, no benefit (reads 0.0021).
        assert rows[(0.0, 256)]["hit_rate"] < 0.05
        # Skew plus capacity: 0.916 of lookups hit, and the effective
        # lookup costs 0.39 of the uncached one.
        skewed = rows[(1.3, 4096)]
        assert skewed["hit_rate"] > 0.6
        assert skewed["effective_ns"] < skewed["uncached_ns"] * 0.7


class TestTraceScale:
    # Its wall-clock ceiling is benchmarks/test_trace_scale_ceiling.py.
    def test_replays_ten_million_arrivals(self, results):
        for row in results["trace_scale"].rows:
            assert row["queries"] >= 9_900_000

    def test_served_stages_meet_sanity_latency(self, results):
        rows = {r["stage"]: r for r in results["trace_scale"].rows}
        assert rows["pipelined serve (fpga)"]["p50_ms"] < 1.0
        routed = next(
            r for s, r in rows.items() if s.startswith("routed cluster")
        )
        assert routed["sla_attainment"] > 0.9


class TestShardedFleet:
    def test_replication_infeasible_sharding_meets_slo(self, results):
        rows = {r["fleet"]: r for r in results["sharded_fleet"].rows}
        replicated = [r for name, r in rows.items() if "replicate" in name]
        assert replicated and all(r["feasible"] == "no" for r in replicated)
        (sharded,) = [r for name, r in rows.items() if "sharded" in name]
        assert sharded["feasible"] == "yes"
        assert sharded["fanout"] > 1
        assert sharded["peak_node_util"] <= 1.0
        from repro.experiments.sharded_fleet import SLO_MS

        assert sharded["p99_ms"] <= SLO_MS
        assert sharded["sla_attainment"] >= 0.99
