"""Smoke and planted-slowdown tests of the end-to-end benchmark.

Every workload runs at quick sizes, once untraced and once traced
at the same seed.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import harness
import run
import spans
from workloads import WORKLOADS

from repro.serving.queueing import PipelineServerSim

HERE = Path(__file__).resolve().parent
SPEC = compare.load_spec()
SEED = 7
PLANTED_S = 0.005


def _bindings() -> dict[tuple[str, str], object]:
    """Every repro module global and traced class attribute."""
    out: dict[tuple[str, str], object] = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (
            name == "repro" or name.startswith("repro.")
        ):
            for attr, value in list(vars(module).items()):
                out[name, attr] = value
    for target in spans.targets():
        if isinstance(target.owner, type):
            key = (f"{target.owner.__module__}.{target.owner.__qualname__}",
                   target.attr)
            out[key] = vars(target.owner)[target.attr]
    return out


def _lookup(key: tuple[str, str]) -> object:
    owner_name, attr = key
    owner = sys.modules.get(owner_name)
    if owner is None:  # a class: module path + qualified name
        module_name, _, qualname = owner_name.rpartition(".")
        owner = getattr(sys.modules[module_name], qualname)
    return vars(owner)[attr]


@pytest.fixture(scope="module")
def quick_runs():
    before = _bindings()
    runs = {
        (name, trace): harness.run_workload(
            name, seed=SEED, seconds=0.0, trace=trace, quick=True
        )
        for name in WORKLOADS
        for trace in (False, True)
    }
    return runs, before


def test_every_declared_workload_is_implemented():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(quick_runs, name):
    runs, _ = quick_runs
    untraced, _ = runs[name, False]
    traced, tracer = runs[name, True]
    for record in (untraced, traced):
        assert record["correct"], record["failures"]
        assert record["attempted"] >= 1 and record["failed"] == 0
    line = run._result_line(untraced)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"] == {
        m["name"]: {
            "value": untraced["metrics"][m["name"]]["value"],
            "unit": m["unit"],
        }
        for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in line["metrics"].values())
    layers = run._result_line(traced)["metrics"]
    assert {k: v["unit"] for k, v in layers.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert layers["trace.spans"]["value"] > 0
    assert len(tracer) > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_only_observes(quick_runs, name):
    runs, _ = quick_runs
    untraced, _ = runs[name, False]
    traced, _ = runs[name, True]
    # Two runs at one seed; the traced run's round 0 ran traced.
    assert untraced["model"] and untraced["model"] == traced["model"]


def test_wrapped_callables_are_restored(quick_runs):
    _, before = quick_runs
    moved = [key for key, value in before.items() if _lookup(key) is not value]
    assert moved == []


def test_layers_see_the_work_of_their_workload(quick_runs):
    runs, _ = quick_runs

    def layer(name, metric):
        return runs[name, True][0]["layers"][metric]["value"]

    assert layer("infer-large", "core.gathers_per_call") > 0
    assert layer("infer-large", "cluster.route_s") == 0
    assert layer("replay-diurnal", "cluster.route_s") > 0
    assert layer("replay-diurnal", "core.gather_ms") == 0
    assert layer("tiered-zipf", "memory.lfu_s") > 0
    assert layer("autoscale-flash", "autoscale.windows") > 0


def test_planted_slowdown_is_attributed_and_flagged(monkeypatch):
    def replay():
        return harness.run_workload(
            "replay-diurnal",
            seed=3,
            seconds=0.0,
            trace=True,
            quick=True,
            min_rounds=9,
        )

    base, _ = replay()
    original = PipelineServerSim.run

    def slow_run(self, arrivals_ns):
        time.sleep(PLANTED_S)
        return original(self, arrivals_ns)

    monkeypatch.setattr(PipelineServerSim, "run", slow_run)
    slow, tracer = replay()
    rounds = tracer.names.count("bench.round")
    planted = PLANTED_S * tracer.names.count("serving.pipeline_run") / rounds
    assert planted > 0

    def rise(metric):
        return slow["layers"][metric]["value"] - base["layers"][metric]["value"]

    # The sleeps are all in queue self time; the queue's own work at
    # quick sizes is ~15% of the planted time and varies between runs.
    assert rise("serving.queue_s") >= 0.9 * planted
    assert rise("cluster.route_s") < planted / 2
    verdicts = {
        (row.workload, row.metric): row.verdict
        for row in compare.compare([base], [slow], SPEC)
    }
    assert verdicts["replay-diurnal", "queries_per_s"] == "worse"


def test_failed_ops_are_counted_and_the_run_continues(monkeypatch):
    def broken(self, arrivals_ns):
        raise RuntimeError("planted failure")

    monkeypatch.setattr(PipelineServerSim, "run", broken)
    record, _ = harness.run_workload(
        "replay-diurnal", seed=SEED, seconds=0.0, quick=True
    )
    # Per round the fpga surface and the cluster (through its fpga
    # replica) fail; the cpu surface still serves.
    assert record["failed"] == 2 * (record["rounds"] + 1)
    assert record["attempted"] == 3 * (record["rounds"] + 1)
    assert not record["correct"]
    assert record["metrics"]["queries_per_s"]["value"] > 0


def test_run_fails_without_the_program(tmp_path):
    """In a tree holding only the benchmark, run.py exits non-zero."""
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "infer-large"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
