"""Compare two sets of end-to-end benchmark runs against their bounds.

Run from the repository root::

    python3 benchmarks/e2e/compare.py BASE NEW

``BASE`` and ``NEW`` are run files (``run-<workload>-seed<N>.json``, as
``run.py`` writes them) or directories of them.  The bounds come from
``BENCHMARK.json``.  For each end-to-end metric and workload the script
prints both medians with their quartiles, the change, the bound and a
verdict:

* ``ok`` -- NEW is not worse than BASE by more than the bound;
* ``worse`` -- NEW is worse by more than the bound, and the spread is
  within the bound or every NEW sample is worse than every BASE sample;
* ``unresolved`` -- the spread (quartile distance over median) is wider
  than the bound, so these runs cannot tell, unless every NEW sample is
  better than every BASE sample.

``setup_s`` is judged by its median alone: a run times only a few
builds, so its spread is wide, and its bound is the widest.

The samples of a row are the runs' values of the metric, one per run;
with one run per side the verdict rests on the change alone.  Runs at
the same seed on both sides must report identical modelled outputs, and
NEW must have no failed op.  The exit status is 1 when any row is not
``ok``, and each such row is named.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: Metrics whose bound applies to the median, whatever the spread.
MEDIAN_ONLY = ("setup_s",)


def load_spec() -> dict:
    """``BENCHMARK.json``: workloads, metric names and units, bounds."""
    return json.loads(SPEC_PATH.read_text())


def load_runs(path: Path) -> list[dict]:
    """Run records from one run file or every ``run-*.json`` in a dir."""
    files = sorted(path.glob("run-*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"error: no run files in {path}")
    return [json.loads(f.read_text()) for f in files]


def samples(runs: list[dict], metric: str) -> list[float]:
    """The metric's value in each run."""
    return [r["metrics"][metric]["value"] for r in runs]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    unit: str
    base: list[float]
    new: list[float]
    bound: float
    lower_is_better: bool

    @property
    def change(self) -> float:
        """Relative change of the median, NEW over BASE."""
        base = quartiles(self.base)[1]
        return quartiles(self.new)[1] / base - 1.0 if base else 0.0

    def _worse(self, new: float, base: float) -> bool:
        return new > base if self.lower_is_better else new < base

    @property
    def verdict(self) -> str:
        worse_by = self.change if self.lower_is_better else -self.change
        noisy = self.metric not in MEDIAN_ONLY and (
            max(spread(self.base), spread(self.new)) > self.bound
        )
        pairs = [(n, b) for n in self.new for b in self.base]
        if worse_by > self.bound:
            all_worse = all(self._worse(n, b) for n, b in pairs)
            return "worse" if not noisy or all_worse else "unresolved"
        if noisy and not all(self._worse(b, n) for n, b in pairs):
            return "unresolved"
        return "ok"


def compare(base: list[dict], new: list[dict], spec: dict) -> list[Row]:
    """One row per end-to-end metric x workload present on both sides."""
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        base_runs = [r for r in base if r["workload"] == workload]
        new_runs = [r for r in new if r["workload"] == workload]
        if not base_runs or not new_runs:
            continue
        for metric in spec["end_to_end"]:
            rows.append(
                Row(
                    workload=workload,
                    metric=metric["name"],
                    unit=metric["unit"],
                    base=samples(base_runs, metric["name"]),
                    new=samples(new_runs, metric["name"]),
                    bound=metric["bound"],
                    lower_is_better=metric["better"] == "lower",
                )
            )
    return rows


def output_problems(base: list[dict], new: list[dict]) -> list[str]:
    """Failed ops in NEW, and modelled outputs that moved at one seed."""
    problems = []
    models = {(r["workload"], r["seed"]): r["model"] for r in base}
    for run in new:
        label = f"{run['workload']} seed {run['seed']}"
        if run["failed"] or not run["correct"]:
            problems.append(
                f"{label}: {run['failed']} of {run['attempted']} ops "
                f"failed, correct={run['correct']}"
            )
        before = models.get((run["workload"], run["seed"]))
        if before is not None and before != run["model"]:
            problems.append(
                f"{label}: modelled outputs changed: {before} -> "
                f"{run['model']}"
            )
    return problems


def _cell(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.4g}, {q3:.4g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base, new = load_runs(args.base), load_runs(args.new)
    rows = compare(base, new, load_spec())
    print(
        f"{'workload':<16} {'metric':<14} {'unit':<5} "
        f"{'base median [q1, q3]':<32} {'new median [q1, q3]':<32} "
        f"{'change':>8} {'bound':>6}  verdict"
    )
    for row in rows:
        print(
            f"{row.workload:<16} {row.metric:<14} {row.unit:<5} "
            f"{_cell(row.base):<32} {_cell(row.new):<32} "
            f"{row.change:>+8.2%} {row.bound:>6.0%}  {row.verdict}"
        )
    bad = [f"{r.metric} @ {r.workload}: {r.verdict}" for r in rows
           if r.verdict != "ok"]
    bad += output_problems(base, new)
    for line in bad:
        print(f"VIOLATION {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
