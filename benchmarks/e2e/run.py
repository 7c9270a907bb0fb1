"""End-to-end benchmark of the MicroRec reproduction.

Run from the repository root::

    python3 benchmarks/e2e/run.py                      # all four workloads
    python3 benchmarks/e2e/run.py --workload infer-large --seed 3
    python3 benchmarks/e2e/run.py --trace 1            # per-layer + trace files
    python3 benchmarks/e2e/run.py --repeat 10 --out set1

One workload at one seed runs in this process.  Anything more runs each
(workload, seed) pair in a fresh subprocess, one after another.  Every
run writes ``<out>/run-<workload>-seed<N>.json`` (traced runs also
``<out>/trace-<workload>.json``) and prints its metrics by name with
their units.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from compare import load_spec

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
DEFAULT_OUT = HERE / "out"
#: A child's set-up plus timed phase stays far below this.
CHILD_TIMEOUT_S = 900
#: Pinned before NumPy loads: one BLAS thread keeps runs comparable on a
#: machine shared with other work.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(
    argv: list[str] | None, names: list[str], seconds: float
) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Outside-in end-to-end benchmark of repro."
    )
    parser.add_argument(
        "--workload",
        action="append",
        choices=names,
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=seconds,
        help="time budget that fixes each workload's round count "
        "(default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="1: traced run, reporting per-layer metrics",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="run each workload at seeds seed .. seed+repeat-1",
    )
    args = parser.parse_args(argv)
    args.workload = args.workload or names
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    if args.trace and args.repeat > 1:
        parser.error("--trace 1 runs one seed; drop --repeat")
    return args


def _record_path(out: Path, workload: str, seed: int) -> Path:
    return out / f"run-{workload}-seed{seed}.json"


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_record(record: dict) -> None:
    """Every metric by name with its unit, then any failures."""
    print(
        f"== {record['workload']}  seed {record['seed']}  "
        f"rounds {record['rounds']}  ops {record['attempted']}  "
        f"failed {record['failed']}  correct {record['correct']}"
    )
    for name, metric in record["metrics"].items():
        spread = (
            f"  q1 {_fmt(metric['q1'])}  q3 {_fmt(metric['q3'])}  "
            f"n {len(metric['samples'])}"
            if "samples" in metric
            else f"  n {metric['n']}" if "n" in metric else ""
        )
        print(f"  {name:<32}{_fmt(metric['value']):>14} {metric['unit']:<6}"
              f"{spread}")
    for name, value in record["model"].items():
        print(f"  {name:<32}{_fmt(value):>14} (modelled)")
    for name, metric in record.get("layers", {}).items():
        print(f"  {name:<32}{_fmt(metric['value']):>14} {metric['unit']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def _result_line(record: dict) -> dict:
    metrics = record["layers"] if record["trace"] else record["metrics"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in metrics.items()
        },
    }


def run_here(args: argparse.Namespace) -> dict:
    """Run the single requested (workload, seed) in this process."""
    from harness import run_workload

    (workload,) = args.workload
    record, tracer = run_workload(
        workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
    )
    args.out.mkdir(parents=True, exist_ok=True)
    _record_path(args.out, workload, args.seed).write_text(
        json.dumps(record, indent=1) + "\n"
    )
    if tracer is not None:
        trace_file = args.out / f"trace-{workload}.json"
        trace_file.write_text(
            json.dumps({"workload": workload, "seed": args.seed,
                        **tracer.payload()}) + "\n"
        )
    return record


def run_children(args: argparse.Namespace) -> list[dict]:
    """Each (workload, seed) in a fresh interpreter, one after another."""
    records = []
    for seed in range(args.seed, args.seed + args.repeat):
        for workload in args.workload:
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--out", str(args.out),
            ]
            # The child prints its own table; its result line is read
            # back from the record file it writes.
            done = subprocess.run(command, timeout=CHILD_TIMEOUT_S)
            if done.returncode != 0:
                raise SystemExit(
                    f"{workload} seed {seed} exited {done.returncode}"
                )
            path = _record_path(args.out, workload, seed)
            records.append(json.loads(path.read_text()))
    return records


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    for name in BLAS_THREADS:
        os.environ[name] = "1"
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS  # imports NumPy: after the pin

    args = _parse(argv, list(WORKLOADS), load_spec()["run_seconds"])
    if len(args.workload) == 1 and args.repeat == 1:
        record = run_here(args)
        print_record(record)
        print(json.dumps(_result_line(record)))
        return 0
    records = run_children(args)
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            f"{r['workload']}/seed{r['seed']}": _result_line(r)["metrics"]
            for r in records
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
