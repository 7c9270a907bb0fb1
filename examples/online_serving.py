"""Online serving under an SLA: batched CPU engine vs pipelined MicroRec.

The paper's motivation in queueing form: recommendation queries arrive as
a Poisson stream and must be answered within tens of milliseconds.  The
CPU engine batches to reach throughput — paying batch assembly wait and
batched execution — while MicroRec's deep pipeline serves items one by
one.  Both engines are deployed through the unified runtime API
(:func:`repro.deploy_model`), and the serving lab's ``load_sweep`` drives
each session's queueing model over the same offered loads.  This example
prints p50/p99 latency and each engine's SLA capacity, plus a
queuing-DRAM sanity check of the engine's lookup stage.

Run:  python examples/online_serving.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.experiments.common import plan
from repro.experiments.queuing import simulated_lookup_ns
from repro.serving import DEFAULT_SLA_MS, load_sweep


def main() -> None:
    cpu = repro.deploy_model("small", backend="cpu")
    fpga = repro.deploy_model("small", backend="fpga")

    rates = (1_000, 10_000, 30_000, 60_000, 120_000, 240_000, 280_000)
    sweep = {"rates": rates, "duration_s": 0.5, "seed": 7}
    cpu_curve = load_sweep(cpu, batch_size=256, batch_timeout_ms=5.0, **sweep)
    fpga_curve = load_sweep(fpga, **sweep)

    print(f"p99 SLA = {DEFAULT_SLA_MS:.0f} ms, model = {cpu.model.name}\n")
    print(f"{'rate/s':>9} | {'CPU p50':>9} {'CPU p99':>9} | "
          f"{'FPGA p50':>9} {'FPGA p99':>9}")
    for rate, c, f in zip(rates, cpu_curve.points, fpga_curve.points):
        print(
            f"{rate:>9,} | {c.p50_ms:>8.2f}m {c.p99_ms:>8.2f}m | "
            f"{f.p50_ms * 1e3:>7.0f}us {f.p99_ms * 1e3:>7.0f}us"
        )
    print(
        f"\nSLA capacity: CPU {cpu_curve.sla_capacity_per_s:,.0f}/s, "
        f"MicroRec {fpga_curve.sla_capacity_per_s:,.0f}/s"
    )

    # Sanity: the lookup stage latency under a queued DRAM model.
    rng = np.random.default_rng(0)
    p = plan("small", cartesian=True)
    print(
        f"\nlookup stage: analytical {p.lookup_latency_ns:.0f} ns, "
        f"queued-DRAM simulation {simulated_lookup_ns(p, rng):.0f} ns"
    )


if __name__ == "__main__":
    main()
