"""Wall-clock ceiling on the ~10M-arrival ``trace_scale`` replay.

``repro experiments trace_scale`` prints only seeded, byte-stable cells,
so the replay's speed is checked here instead, as one timed call of the
whole experiment: the arrival draw, the fpga and cpu serves, and the
cluster deploy and routed serve, plus any session deploys the run has
to make itself.
"""

import time

from repro.experiments import trace_scale

#: Seconds. The whole run takes about 7 s on a 2-vCPU VM. The replay
#: is vectorised; falling back to a per-arrival interpreter loop makes
#: it about 100x slower, minutes rather than seconds, so that regression
#: fails tier-1 here while a slow CI runner keeps 4x headroom.
CEILING_S = 30.0


def test_completes_within_generous_ceiling():
    started = time.perf_counter()
    result = trace_scale.run()
    elapsed = time.perf_counter() - started
    assert len(result.rows) == 4
    assert elapsed < CEILING_S, f"trace_scale took {elapsed:.1f} s"
