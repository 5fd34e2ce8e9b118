"""Host-speed probe.

A fixed slice of interpreter work: complex square roots and small
containers (dicts, lists, tuples, strings) built and kept alive, using the
standard library only so it can run before numpy is imported.  Of the
probes tried, this allocation-heavy one tracked the slowdown of all four
workloads best; a pure arithmetic loop over-corrected cli-mix by up to
45% in the slowest states.  The VM this benchmark was tuned on switches
between speed states that differ by up to 1.8x within a second, and process
CPU time tracks wall time, so the slowdown cannot be subtracted.  Timings
are therefore scaled by ``NOMINAL_PROBE_S / probe()`` measured next to them.
"""

from __future__ import annotations

import cmath
import math
import time

# Fastest-state probe time on a 2-core Intel Xeon VM (Python 3.11).
# Calibrated timings read as if measured on that host in that state.
NOMINAL_PROBE_S = 1.28e-4
SLICE_ITEMS = 250       # containers built per slice
REPEATS = 3             # slices per probe; the fastest counts


def _work() -> int:
    out = []
    for i in range(SLICE_ITEMS):
        z = cmath.sqrt(complex(i, 0.5))
        out.append({"z": z, "pair": [i, z.real + 1.0], "key": (i, str(i))})
    return len(out)


def probe() -> float:
    """Seconds one slice takes now: the fastest of REPEATS."""
    best = math.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - t0)
    return best
