"""Host-speed probe: a fixed mix of interpreter and NumPy work that is
no part of the program under test.

On a shared host the CPU runs one thread at very different speeds for
tens of seconds at a time (the load of other tenants), and every piece
of code slows by about the same factor: on a 2-vCPU Xeon VM a run's
fastest job took from 1.4 s to 2.1 s depending on when it ran.  The
runner times this probe next to the jobs and reports every time at the
probe's reference speed, ``seconds * REFERENCE_S / probe_seconds``.
The probe's code does not change with the program, so a change to the
program still moves the scaled times by its own factor.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# about the probe's time on a quiet 2-vCPU Intel Xeon VM (fastest 11 ms,
# tenth percentile 12 ms); any constant works, this one keeps scaled
# times close to that host's quiet times
REFERENCE_S = 0.012


def probe() -> float:
    """Seconds for one pass of the fixed work."""
    t0 = perf_counter()
    # interpreter: integer arithmetic, dict stores, list growth, a sort
    total, table, items = 0, {}, []
    for i in range(40000):
        total += i * i % 7
        table[i & 1023] = total
        items.append(total & 255)
    items.sort()
    # NumPy: small-array arithmetic, fancy indexing and bincount
    a = np.arange(2048.0)
    idx = np.arange(2048)[::-1].copy()
    for _ in range(400):
        a = np.sqrt(a * a + 1.0)[idx]
        np.bincount(idx & 63, weights=a)
    return perf_counter() - t0
