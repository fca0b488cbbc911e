"""Batched multi-point simulation: K replications, one kernel call.

The sweep harness is the paper's experimental instrument, and its grids
are embarrassingly replicated: the same topology simulated over and over
with different seeds, loads, patterns, routers, fault plans or switching
configurations.  Run one at a time, every replication pays the full
per-cycle Python/NumPy dispatch overhead on arrays far too small to
amortise it; batched, K replications advance through the fused advance
kernel (:mod:`repro.network.kernel`) in one call -- one cycle loop per
switching discipline, whatever mix of modes they use -- and share
route-table preparation.

The engine lives in :mod:`repro.network.simulator`:
:meth:`VectorizedSimulator.run_batch
<repro.network.simulator.VectorizedSimulator.run_batch>` is its only
simulation path, the one ``run_batch`` body the reference engine runs
too.  This module keeps the batch-axis names:
:class:`BatchedSimulator` *is* that class, :class:`BatchItem` describes
one replication, and :func:`run_batch` is the one-call convenience.
The batching discipline -- disjoint per-run id spaces, global packet
order ``(inject_cycle, run, local_pid)``, per-run accounting in
length-K arrays, an idle-cycle jump only when every run of a mode
engine is quiescent -- is argued in the kernel's docstring; it makes
every result bit-identical to the replication simulated alone.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.network.simulator import BatchItem, SimResult, VectorizedSimulator
from repro.network.topology import Topology

__all__ = [
    "BatchItem",
    "BatchedSimulator",
    "run_batch",
]

BatchedSimulator = VectorizedSimulator


def run_batch(
    topo: Topology,
    items: Sequence[BatchItem],
    max_cycles: int = 100000,
    router=None,
    backend=None,
) -> List[SimResult]:
    """Module-level convenience: ``BatchedSimulator(topo, router,
    backend).run_batch(items, max_cycles)``."""
    return BatchedSimulator(topo, router, backend=backend).run_batch(
        items, max_cycles
    )
