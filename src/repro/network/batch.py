"""Batched multi-point simulation: K replications, one lock-step loop.

The sweep harness is the paper's experimental instrument, and its grids
are embarrassingly replicated: the same topology simulated over and over
with different seeds, loads, patterns, routers, fault plans or switching
configurations.  Run sequentially, every replication pays the full
per-cycle Python/NumPy dispatch overhead of
:class:`~repro.network.simulator.VectorizedSimulator` on arrays far too
small to amortise it.  This module adds the missing axis: *runs* are
batched the same way PR 1 batched *packets*.

:class:`BatchedSimulator` stacks K independent replications on one
topology into flat arrays and advances all of them through the fused
advance kernel (:mod:`repro.network.kernel`) in a single cycle loop --
**every switching mode batches natively**: store-and-forward items share
flat FIFO arrays, wormhole/virtual-cut-through items share flat
per-(link, VC) buffer state, and the two groups advance against one
clock.  The batching discipline (see the kernel's docstring for the full
argument):

- every replication keeps its own **disjoint id space** for links and,
  in the pipelined modes, extended channels, so shared state arrays can
  never leak packets, credits or VC allocations between runs;
- packets are renumbered globally by ``(inject_cycle, run, local_pid)``
  -- a stable sort that preserves every run's internal packet order, so
  FIFO discipline, link arbitration and VC claims are untouched;
- per-run accounting (in-flight counts, credit stalls, deadlock
  verdicts, occupancy high-water marks, in-flight drops) lives in
  length-K arrays updated with grouped scatter-adds, so each
  :class:`SimResult` comes out **bit-identical** to the result of a
  sequential ``VectorizedSimulator.run`` of the same replication --
  fault plans, deadlock detection and cycle-cap truncation included;
- the idle-cycle jump fires only when *every* run is quiescent, which
  changes nothing: an idle run's state is untouched by cycles it sits
  through, and its accounting only advances on its own activity.

Preparation is shared where the semantics allow, which is where most of
a sweep point's cost actually goes: replications without faults that use
the same router *instance* share one route-table build over the union of
their traffic pairs (routes are deterministic per pair, so the union
table contains exactly the paths the per-run builds would), and misroute
accounting reads the topology's cached hop-distance rows.  Route tables
do not depend on the switching mode, so sf and flow-control items mix
freely within one shared build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.network.faults import FaultPlan
from repro.network.flowcontrol import FlowControl
from repro.network.kernel import KernelRun, _link_arrays, run_fused
from repro.network.routing import BfsRouter
from repro.network.simulator import (
    SimResult,
    _as_flow,
    _build_table,
    _flow_result,
    _pairs,
    _pid_tenants,
    _prepare,
    _Prepared,
    _row_misroutes,
    _validate_item,
)
from repro.network.topology import Topology

__all__ = [
    "BatchItem",
    "BatchedSimulator",
    "run_batch",
]


@dataclass(frozen=True)
class BatchItem:
    """One replication of a batch: traffic plus its run configuration.

    ``router=None`` uses the owning :class:`BatchedSimulator`'s default.
    Replications without faults that share one router *instance* also
    share a single route-table build, so a sweep packer should construct
    one router object per router kind and reuse it across its items.
    ``switching``, ``flits`` and ``tenants`` mirror
    ``VectorizedSimulator.run``'s parameters; any mix of modes is
    batched natively, and items carrying per-packet tenant ids get
    :attr:`~repro.network.simulator.SimResult.tenant_stats` exactly as
    the sequential engine computes them.
    """

    traffic: "np.ndarray | Sequence[Tuple[int, int, int]]"
    router: object = None
    faults: Optional[FaultPlan] = None
    switching: Union[str, FlowControl] = "sf"
    flits: Union[int, Sequence[int]] = 1
    tenants: Optional[Sequence[int]] = None


class BatchedSimulator:
    """Run K independent replications on one topology in lock step.

    Construction mirrors :class:`VectorizedSimulator`; ``router`` is the
    default for items that do not carry their own.  The only entry point
    is :meth:`run_batch`; per-run semantics (and results) are exactly
    those of ``VectorizedSimulator.run``, which the batch-equivalence
    suite enforces bit for bit across every switching mode.
    """

    def __init__(self, topo: Topology, router=None, backend=None):
        self.topo = topo
        self.router = router if router is not None else BfsRouter()
        self.backend = backend

    def run_batch(
        self,
        items: Sequence[BatchItem],
        max_cycles: int = 100000,
    ) -> List[SimResult]:
        """Simulate every item and return one :class:`SimResult` each,
        in item order, bit-identical to K sequential
        ``VectorizedSimulator(topo, item.router).run(...)`` calls with
        the same ``max_cycles``.

        Validation (negative injection cycles, multi-flit traffic under
        store-and-forward, bad flit specs, packets too big for a vct
        buffer) raises eagerly for the whole batch -- every item is
        checked, with the sequential engine's own errors, before any
        item simulates.
        """
        items = list(items)
        flows = [_as_flow(item.switching) for item in items]
        checked = [
            _validate_item(item.traffic, flow, item.flits, item.tenants)
            for item, flow in zip(items, flows)
        ]
        if not items:
            return []
        preps = self._prepare_items(items, [arr for arr, _ in checked])
        # per-item link arrays; items sharing a route table share the
        # (link_seq, link_offsets, link_codes) computation, and the
        # kernel assigns disjoint global id ranges per run
        cache: Dict[int, tuple] = {}
        n = self.topo.num_nodes
        runs: List[KernelRun] = []
        nhops_list: List[np.ndarray] = []
        for prep, flow, (_, flit_arr) in zip(preps, flows, checked):
            key = id(prep.table)
            if key not in cache:
                cache[key] = (
                    _link_arrays(n, prep.table), prep.table.lengths()
                )
            (link_seq, link_offsets, link_codes), lengths = cache[key]
            nhops = lengths[prep.row] - 1
            nhops_list.append(nhops)
            runs.append(KernelRun(
                flow=flow,
                inject=prep.inject,
                nhops=nhops,
                first_link_at=link_offsets[prep.row],
                link_seq=link_seq,
                link_offsets=link_offsets,
                link_codes=link_codes,
                nf=flit_arr[prep.order],
                link_dead=prep.link_dead,
            ))
        outcomes = run_fused(self.topo, runs, max_cycles, backend=self.backend)
        return [
            _flow_result(
                out, prep.inject, nhops, prep.misroutes[prep.row],
                prep.num_dropped,
                all_tenants=item.tenants,
                pid_tenants=_pid_tenants(item.tenants, prep.order),
            )
            for out, prep, nhops, item in zip(
                outcomes, preps, nhops_list, items
            )
        ]

    # -- preparation ------------------------------------------------------

    def _router_of(self, item: BatchItem):
        return item.router if item.router is not None else self.router

    def _prepare_items(
        self, items: Sequence[BatchItem], arrs: Sequence[np.ndarray]
    ) -> List[_Prepared]:
        """One :class:`_Prepared` per item, switching mode regardless,
        from the items' validated traffic arrays.

        Faulted items prepare individually (epoch-split tables cannot be
        shared); unfaulted items group by router instance and share one
        union route table and one misroute array per group.
        """
        preps: Dict[int, _Prepared] = {}
        groups: Dict[int, List[int]] = {}
        for idx, item in enumerate(items):
            if item.faults is not None and item.faults.num_events:
                preps[idx] = _prepare(
                    self.topo, self._router_of(item), arrs[idx], None,
                    item.faults,
                )
            else:
                groups.setdefault(id(self._router_of(item)), []).append(idx)
        for members in groups.values():
            preps.update(self._prepare_shared(items, arrs, members))
        return [preps[idx] for idx in range(len(items))]

    def _prepare_shared(
        self,
        items: Sequence[BatchItem],
        arrs: Sequence[np.ndarray],
        members: Sequence[int],
    ) -> Dict[int, _Prepared]:
        """Prepare unfaulted items sharing one router instance: build the
        route table once over the union of their traffic pairs, compute
        the per-row misroute array once, then map each item's packets to
        rows exactly as ``_prepare`` would."""
        n = self.topo.num_nodes
        router = self._router_of(items[members[0]])
        union = np.unique(np.concatenate(
            [arrs[idx][:, 1] * n + arrs[idx][:, 2] for idx in members]
        ))
        table = _build_table(self.topo, router, _pairs(union, n))
        mis = _row_misroutes(self.topo, table)
        out: Dict[int, _Prepared] = {}
        for idx in members:
            perm = np.argsort(arrs[idx][:, 0], kind="stable")
            arr = arrs[idx][perm]
            rows = table.rows_of(arr[:, 1], arr[:, 2])
            routed = rows >= 0
            out[idx] = _Prepared(
                table=table,
                inject=arr[routed, 0],
                row=rows[routed],
                num_dropped=int((~routed).sum()),
                misroutes=mis,
                link_dead={},
                order=perm[routed],
            )
        return out


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
