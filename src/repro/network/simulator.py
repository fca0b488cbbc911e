"""Synchronous message-passing network simulator.

This is the hardware substitute declared in DESIGN.md: a cycle-accurate
(at link granularity) model of an interconnection network under three
switching disciplines -- store-and-forward (the default), wormhole and
virtual cut-through.

Model
-----
- Time advances in discrete cycles.
- Each directed link ``(u, v)`` carries at most one packet (``sf``) or
  one flit (wormhole/vct) per cycle and has a FIFO queue/buffer at its
  tail.
- A packet follows a precomputed route (any router from
  :mod:`repro.network.routing`); on each cycle every link forwards the
  head of its queue to the next queue on its route.
- Packets are injected by a traffic pattern: a ``(P, 3)`` array of
  ``(cycle, src, dst)`` rows (see :mod:`repro.network.traffic`; any
  sequence of triples works too), non-negative cycles only.

Switching modes (``run(..., switching=...)``)
---------------------------------------------
``"sf"`` is the classic store-and-forward model: single-flit packets,
unbounded FIFO queues, one whole packet per link per cycle -- exactly
the original engines, bit for bit.  ``"wormhole"`` and ``"vct"``
(a :class:`~repro.network.flowcontrol.FlowControl` value selects buffer
depth and virtual-channel count) switch to the finite-buffer pipelined
model of :mod:`repro.network.flowcontrol`: multi-flit packets
(``flits=``), per-(link, VC) buffers of bounded depth, credit
backpressure, dimension-ordered VC assignment -- and *detected* deadlock
(``SimResult.deadlocked`` / ``stalled``) when a channel-dependency
cycle actually bites, instead of a simulation that never terminates.

Two engines implement the *same* deterministic semantics on one
simulation path: ``run_batch`` simulates K independent replications
(:class:`BatchItem`), and **a solo run is a one-item batch**.  It
validates every item before any simulates, then gives each group of
items sharing a router instance and a fault plan (by value) one CSR
:class:`~repro.network.routing.RouteTable` per routing epoch, over the
union of the pairs they inject (:func:`_prepare`).  The engines differ
only in how that table is built and how the prepared items advance:

- :class:`ReferenceSimulator` -- the executable specification: routes
  come pair by pair from ``router.route``
  (:meth:`~repro.network.routing.RouteTable.build`), and each item runs
  alone through the readable per-packet/deque loop of its mode;
- :class:`VectorizedSimulator` -- the production engine: routes come
  from :func:`~repro.network.routing.route_table` (a router's batched
  ``build_table`` when it has one) as link ids (a directed link's id is
  its CSR slot in :meth:`Topology.neighbours`, read by
  :meth:`Topology.link_ids`), per-packet state lives in NumPy arrays,
  and the whole batch advances in one call of the fused advance kernel
  of :mod:`repro.network.kernel`: intrusive per-link FIFOs over flat
  arrays, a handful of array gathers per cycle instead of a Python loop
  over packets, idle gaps skipped outright.  A backend name selects the
  kernel's cycle loop (:mod:`repro.network.backends`: ``numpy``, the
  compiled ``native`` kernel, or ``auto``).

Both engines -- every backend, every batch size -- produce bit-identical
:class:`SimResult` values, which the equivalence tests enforce.

Faults
------
Both engines accept a :class:`~repro.network.faults.FaultPlan`.  Fault
cycles split time into *routing epochs*: packets injected in an epoch
are routed on the topology masked by every fault already active
(:meth:`Topology.with_faults`), one route table per (router, plan,
epoch) for all the runs of a batch that share that router and plan.  The
plan also resolves to per-directed-link death cycles; during the forward
step, a link that is dead drops its *entire* queue that cycle (packets
in flight when a fault strikes are lost, not rerouted -- rerouting is
the router's job at the next epoch).  Drop and misroute totals land in
:class:`SimResult` and are bit-identical across engines, same as every
other field.

Determinism contract (both engines): packets are numbered in injection
order (stable sort of the traffic by cycle); a link's FIFO serves packets
in arrival order, ties broken by packet id; packets that arrive at a
queue while a cycle is being forwarded join *behind* everything already
queued that cycle.

``NetworkSimulator`` is the vectorized engine (kept as the public name
for backward compatibility), and so is
:class:`repro.network.batch.BatchedSimulator`.

Outputs: per-packet latency and hop counts, average/percentile latency,
throughput (delivered packets per cycle), drop and misroute counters,
and maximum queue occupancy -- enough to compare topologies under
identical load and damage, which is what the 1993-lineage evaluations
did on real machines.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.network.faults import _NEVER, FaultPlan
from repro.network.flowcontrol import (
    FlowControl,
    FlowOutcome,
    _integer_array,
    _validate_vct,
    reference_flow_run,
    resolve_flits,
)
from repro.network.kernel import KernelRun, run_fused
from repro.network.routing import BfsRouter, RouteTable, route_table
from repro.network.topology import Topology
from repro.network.traffic import uniform_traffic
from repro.network.workloads import TenantStats, tenant_stats_of

__all__ = [
    "BatchItem",
    "FlowControl",
    "NetworkSimulator",
    "ReferenceSimulator",
    "SimResult",
    "TenantStats",
    "VectorizedSimulator",
    "uniform_traffic",
]


@dataclass(frozen=True)
class SimResult:
    """Aggregate outcome of one simulation run.

    ``latencies`` and ``hops`` hold one entry per *delivered* packet,
    ordered by packet id (= injection order), so results from different
    engines over the same traffic compare exactly.  ``dropped`` counts
    packets lost for any reason: unroutable at injection (router failure
    or dead endpoint) plus packets killed in flight by a link/node fault.
    ``misroutes`` totals the detour steps of delivered packets: hops
    beyond the *healthy* topology's graph distance, halved (each detour
    costs two extra hops) -- zero for shortest-path routing on an
    undamaged network, positive when faults (or a suboptimal router)
    force longer paths.  ``stalled`` counts routed packets that were
    neither delivered nor dropped when the run ended (always zero for a
    run that completed); ``deadlocked`` is set when a flow-controlled
    run (wormhole/vct) reached a state where no flit could ever move
    again -- detected and reported, never an unterminating simulation.
    ``tenant_stats`` is the per-tenant accounting of a multi-tenant
    workload run (one :class:`~repro.network.workloads.TenantStats` per
    tenant id, ascending) -- empty for single-tenant traffic, so every
    pre-workload result compares unchanged.
    """

    cycles: int
    injected: int
    delivered: int
    latencies: Tuple[int, ...]
    max_queue: int
    dropped: int = 0
    misroutes: int = 0
    hops: Tuple[int, ...] = ()
    stalled: int = 0
    deadlocked: bool = False
    tenant_stats: Tuple[TenantStats, ...] = ()

    @property
    def avg_latency(self) -> float:
        return sum(self.latencies) / len(self.latencies) if self.latencies else 0.0

    @property
    def max_latency(self) -> int:
        return max(self.latencies) if self.latencies else 0

    @property
    def throughput(self) -> float:
        return self.delivered / self.cycles if self.cycles else 0.0

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.injected if self.injected else 1.0

    @property
    def drop_rate(self) -> float:
        return self.dropped / self.injected if self.injected else 0.0

    @property
    def avg_hops(self) -> float:
        return sum(self.hops) / len(self.hops) if self.hops else 0.0


def _row_misroutes(topo: Topology, table: RouteTable) -> np.ndarray:
    """Detour steps of every row of ``table``: hops beyond the *healthy*
    topology's graph distance between the row's endpoints, halved (on
    bipartite cube graphs the excess is always even; elsewhere the odd
    remainder is floored away), zero for pairs the healthy topology
    cannot connect.

    Measuring against the undamaged topology -- not the Hamming distance
    -- means shortest-path routing reports zero on every cube, including
    the non-isometric ones where graph distance legitimately exceeds
    Hamming distance; what remains is exactly the stretch the router (or
    the fault damage) added.  Distances come from the topology's cached
    hop-distance rows.
    """
    src, dst = table.endpoints()
    d = topo.hop_distances(src, dst).astype(np.int64)
    return np.where(d < 0, 0, np.maximum(0, (table.lengths() - 1 - d) // 2))


class _Prepared:
    """Traffic resolved against a route table, in array form.

    Built from cycle-sorted traffic ``arr`` (``perm`` is the stable sort
    that ordered it) and each packet's table row, ``-1`` where the
    router cannot serve the pair.  Packets are numbered 0..P-1 in
    injection order; unroutable ones are dropped up front and only
    counted in ``injected``.  ``links`` and ``link_offsets`` are the
    table's hops as link ids, shared by its runs, and ``nhops`` each
    packet's hop count; ``misroutes`` holds one detour count per table
    row; ``link_dead`` maps directed links to the first cycle they stop
    forwarding (empty without faults); ``order`` gives each surviving
    packet's index into the traffic sequence as passed, so per-packet
    attributes (flit counts) follow the stable sort.
    """

    __slots__ = ("table", "links", "link_offsets", "inject", "row", "nhops",
                 "num_dropped", "misroutes", "link_dead", "order")

    def __init__(self, table: RouteTable, links: np.ndarray, link_offsets: np.ndarray,
                 arr: np.ndarray, perm: np.ndarray, rows: np.ndarray,
                 misroutes: np.ndarray, link_dead: Dict[Tuple[int, int], int]):
        routed = rows >= 0
        self.table = table
        self.links = links
        self.link_offsets = link_offsets
        self.inject = arr[routed, 0]
        self.row = rows[routed]
        self.nhops = link_offsets[self.row + 1] - link_offsets[self.row]
        self.num_dropped = int((~routed).sum())
        self.misroutes = misroutes
        self.link_dead = link_dead
        self.order = perm[routed]


def _as_flow(switching: Union[str, FlowControl, None]) -> FlowControl:
    if switching is None:
        return FlowControl()
    if isinstance(switching, FlowControl):
        return switching
    return FlowControl(switching=switching)


def _flow_result(
    outcome: FlowOutcome,
    prep: _Prepared,
    tenants: Optional[Sequence[int]],
    ids: Optional[np.ndarray],
) -> SimResult:
    """Assemble a :class:`SimResult` from an engine's raw outcome for the
    prepared run ``prep`` (shared by both engines, so the aggregation
    itself cannot diverge).

    ``tenants`` tags every offered packet, as given, and ``ids`` holds
    the same tags as :func:`_validate_item` checked them; when given,
    the per-tenant stats ride along (see
    :func:`~repro.network.workloads.tenant_stats_of`).
    """
    mask = outcome.delivered_at >= 0
    latencies = tuple((outcome.delivered_at[mask] - prep.inject[mask]).tolist())
    tstats: Tuple[TenantStats, ...] = ()
    if tenants is not None:
        pid_tenants = ids[prep.order].tolist()
        tstats = tenant_stats_of(tenants, pid_tenants, mask.tolist(), latencies)
    return SimResult(
        cycles=outcome.cycles,
        injected=int(prep.nhops.size) + prep.num_dropped,
        delivered=int(mask.sum()),
        latencies=latencies,
        max_queue=outcome.max_queue,
        dropped=prep.num_dropped + outcome.dropped_in_flight,
        misroutes=int(prep.misroutes[prep.row[mask]].sum()),
        hops=tuple(prep.nhops[mask].tolist()),
        stalled=outcome.stalled,
        deadlocked=outcome.deadlocked,
        tenant_stats=tstats,
    )


def _validate_item(
    traffic,
    flow: FlowControl,
    flits: Union[int, Sequence[int]],
    tenants: Optional[Sequence[int]],
    num_nodes: int,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """The one validation of a run's inputs, shared by every engine:
    returns the traffic as a ``(P, 3)`` int64 array, its per-packet
    flit counts and its int64 tenant ids (``None`` without).  Rejects
    traffic that is not integer ``(cycle, src, dst)`` rows (empty
    traffic is valid), node ids outside ``[0, num_nodes)``, negative
    injection cycles, bad or misaligned flit counts, tenant ids that are
    not integers or do not align, multi-flit packets under
    store-and-forward and packets too big for a vct buffer."""
    arr = _integer_array(traffic, "traffic rows")
    if arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"traffic must be (cycle, src, dst) rows, got shape {arr.shape}")
    if arr.size and not 0 <= arr[:, 1:].min() <= arr[:, 1:].max() < num_nodes:
        raise ValueError(f"traffic names a node outside 0..{num_nodes - 1}")
    if arr.size and int(arr[:, 0].min()) < 0:
        raise ValueError(
            "injection cycles must be non-negative "
            f"(got {int(arr[:, 0].min())}); both engines count time from 0"
        )
    flit_arr = resolve_flits(flits, len(arr))
    ids = None if tenants is None else _integer_array(tenants, "tenant ids")
    if ids is not None and ids.shape != (len(arr),):
        raise ValueError(
            f"tenants must align with traffic: {ids.size} ids "
            f"for {len(arr)} packets"
        )
    if not flow.pipelined and flit_arr.size and int(flit_arr.max()) > 1:
        raise ValueError(
            "store-and-forward is a single-flit model; use "
            "switching='wormhole' or 'vct' for multi-flit packets"
        )
    if flow.pipelined:
        _validate_vct(flow, flit_arr)
    return arr, flit_arr, ids


def _validate_max_cycles(max_cycles) -> int:
    """The cycle cap as a Python int, checked once for every engine:
    anything but an integer (a float, a string, a bool) raises
    :class:`TypeError` instead of truncating differently per backend,
    and a cap below 1, under which no packet could move, raises
    :class:`ValueError`."""
    if isinstance(max_cycles, (bool, np.bool_)) or not isinstance(
        max_cycles, (int, np.integer)
    ):
        raise TypeError(f"max_cycles must be an integer, got {max_cycles!r}")
    if max_cycles < 1:
        raise ValueError(f"max_cycles must be at least 1, got {max_cycles}")
    return int(max_cycles)


def _prepare(
    topo: Topology,
    router,
    arrs: Sequence[np.ndarray],
    faults: Optional[FaultPlan],
    build: Callable[[Topology, object, np.ndarray], RouteTable],
) -> List[_Prepared]:
    """Map each run's validated traffic in ``arrs`` (see
    :func:`_validate_item`), for a group of runs that share ``router``
    and the fault plan ``faults`` (``None``: unfaulted), onto one route
    table.

    Every fault cycle starts a routing epoch: a contiguous slice of each
    run's cycle-sorted packets (an unfaulted run is one slice).  Each
    epoch holding a packet gets one table, ``build(view, router,
    pairs)`` over the group's live pairs, on ``view``, the topology
    masked by every fault already active; a pair with a dead endpoint
    drops at injection.  Routes are deterministic per (view, pair), so a
    shared table holds exactly the paths a per-run build would.  Epoch
    tables merge into one flat table whose rows are unique per (epoch,
    pair): a pair may route differently after a failure.  The merged
    table is decoded once into ``topo``'s link ids (a hop that is not a
    link raises :class:`ValueError`, for every engine).  Misroutes are
    measured against the *healthy* topology's distances.
    """
    n = topo.num_nodes
    bounds = np.empty(0, dtype=np.int64)
    link_dead: Dict[Tuple[int, int], int] = {}
    if faults is not None and faults.num_events:
        bounds = np.asarray(faults.validate(topo).cycles(), dtype=np.int64)
        death = faults.node_death_array(n)
        link_dead = faults.link_death_map(topo)
    perms = [np.argsort(a[:, 0], kind="stable") for a in arrs]
    arrs = [a[p] for a, p in zip(arrs, perms)]
    pkts = np.concatenate([np.empty((0, 3), dtype=np.int64), *arrs])
    # a packet's epoch counts the fault cycles at or before its injection
    epoch = np.searchsorted(bounds, pkts[:, 0], side="right")
    rows = np.full(len(pkts), -1, dtype=np.int64)
    tables: List[RouteTable] = []
    num_rows = 0
    for e in range(len(bounds) + 1):
        idx = np.flatnonzero(epoch == e)
        if not idx.size:
            continue
        at = int(bounds[e - 1]) if e else -1
        if e:  # before the first fault cycle every packet is live
            idx = idx[(death[pkts[idx, 1]] > at) & (death[pkts[idx, 2]] > at)]
        # one unique names the epoch's live pairs and gives each packet
        # its pair's row
        codes, inverse = np.unique(pkts[idx, 1] * n + pkts[idx, 2], return_inverse=True)
        view = topo.with_faults(faults, at_cycle=at) if e else topo
        table = build(view, router, np.stack(np.divmod(codes, n), axis=1))
        rows[idx] = np.where(table.pair_rows >= 0, table.pair_rows + num_rows, -1)[inverse]
        num_rows += table.num_routes
        tables.append(table)
    if len(tables) == 1:
        [table] = tables
    else:  # several epoch tables (or none: an empty table) merge into one
        lengths = np.concatenate([np.zeros(1, np.int64)] + [t.lengths() for t in tables])
        table = RouteTable(
            route_data=np.concatenate([np.empty(0, np.int64)] + [t.route_data for t in tables]),
            route_offsets=np.cumsum(lengths), num_nodes=n,
        )
    codes, link_offsets = table.hops()
    links = topo.link_ids(codes)
    mis = _row_misroutes(topo, table)
    run_rows = np.split(rows, np.cumsum([len(a) for a in arrs])[:-1])
    return [
        _Prepared(table, links, link_offsets, a, p, r, mis, link_dead)
        for a, p, r in zip(arrs, perms, run_rows)
    ]


@dataclass(frozen=True)
class BatchItem:
    """One replication of a batch: traffic plus its run configuration.

    ``router=None`` uses the owning simulator's default.  Replications
    that share one router *instance* and equal fault plans (compared by
    value; ``None`` and the empty plan are one) also share their route
    tables, one per routing epoch, on either engine, so a sweep packer
    should construct one router object per router kind and reuse it
    across its items.  ``switching``, ``flits`` and ``tenants`` mirror
    ``run``'s parameters; any mix of modes shares one batch, and items
    carrying per-packet tenant ids get :attr:`SimResult.tenant_stats`.
    """

    traffic: "np.ndarray | Sequence[Tuple[int, int, int]]"
    router: object = None
    faults: Optional[FaultPlan] = None
    switching: Union[str, FlowControl] = "sf"
    flits: Union[int, Sequence[int]] = 1
    tenants: Optional[Sequence[int]] = None


class _Simulator:
    """The simulation path both engines share; a subclass supplies the
    two seams, ``_route_table(view, router, pairs)`` (how :func:`_prepare`
    routes a group's pairs) and ``_advance(preps, flows, nfs,
    max_cycles)`` (one :class:`FlowOutcome` per prepared item).

    ``router`` is the default for items that do not carry their own;
    any object with ``route(topo, src, dst) -> Optional[List[int]]``,
    exact shortest-path routing when omitted.
    """

    def __init__(self, topo: Topology, router=None):
        self.topo = topo
        self.router = router if router is not None else BfsRouter()

    def run(
        self,
        traffic: Sequence[Tuple[int, int, int]],
        max_cycles: int = 100000,
        faults: Optional[FaultPlan] = None,
        switching: Union[str, FlowControl] = "sf",
        flits: Union[int, Sequence[int]] = 1,
        tenants: Optional[Sequence[int]] = None,
    ) -> SimResult:
        """Simulate until all deliverable packets arrive (or ``max_cycles``):
        a one-item :meth:`run_batch`.

        Packets whose router returns ``None`` count as injected but are
        dropped immediately (visible through ``delivery_rate``).  A
        ``faults`` plan adds per-epoch fault-masked routing with in-flight
        drops; see the module docstring.  ``switching`` selects the
        flow-control discipline -- a mode name or a full
        :class:`FlowControl` -- and ``flits`` the per-packet flit counts
        (one int for all, or a sequence aligned with ``traffic``); both
        only meaningful for wormhole/vct.  ``tenants`` is an optional
        per-packet tenant id aligned with ``traffic`` (see
        :mod:`repro.network.workloads`); when given, the result carries
        :attr:`SimResult.tenant_stats`.
        """
        return self.run_batch(
            [BatchItem(traffic, None, faults, switching, flits, tenants)],
            max_cycles,
        )[0]

    def run_batch(self, items: Sequence[BatchItem], max_cycles: int = 100000) -> List[SimResult]:
        """Simulate every item and return one :class:`SimResult` each,
        in item order.  A result depends only on its own item: bit for
        bit what the item gives alone, on either engine, with the same
        ``max_cycles`` -- the batch-equivalence suite enforces it across
        every switching mode.

        Validation (a ``max_cycles`` that is not an integer of at least
        1, traffic that is not integer ``(cycle, src, dst)`` rows over
        this topology's nodes, negative injection cycles, flit counts or
        tenant ids that are not integers, multi-flit traffic under
        store-and-forward, packets too big for a vct buffer) raises for
        the whole batch -- every item is checked before any item
        simulates, and a route hop that is not a link before any cycle
        loop runs.  Items sharing a router instance and a fault plan (by
        value) share one route table per routing epoch.
        """
        max_cycles = _validate_max_cycles(max_cycles)
        items = list(items)
        flows = [_as_flow(item.switching) for item in items]
        checked = [
            _validate_item(item.traffic, flow, item.flits, item.tenants, self.topo.num_nodes)
            for item, flow in zip(items, flows)
        ]
        preps: List[Optional[_Prepared]] = [None] * len(items)
        # one group per (router instance, fault plan by value)
        groups: Dict[tuple, Tuple[object, List[int]]] = {}
        for i, item in enumerate(items):
            router = item.router if item.router is not None else self.router
            plan = item.faults if item.faults and item.faults.num_events else None
            groups.setdefault((id(router), plan), (router, []))[1].append(i)
        for (_, plan), (router, members) in groups.items():
            arrs = [checked[i][0] for i in members]
            for i, prep in zip(members, _prepare(self.topo, router, arrs, plan, self._route_table)):
                preps[i] = prep
        nfs = [flit_arr[prep.order] for prep, (_, flit_arr, _) in zip(preps, checked)]
        outcomes = self._advance(preps, flows, nfs, max_cycles)
        return [
            _flow_result(out, prep, item.tenants, ids)
            for out, prep, item, (_, _, ids) in zip(outcomes, preps, items, checked)
        ]


class ReferenceSimulator(_Simulator):
    """The per-packet executable spec, in all three switching modes.

    Routes come from ``router.route``, called once per (routing epoch,
    pair) of a group through :meth:`RouteTable.build` and never through
    a router's batched ``build_table``, and each item advances alone
    through its mode's per-packet cycle loop (:meth:`_sf_run` or
    :func:`~repro.network.flowcontrol.reference_flow_run`), so this
    engine shares no routing or cycle code with the tables and kernel
    it checks, faulted runs included.
    """

    _route_table = staticmethod(RouteTable.build)

    def _advance(self, preps: List[_Prepared], flows: List[FlowControl],
                 nfs: List[np.ndarray], max_cycles: int) -> List[FlowOutcome]:
        outcomes = []
        for prep, flow, nf in zip(preps, flows, nfs):
            routes = [prep.table.route_nodes(r).tolist() for r in prep.row]
            inject = prep.inject.tolist()
            if flow.pipelined:
                outcomes.append(reference_flow_run(
                    self.topo, flow, routes, inject, nf.tolist(), prep.link_dead,
                    max_cycles,
                ))
            else:
                outcomes.append(self._sf_run(routes, inject, prep.link_dead, max_cycles))
        return outcomes

    @staticmethod
    def _sf_run(
        routes: List[List[int]],
        inject: List[int],
        link_dead: Dict[Tuple[int, int], int],
        max_cycles: int,
    ) -> FlowOutcome:
        """The store-and-forward cycle loop: the per-packet executable
        spec of the sf engines, ending in the same raw outcome as
        :func:`~repro.network.flowcontrol.reference_flow_run`."""
        num = len(routes)
        delivered_at = [-1] * num
        hop = [0] * num
        queues: Dict[Tuple[int, int], deque] = {}
        next_pid = 0
        in_flight = 0
        max_queue = 0
        cycle = 0
        remaining = num
        dropped_in_flight = 0
        while (next_pid < num or in_flight > 0) and cycle < max_cycles:
            # inject (pids are already in injection-cycle order)
            while next_pid < num and inject[next_pid] <= cycle:
                pid = next_pid
                next_pid += 1
                route = routes[pid]
                if len(route) == 1:
                    delivered_at[pid] = cycle
                    remaining -= 1
                    continue
                queues.setdefault((route[0], route[1]), deque()).append(pid)
                in_flight += 1
            # forward: each live link serves its head-of-queue packet; a
            # dead link loses its whole queue this cycle
            arrivals: List[int] = []
            for link, q in queues.items():
                if not q:
                    continue
                max_queue = max(max_queue, len(q))
                if link_dead.get(link, _NEVER) <= cycle:
                    dropped_in_flight += len(q)
                    in_flight -= len(q)
                    q.clear()
                else:
                    arrivals.append(q.popleft())
            # late arrivals join behind this cycle's injections, pid order
            for pid in sorted(arrivals):
                hop[pid] += 1
                route = routes[pid]
                at = hop[pid]
                if at == len(route) - 1:
                    delivered_at[pid] = cycle + 1
                    remaining -= 1
                    in_flight -= 1
                else:
                    queues.setdefault((route[at], route[at + 1]), deque()).append(pid)
            cycle += 1
        return FlowOutcome(
            cycles=max(cycle, 1),
            delivered_at=np.asarray(delivered_at, dtype=np.int64),
            max_queue=max_queue,
            dropped_in_flight=dropped_in_flight,
            stalled=remaining - dropped_in_flight,
            deadlocked=False,
        )


class VectorizedSimulator(_Simulator):
    """Array-based engine (same semantics, NumPy speed), for every mode.

    Its :meth:`run_batch` builds each group's route tables with
    :func:`~repro.network.routing.route_table` and hands the whole batch
    to the fused advance kernel (:func:`repro.network.kernel.run_fused`):
    one mode engine per switching discipline, each on its own clock,
    every replication in a disjoint id space, and
    :class:`ReferenceSimulator`'s queue discipline reproduced exactly,
    whatever the batch around a run.

    ``backend`` names the kernel backend for this simulator's runs
    (``"numpy"``, ``"native"``, ``"auto"``; ``None`` defers to
    ``$REPRO_BACKEND`` / ``auto``).
    """

    def __init__(self, topo: Topology, router=None, backend=None):
        super().__init__(topo, router)
        self.backend = backend

    _route_table = staticmethod(route_table)
    # named in this class's own namespace too: perfbench's tracer wraps
    # ``vars(BatchedSimulator)["run_batch"]``
    run_batch = _Simulator.run_batch

    def _advance(self, preps: List[_Prepared], flows: List[FlowControl],
                 nfs: List[np.ndarray], max_cycles: int) -> List[FlowOutcome]:
        # items sharing a route table pass the same link-id array, so the
        # kernel builds its channel sequence once
        runs = [
            KernelRun(
                flow=flow, inject=prep.inject, nhops=prep.nhops, links=prep.links,
                link_offsets=prep.link_offsets, row=prep.row, nf=nf,
                link_dead=prep.link_dead,
            )
            for prep, flow, nf in zip(preps, flows, nfs)
        ]
        return run_fused(self.topo, runs, max_cycles, backend=self.backend)


class NetworkSimulator(VectorizedSimulator):
    """The default simulator: the vectorized engine under its public name."""
