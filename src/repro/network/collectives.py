"""Collective-communication workloads compiled for the cycle engines.

The ICPP'93 line motivates the Fibonacci-cube topologies by their
*communication algorithms* -- broadcast trees, ring emulation over
Hamiltonian paths -- yet schedules alone say nothing about contention.
This module turns the abstract schedules of
:mod:`repro.network.broadcast` and :mod:`repro.network.hamilton` into
first-class *simulated* workloads: dependency-respecting
``(cycle, src, dst)`` traffic with a barrier between rounds, runnable
through both :class:`~repro.network.simulator.ReferenceSimulator` and
:class:`~repro.network.simulator.VectorizedSimulator` under every
switching mode and :class:`~repro.network.faults.FaultPlan`.

Collectives (single-port model: one send and one receive per node per
round)
-----------------------------------------------------------------------
``broadcast``
    One root informs everyone: the greedy binomial/BFS-tree schedule of
    :func:`~repro.network.broadcast.binomial_broadcast_schedule`
    (optimal ``ceil(log2 n)`` rounds on the hypercube).
``reduce``
    The broadcast tree run backwards: leaves combine towards the root,
    every round of the broadcast schedule reversed and arrow-flipped, so
    a node sends its partial result only after all of its children have.
``allgather``
    Everyone ends with everyone's block.  On the full hypercube this is
    recursive doubling -- round ``k`` exchanges along dimension ``k``,
    meeting the ``log2 n`` bound exactly; generalized cubes are not
    closed under bit flips, so there the schedule falls back to a
    BFS-tree gather (the ``reduce`` rounds) followed by the broadcast.
``alltoall``
    All-to-all personalized exchange: ``n - 1`` cyclic-shift rounds,
    round ``k`` sending node ``i``'s block to node ``(i + k) mod n`` --
    every ordered pair exactly once, one send/receive per node per round.
``ring``
    Ring emulation over a Hamiltonian path
    (:func:`~repro.network.hamilton.find_hamiltonian_path`): ``n - 1``
    rounds of neighbour shifts along the path (closing the ring over the
    end-to-end link when the path happens to be a cycle) -- the workload
    behind ring allgather/allreduce on a cube that has no ring.  When
    the budgeted search finds no path the ring is *virtual* (DFS order,
    successors routed multi-hop), keeping the workload total on every
    topology.

Compilation (:func:`run_collective`)
------------------------------------
Rounds are separated by barriers: all messages of round ``r`` are
injected at one cycle, and round ``r + 1`` is injected at the cycle the
engine reports round ``r`` complete.  The barrier cycles are
*discovered by simulation*, so they are correct under contention,
multi-flit serialisation and faults.  The network drains at every
barrier, so each round is simulated once, alone at its barrier cycle,
and the rounds' results add up to one run over the full traffic.  One
lock-step loop compiles every collective, round ``r`` of all of them
as one ``run_batch`` call (so a sweep pack's collectives advance
together), on either engine; being bit-identical, both yield the same
traffic and :class:`CollectiveResult`.  A round that deadlocks or
stalls at ``max_cycles`` ends its collective: later rounds are never
injected and the wedged state is reported instead of hanging.

Every schedule is checked by :func:`verify_collective_schedule` (valid
nodes, single-port feasibility per round, tree/ring messages on real
links, full coverage) -- the tests run it on every collective and
topology they touch.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.network.broadcast import binomial_broadcast_schedule, verify_schedule
from repro.network.faults import FaultPlan
from repro.network.flowcontrol import FlowControl
from repro.network.hamilton import find_hamiltonian_path
from repro.network.routing import BfsRouter, route_blocks
from repro.network.simulator import (
    BatchItem,
    ReferenceSimulator,
    SimResult,
    VectorizedSimulator,
    _validate_max_cycles,
)
from repro.network.topology import Topology
from repro.network.traffic import flit_sizes

__all__ = [
    "COLLECTIVES",
    "CollectiveResult",
    "allgather_schedule",
    "alltoall_schedule",
    "broadcast_schedule",
    "collective_schedule",
    "reduce_schedule",
    "ring_schedule",
    "round_lower_bound",
    "run_collective",
    "schedule_link_loads",
    "verify_collective_schedule",
]

Round = List[Tuple[int, int]]
Schedule = List[Round]


def round_lower_bound(topo: Topology) -> int:
    """The single-port lower bound ``ceil(log2 n)`` on collective rounds."""
    n = topo.num_nodes
    return ceil(log2(n)) if n > 1 else 0


def broadcast_schedule(topo: Topology, root: int = 0) -> Schedule:
    """Single-port broadcast rounds from ``root`` (binomial/BFS tree)."""
    return binomial_broadcast_schedule(topo, root)


def reduce_schedule(topo: Topology, root: int = 0) -> Schedule:
    """Single-port reduce towards ``root``: the broadcast tree reversed.

    Round ``r`` of the reduce is round ``R - 1 - r`` of the broadcast
    with every ``(sender, receiver)`` flipped, so each node forwards its
    partial result only after every child in the tree has sent -- the
    dependency order of a combine, by construction.
    """
    rounds = binomial_broadcast_schedule(topo, root)
    return [[(v, u) for u, v in rnd] for rnd in reversed(rounds)]


def allgather_schedule(topo: Topology, root: int = 0) -> Schedule:
    """Single-port allgather rounds.

    On the full hypercube -- every ``d``-bit code addresses a node --
    recursive doubling: round ``k`` pairs every node with its
    dimension-``k`` neighbour and both directions exchange, ``log2 n``
    rounds, meeting the bound exactly.  On any other topology
    (generalized cubes are not closed under bit flips): a BFS-tree
    gather to ``root`` followed by the broadcast back out --
    ``reduce`` + ``broadcast`` rounds.
    """
    d = topo.word_length
    codes, node_of = topo.address_book()
    if d is not None and topo.num_nodes == len(node_of) == 1 << d:
        return [
            [(v, node_of[code ^ (1 << (d - 1 - k))]) for v, code in enumerate(codes)]
            for k in range(d)
        ]
    return reduce_schedule(topo, root) + broadcast_schedule(topo, root)


def alltoall_schedule(topo: Topology, root: int = 0) -> Schedule:
    """All-to-all personalized exchange: ``n - 1`` cyclic-shift rounds.

    Round ``k`` sends node ``i``'s block for node ``(i + k) mod n`` --
    every ordered pair is served exactly once and every round is a
    fixed-point-free permutation, so the single-port budget (one send,
    one receive per node per round) holds with equality.  ``root`` is
    accepted for registry uniformity and ignored.
    """
    n = topo.num_nodes
    return [[(i, (i + k) % n) for i in range(n)] for k in range(1, n)]


# ring orders memoised per graph signature: the exact Hamiltonian search
# is ~1 ms on clean cubes but can burn its whole budget on irregular
# (faulted) graphs, and traffic generators rebuild schedules per call
_RING_CACHE: Dict[Tuple, Tuple[int, ...]] = {}
_RING_BUDGET = 20_000


def _ring_order(g, node_budget: int) -> Tuple[int, ...]:
    """A ring-emulation node order: a Hamiltonian path when the budgeted
    search finds one, else a DFS preorder (the *virtual ring* fallback,
    consecutive nodes routed multi-hop)."""
    key = (node_budget, g.num_vertices, g.num_edges, tuple(g.edges()))
    hit = _RING_CACHE.get(key)
    if hit is not None:
        return hit
    try:
        path = find_hamiltonian_path(g, node_budget=node_budget)
    except RuntimeError:
        path = None
    if path is None:
        seen = [False] * g.num_vertices
        path = []
        stack = [0]
        while stack:
            v = stack.pop()
            if seen[v]:
                continue
            seen[v] = True
            path.append(v)
            stack.extend(sorted(g.neighbors(v), reverse=True))
    order = tuple(path)
    if len(_RING_CACHE) >= 16:
        _RING_CACHE.clear()
    _RING_CACHE[key] = order
    return order


def ring_schedule(
    topo: Topology, root: int = 0, node_budget: int = _RING_BUDGET
) -> Schedule:
    """Ring emulation over a Hamiltonian path: ``n - 1`` shift rounds.

    A Hamiltonian path is found by the exact search of
    :mod:`repro.network.hamilton` under ``node_budget`` backtrack nodes
    (milliseconds on the clean cube families); each round every node
    forwards one block to its successor along the path, and when the
    end-to-end link happens to exist the ring closes over it (a
    Hamiltonian cycle emulates the ring with no pipeline drain).  On a
    graph where the budgeted search finds no path (non-Hamiltonian, or
    an irregular faulted survivor where the exact search blows up) the
    schedule degrades to a *virtual ring* -- DFS preorder, successors
    routed multi-hop by the engine -- so the workload stays total on
    every topology, like every traffic pattern.  ``root`` rotates the
    ring start when the path closes into a cycle; on an open path it is
    ignored.
    """
    g = topo.graph
    n = topo.num_nodes
    if n == 1:
        return []
    path = list(_ring_order(g, node_budget))
    if len(path) < n:  # a disconnected graph (a fault view with a failed node)
        raise ValueError("ring order from node 0 does not reach every node")
    closed = g.has_edge(path[-1], path[0])
    if closed and root:
        at = path.index(root % n)
        path = path[at:] + path[:at]
    if closed:
        rnd = [(path[j], path[(j + 1) % n]) for j in range(n)]
    else:
        rnd = [(path[j], path[j + 1]) for j in range(n - 1)]
    return [list(rnd) for _ in range(n - 1)]


COLLECTIVES: Dict[str, object] = {
    "broadcast": broadcast_schedule,
    "reduce": reduce_schedule,
    "allgather": allgather_schedule,
    "alltoall": alltoall_schedule,
    "ring": ring_schedule,
}


def collective_schedule(name: str, topo: Topology, root: int = 0) -> Schedule:
    """Build a collective's round schedule by registry name."""
    try:
        builder = COLLECTIVES[name]
    except KeyError:
        raise ValueError(
            f"unknown collective {name!r}; choose from {sorted(COLLECTIVES)}"
        ) from None
    n = topo.num_nodes
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range for {n} nodes")
    return builder(topo, root)


# collectives whose every message is a single link activation (tree
# schedules); ``alltoall`` messages are always multi-hop, and a ``ring``
# round rides real links only when a Hamiltonian path was found (the
# virtual-ring fallback routes successors multi-hop), so both are
# checked for single-port feasibility but not edge-locality
_NEIGHBOUR_COLLECTIVES = frozenset({"broadcast", "reduce", "allgather"})


def verify_collective_schedule(
    topo: Topology, name: str, schedule: Schedule, root: int = 0
) -> bool:
    """Validate a collective schedule against the single-port model.

    Checks, for every round: senders and receivers are valid distinct
    nodes, no node sends twice, no node receives twice; for the
    tree/ring collectives every message additionally rides an existing
    link (``alltoall`` messages are multi-hop and routed by the engine,
    which itself only ever uses real links).  Collective-specific
    coverage: ``broadcast`` must satisfy
    :func:`~repro.network.broadcast.verify_schedule`, ``reduce`` must be
    its exact reversal, ``alltoall`` must serve every ordered pair
    exactly once.
    """
    g = topo.graph
    n = g.num_vertices
    neighbour_only = name in _NEIGHBOUR_COLLECTIVES
    for rnd in schedule:
        senders = set()
        receivers = set()
        for u, v in rnd:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                return False
            if u in senders or v in receivers:
                return False
            if neighbour_only and not g.has_edge(u, v):
                return False
            senders.add(u)
            receivers.add(v)
    if name == "broadcast":
        return verify_schedule(topo, root, schedule)
    if name == "reduce":
        forward = [[(v, u) for u, v in rnd] for rnd in reversed(schedule)]
        return verify_schedule(topo, root, forward)
    if name == "alltoall":
        pairs = [(u, v) for rnd in schedule for u, v in rnd]
        return len(pairs) == n * (n - 1) and len(set(pairs)) == len(pairs)
    return True


def schedule_link_loads(
    topo: Topology, schedule: Schedule, router=None
) -> Dict[Tuple[int, int], int]:
    """Messages per *directed* link over the whole schedule, as routed.

    Each ``(src, dst)`` message is resolved through ``router`` (default
    exact shortest path) on the healthy topology and every link of its
    route counts one unit -- the static offered congestion the paper's
    link-load arguments reason about.  Unroutable messages contribute
    nothing.
    """
    router = router if router is not None else BfsRouter()
    loads: Dict[Tuple[int, int], int] = {}
    for _, table, rows in route_blocks(topo, router, [p for rnd in schedule for p in rnd]):
        codes, offsets = table.hops()
        mult = np.bincount(rows[rows >= 0], minlength=table.num_routes)
        links, at = np.unique(codes, return_inverse=True)
        units = np.bincount(at, weights=np.repeat(mult, np.diff(offsets)))
        for code, load in zip(links.tolist(), units.astype(np.int64).tolist()):
            link = divmod(code, topo.num_nodes)
            loads[link] = loads.get(link, 0) + load
    return loads


@dataclass(frozen=True)
class CollectiveResult:
    """One compiled-and-simulated collective, in SimResult-compatible form.

    ``rounds`` is the schedule's round count and ``round_bound`` the
    single-port lower bound ``ceil(log2 n)``; ``round_starts`` holds the
    injection (barrier) cycle of every round actually injected -- fewer
    than ``rounds`` only when the run deadlocked or hit ``max_cycles``
    mid-collective.  ``result`` sums the round runs, and equals one
    engine run over the full compiled ``traffic`` (completion time =
    ``result.cycles``); ``max_link_load`` / ``avg_link_load`` condense
    :func:`schedule_link_loads` over the links the schedule actually
    uses.
    """

    name: str
    topology: str
    root: int
    rounds: int
    round_bound: int
    round_starts: Tuple[int, ...]
    traffic: Tuple[Tuple[int, int, int], ...]
    result: SimResult
    max_link_load: int
    avg_link_load: float

    @property
    def completion_time(self) -> int:
        """Cycles from first injection to last delivery (the run length)."""
        return self.result.cycles

    @property
    def completed(self) -> bool:
        """Every round injected and every message delivered."""
        return (
            len(self.round_starts) == self.rounds
            and self.result.delivered == self.result.injected
        )


_ENGINES = {
    "reference": ReferenceSimulator,
    "vectorized": VectorizedSimulator,
}


def run_collective(
    topo: Topology,
    name: str,
    root: int = 0,
    router=None,
    engine: Union[str, type] = "vectorized",
    switching: Union[str, FlowControl] = "sf",
    flits: Union[int, str] = 1,
    flit_seed: int = 0,
    faults: Optional[FaultPlan] = None,
    max_cycles: int = 100000,
) -> CollectiveResult:
    """Compile and simulate one collective with per-round barriers.

    The schedule's rounds are injected one barrier at a time: round
    ``r + 1`` enters at the cycle the engine reports round ``r``
    complete, so no message is offered before every message it depends
    on has been delivered.  Each round is simulated once, and the
    returned ``result`` is their sum: what one engine pass over the
    full compiled traffic reports.  ``engine`` is ``"vectorized"`` /
    ``"reference"`` (or a simulator class); since the engines are
    bit-identical, both compile the same barriers and return the same
    result -- the collectives equivalence tests assert exactly that.

    ``flits`` is an int or a ``"lo-hi"`` spec resolved per message with
    ``flit_seed`` (wormhole/vct only); ``faults`` threads a
    :class:`FaultPlan` through every run, so a collective can lose tree
    edges mid-flight and the delivery/drop accounting shows it.  A
    deadlocked (or ``max_cycles``-stalled) round stops the compilation:
    later rounds are never injected and the wedged state is reported.
    """
    if isinstance(engine, str):
        try:
            engine_cls = _ENGINES[engine]
        except KeyError:
            raise ValueError(
                f"unknown engine {engine!r}; choose from {sorted(_ENGINES)}"
            ) from None
    else:
        engine_cls = engine
    sim = engine_cls(topo, router)
    job = (name, root, sim.router, switching, flits, flit_seed, faults)
    [(schedule, starts, traffic, result)] = _run_collectives(
        sim, [job], max_cycles
    )
    loads = schedule_link_loads(topo, schedule, router=sim.router)
    return CollectiveResult(
        name=name,
        topology=topo.name,
        root=root,
        rounds=len(schedule),
        round_bound=round_lower_bound(topo),
        round_starts=starts,
        traffic=traffic,
        result=result,
        max_link_load=max(loads.values()) if loads else 0,
        avg_link_load=(sum(loads.values()) / len(loads)) if loads else 0.0,
    )


def _merge_rounds(runs: List[SimResult]) -> SimResult:
    """One run's result from its rounds' runs, which never overlap:
    counts add up, ``cycles`` and ``max_queue`` are the maxima (``1``
    and ``0``, an empty run's, without rounds), per-packet tuples join
    in round (= pid) order, and a deadlocked round deadlocks the run."""
    return SimResult(
        cycles=max((r.cycles for r in runs), default=1),
        injected=sum(r.injected for r in runs),
        delivered=sum(r.delivered for r in runs),
        latencies=tuple(x for r in runs for x in r.latencies),
        max_queue=max((r.max_queue for r in runs), default=0),
        dropped=sum(r.dropped for r in runs),
        misroutes=sum(r.misroutes for r in runs),
        hops=tuple(x for r in runs for x in r.hops),
        stalled=sum(r.stalled for r in runs),
        deadlocked=any(r.deadlocked for r in runs),
    )


def _run_collectives(sim, jobs, max_cycles: int) -> List[tuple]:
    """The one compilation loop: run collectives on ``sim``'s topology
    in lock step, round ``r`` of every collective still running as one
    ``sim.run_batch`` call.  A job is ``(name, root, router, switching,
    flits, flit_seed, faults)``, ``router`` resolved; each gives back
    ``(schedule, round_starts, traffic, result)``.  A round starts at
    ``max(start, cycles)`` of the last (an all-dropped round reports
    ``cycles=1``); one that deadlocks or stalls ends its collective,
    and finishing exactly at the cap completes it."""
    topo, max_cycles = sim.topo, _validate_max_cycles(max_cycles)
    schedules, sizes = [], []
    for name, root, _, _, flits, flit_seed, _ in jobs:
        schedule = collective_schedule(name, topo, root=root)
        if not verify_collective_schedule(topo, name, schedule, root=root):
            raise RuntimeError(
                f"collective {name!r} produced an invalid schedule on {topo.name} (bug)"
            )
        schedules.append(schedule)
        total = sum(len(rnd) for rnd in schedule)
        sizes.append(flit_sizes(total, flits, seed=flit_seed))
    # per job: each injected round's barrier cycle, messages and run
    starts, traffic, runs = ([[] for _ in jobs] for _ in range(3))
    live = [j for j, schedule in enumerate(schedules) if schedule]
    r = 0
    while live:
        items = []
        for j in live:
            cycle = max(starts[j][-1], runs[j][-1].cycles) if r else 0
            chunk = [(cycle, u, v) for u, v in schedules[j][r]]
            at = len(traffic[j])
            starts[j].append(cycle)
            traffic[j].extend(chunk)
            _, _, router, switching, _, _, faults = jobs[j]
            items.append(BatchItem(
                chunk, router, faults, switching, sizes[j][at:at + len(chunk)]
            ))
        for j, out in zip(live, sim.run_batch(items, max_cycles=max_cycles)):
            runs[j].append(out)
        r += 1
        live = [j for j in live if r < len(schedules[j])
                and not (runs[j][-1].deadlocked or runs[j][-1].stalled)]
    return [
        (schedule, tuple(s), tuple(t), _merge_rounds(rs))
        for schedule, s, t, rs in zip(schedules, starts, traffic, runs)
    ]
