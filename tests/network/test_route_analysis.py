"""Route analysis read from route tables, against the per-pair oracle.

``route_stats``, ``channel_dependency_graph`` and ``schedule_link_loads``
read blocks of :class:`~repro.network.routing.RouteTable` rows.  The
``oracle_*`` functions below are the per-pair loops they replaced: each
pair goes through ``router.route`` on its own.  For every router of
``sweep.ROUTERS`` on every connected cube with |f| <= 4 and d <= 5, on
Q_5 and on Q_4 with the link 0000-1000 dead, both sides must agree over
all pairs, over a pair list with duplicates and self-pairs and over no
pairs -- raising the same error where the oracle raises -- and must give
equal link loads for every collective.  A fault view with a failed node
is a routable input too, and caller pairs are checked.
"""

import itertools
import random
from functools import lru_cache

import numpy as np
import pytest

from repro.cubes.hypercube import hypercube
from repro.network import routing
from repro.network.collectives import (
    COLLECTIVES,
    alltoall_schedule,
    collective_schedule,
    schedule_link_loads,
)
from repro.network.deadlock import (
    channel_dependency_graph,
    find_dependency_cycle,
    is_deadlock_free,
)
from repro.network.faults import FaultPlan
from repro.network.routing import RouteStats, route_stats
from repro.network.sweep import ROUTERS
from repro.network.topology import topology_of


def oracle_route_stats(topo, router, pairs=None):
    g = topo.graph
    n = g.num_vertices
    if pairs is None:
        pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
    delivered = optimal = total_hops = total_shortest = 0
    ends = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    shortest_of = topo.hop_distances(ends[:, 0], ends[:, 1]).tolist()
    for (s, t), shortest in zip(pairs, shortest_of):
        path = router.route(topo, s, t)
        if path is None:
            continue
        if path[0] != s or path[-1] != t:
            raise AssertionError(f"router {router.name} returned a broken path")
        for a, b in zip(path, path[1:]):
            if not g.has_edge(a, b):
                raise AssertionError(f"router {router.name} used a non-edge")
        hops = len(path) - 1
        delivered += 1
        total_hops += hops
        total_shortest += shortest
        if hops == shortest:
            optimal += 1
    return RouteStats(
        router=getattr(router, "name", type(router).__name__),
        pairs=len(pairs),
        delivered=delivered,
        optimal=optimal,
        total_hops=total_hops,
        total_shortest=total_shortest,
    )


def oracle_cdg(topo, router, pairs=None):
    n = topo.graph.num_vertices
    if pairs is None:
        pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
    deps = {}
    for s, t in pairs:
        path = router.route(topo, s, t)
        if path is None or len(path) < 3:
            continue
        channels = list(zip(path, path[1:]))
        for c1, c2 in zip(channels, channels[1:]):
            deps.setdefault(c1, set()).add(c2)
    return deps


def oracle_link_loads(topo, schedule, router):
    counts = {}
    for rnd in schedule:
        for pair in rnd:
            counts[pair] = counts.get(pair, 0) + 1
    loads = {}
    for pair, mult in counts.items():
        path = router.route(topo, *pair)
        if path is None:
            continue
        for a, b in zip(path, path[1:]):
            loads[(a, b)] = loads.get((a, b), 0) + mult
    return loads


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared against the other side's outcome
        return type(exc), str(exc)


class Remembered:
    """``router`` with each pair's path kept: routers are deterministic,
    so the oracles of one case route every pair once between them."""

    def __init__(self, router):
        self.router, self.name, self.paths = router, router.name, {}

    def route(self, topo, s, t):
        if (s, t) not in self.paths:
            self.paths[(s, t)] = self.router.route(topo, s, t)
        return self.paths[(s, t)]


def _topologies():
    cubes = {}
    for d in range(1, 6):
        cubes[f"Q_{d}"] = topology_of(hypercube(d), name=f"Q_{d}")
        for k in range(1, min(d, 4) + 1):  # a longer factor leaves Q_d
            for f in map("".join, itertools.product("01", repeat=k)):
                try:
                    cubes[f"Q_{d}({f})"] = topology_of((f, d))
                except ValueError:  # disconnected
                    pass
    q4 = cubes["Q_4"]
    u, v = sorted(q4.graph.index_of(w) for w in ("0000", "1000"))
    plan = FaultPlan.parse(f"l{u}-{v}").validate(q4)
    cubes["Q_4/l0000-1000"] = q4.with_faults(plan, at_cycle=0)
    return cubes


TOPOLOGIES = _topologies()


def _pair_list(n):
    """An unsorted pair list with every self-pair and some duplicates."""
    pairs = [(s, t) for s in range(n) for t in range(n) if (s + 6 * t) % 7 == 0]
    pairs += pairs[:5]
    random.Random(n).shuffle(pairs)
    return pairs


@lru_cache(maxsize=None)
def _schedules(name):
    topo = TOPOLOGIES[name]
    return [collective_schedule(c, topo) for c in COLLECTIVES]


def assert_matches_oracle(name, router_name):
    topo, router = TOPOLOGIES[name], ROUTERS[router_name]()
    oracle = Remembered(ROUTERS[router_name]())
    for pairs in (None, _pair_list(topo.num_nodes), []):
        assert outcome(route_stats, topo, router, pairs) == outcome(
            oracle_route_stats, topo, oracle, pairs
        )
        assert channel_dependency_graph(topo, router, pairs) == oracle_cdg(
            topo, oracle, pairs
        )
    for schedule in _schedules(name):
        assert schedule_link_loads(topo, schedule, router) == oracle_link_loads(
            topo, schedule, oracle
        )


@pytest.mark.parametrize("router_name", sorted(ROUTERS))
@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_tables_match_per_pair_routing(name, router_name):
    assert_matches_oracle(name, router_name)


@pytest.mark.parametrize("router_name", sorted(ROUTERS))
def test_one_call_spans_many_tables(monkeypatch, router_name):
    """Seven pairs a table: every analysis runs over many blocks."""
    monkeypatch.setattr(routing, "_BLOCK_PAIRS", 7)
    for name in ("Q_5(11)", "Q_4(1010)", "Q_4/l0000-1000"):
        assert_matches_oracle(name, router_name)


@pytest.mark.parametrize("router_name", ["canonical", "ecube"])
def test_dead_link_is_a_non_edge(router_name):
    """Word routers do not see the dead link: the check catches them."""
    topo, router = TOPOLOGIES["Q_4/l0000-1000"], ROUTERS[router_name]()
    with pytest.raises(AssertionError, match="used a non-edge"):
        route_stats(topo, router)


WORD_ROUTERS = sorted(set(ROUTERS) - {"bfs"})
GAMMA5 = topology_of(("11", 5))
FAILED = 3
# node 3 fails alone, then with the first link away from it
NODE_VIEW = GAMMA5.with_faults(FaultPlan.static(nodes=[FAILED]))
FAULT_VIEW = GAMMA5.with_faults(
    FaultPlan.static(
        nodes=[FAILED], links=[next(e for e in GAMMA5.graph.edges() if FAILED not in e)]
    )
)


class TestFaultViewsAreRoutable:
    """A failed node's word is hidden on a fault view, so a pair with a
    failed endpoint is unroutable for every word router, as it is under
    BFS, and every analysis runs on the view."""

    @pytest.mark.parametrize("router_name", WORD_ROUTERS)
    def test_a_failed_endpoint_is_unroutable(self, router_name):
        router = ROUTERS[router_name]()
        for v in range(FAULT_VIEW.num_nodes):
            assert router.route(FAULT_VIEW, FAILED, v) is None
            assert router.route(FAULT_VIEW, v, FAILED) is None

    @pytest.mark.parametrize("router_name", WORD_ROUTERS)
    def test_route_stats_counts_them_undelivered(self, router_name):
        """Canonical and e-cube do not see dead links (see
        test_dead_link_is_a_non_edge): they are scored on the node fault
        alone."""
        router = ROUTERS[router_name]()
        view = FAULT_VIEW if router_name in ("adaptive", "greedy") else NODE_VIEW
        n = view.num_nodes
        live = [(s, t) for s in range(n) for t in range(n) if s != t and FAILED not in (s, t)]
        stats, live_stats = route_stats(view, router), route_stats(view, router, live)
        assert stats.pairs == n * (n - 1) and live_stats.pairs == (n - 1) * (n - 2)
        assert stats.delivered == live_stats.delivered > 0
        assert stats == oracle_route_stats(view, router)

    @pytest.mark.parametrize("router_name", WORD_ROUTERS)
    def test_the_analyses_run_on_the_view(self, router_name):
        router = ROUTERS[router_name]()
        deps = channel_dependency_graph(FAULT_VIEW, router)
        assert deps == oracle_cdg(FAULT_VIEW, router)
        assert all(FAILED not in channel for channel in deps)
        assert is_deadlock_free(FAULT_VIEW, router) == (find_dependency_cycle(deps) is None)
        schedule = alltoall_schedule(FAULT_VIEW)
        loads = schedule_link_loads(FAULT_VIEW, schedule, router)
        assert loads == oracle_link_loads(FAULT_VIEW, schedule, router)
        assert loads and all(FAILED not in link for link in loads)


class TestCallerPairs:
    """The analyses check the pairs a caller gives them, as the engines
    check traffic: a row that is not an integer ``(src, dst)`` pair, or a
    node outside ``[0, n)``, is a ``ValueError`` -- not another pair's
    code, and not the router's fault."""

    TOPO = topology_of(("11", 4))  # 8 nodes
    BAD = [
        ([(0, 8)], "outside 0..7"),
        ([(8, 0)], "outside 0..7"),
        ([(0, 1), (-1, 2)], "outside 0..7"),
        ([(0, 1, 2)], "integer rows"),
        ([(0.0, 1.0)], "integer rows"),
    ]

    @pytest.mark.parametrize("pairs, match", BAD)
    def test_route_stats(self, pairs, match):
        with pytest.raises(ValueError, match=match):
            route_stats(self.TOPO, routing.BfsRouter(), pairs)

    @pytest.mark.parametrize("pairs, match", BAD)
    def test_channel_dependency_graph(self, pairs, match):
        with pytest.raises(ValueError, match=match):
            channel_dependency_graph(self.TOPO, routing.BfsRouter(), pairs)

    @pytest.mark.parametrize("pairs, match", BAD)
    def test_schedule_link_loads(self, pairs, match):
        with pytest.raises(ValueError, match=match):
            schedule_link_loads(self.TOPO, [pairs])
