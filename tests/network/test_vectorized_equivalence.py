"""Vectorized engine vs the reference engine: identical SimResults.

The vectorized simulator is only allowed to be *faster*, never
*different*: over seeded traffic from every pattern, on the Fibonacci
cube, the hypercube and a faulted topology, both engines must produce
the same ``SimResult`` field for field -- latencies and hop counts (per
packet, in injection order), cycle count, throughput, drop/misroute
counters, stall/deadlock verdicts and max queue depth.  The faulted
scenarios exercise the dynamic model end to end: static and staged
node/link failures, under fault-aware and fault-oblivious routers
alike; the switching grid re-runs the whole contract under wormhole and
virtual-cut-through flow control (finite buffers, multi-flit packets,
virtual channels).
"""

from functools import partial

import numpy as np
import pytest

from repro.cubes.hypercube import hypercube
from repro.network.backends import native as _native
from repro.network.faults import FaultPlan
from repro.network.flowcontrol import FlowControl
from repro.network.routing import (
    AdaptiveRouter,
    BfsRouter,
    CanonicalRouter,
    GreedyRouter,
    RouteTable,
)
from repro.network.simulator import (
    NetworkSimulator,
    ReferenceSimulator,
    VectorizedSimulator,
)
from repro.network.topology import faulted_topology, topology_of
from repro.network.traffic import PATTERNS, flit_sizes, make_traffic


def _topologies():
    return {
        "fibonacci": topology_of(("11", 6)),
        "hypercube": topology_of(hypercube(4), name="Q4"),
        "faulted": faulted_topology(topology_of(("11", 7)), 3, seed=5),
    }


TOPOLOGIES = _topologies()


def _fault_plans(topo):
    """Two plans valid on any of the test topologies: everything failed
    up front, and failures striking while traffic is in flight."""
    u, v = next(iter(topo.graph.edges()))
    n = topo.num_nodes
    return {
        "static": FaultPlan(node_faults=((0, 2 % n),), link_faults=((0, u, v),)),
        "staged": FaultPlan(node_faults=((4, 3 % n),), link_faults=((9, u, v),)),
    }


@pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_engines_agree_on_every_pattern(topo_name, pattern):
    topo = TOPOLOGIES[topo_name]
    for seed, window in ((0, 1), (7, 25)):
        traffic = make_traffic(pattern, topo, 150, window, seed=seed)
        ref = ReferenceSimulator(topo).run(traffic)
        vec = VectorizedSimulator(topo).run(traffic)
        assert ref == vec, (topo_name, pattern, seed, window)


@pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
def test_engines_agree_under_cycle_cap(topo_name):
    """Truncated runs (saturated network, hard cap) must also agree."""
    topo = TOPOLOGIES[topo_name]
    traffic = make_traffic("hotspot", topo, 200, 1, seed=3)
    for cap in (1, 5, 23):
        ref = ReferenceSimulator(topo).run(traffic, max_cycles=cap)
        vec = VectorizedSimulator(topo).run(traffic, max_cycles=cap)
        assert ref == vec, cap
        assert ref.cycles <= cap


@pytest.mark.parametrize("topo_name", ["fibonacci", "hypercube", "faulted"])
@pytest.mark.parametrize("plan_name", ["static", "staged"])
@pytest.mark.parametrize(
    "make_router", [AdaptiveRouter, BfsRouter, CanonicalRouter],
    ids=["adaptive", "bfs", "canonical"],
)
def test_engines_agree_under_faults(topo_name, plan_name, make_router):
    """The acceptance grid: >= 3 topologies x 2 fault plans x 3 routers,
    bit-identical SimResults including drop/misroute counters."""
    topo = TOPOLOGIES[topo_name]
    plan = _fault_plans(topo)[plan_name]
    router = make_router()
    for pattern, seed in (("uniform", 1), ("hotspot", 3)):
        traffic = make_traffic(pattern, topo, 200, 12, seed=seed)
        ref = ReferenceSimulator(topo, router).run(traffic, faults=plan)
        vec = VectorizedSimulator(topo, router).run(traffic, faults=plan)
        assert ref == vec, (topo_name, plan_name, router.name, pattern)
        assert ref.delivered + ref.dropped <= ref.injected


def test_engines_agree_under_faults_with_cycle_cap():
    topo = TOPOLOGIES["fibonacci"]
    plan = _fault_plans(topo)["staged"]
    traffic = make_traffic("hotspot", topo, 200, 1, seed=3)
    for cap in (1, 5, 23):
        ref = ReferenceSimulator(topo, AdaptiveRouter()).run(
            traffic, max_cycles=cap, faults=plan
        )
        vec = VectorizedSimulator(topo, AdaptiveRouter()).run(
            traffic, max_cycles=cap, faults=plan
        )
        assert ref == vec, cap
        assert ref.cycles <= cap


FLOWS = {
    "sf": ("sf", "1"),
    "wormhole": (FlowControl("wormhole", buffer_depth=2, num_vcs=2), "1-5"),
    "vct": (FlowControl("vct", buffer_depth=6, num_vcs=2), "1-5"),
}


@pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
@pytest.mark.parametrize("flow_name", sorted(FLOWS))
@pytest.mark.parametrize(
    "make_router", [AdaptiveRouter, BfsRouter, CanonicalRouter],
    ids=["adaptive", "bfs", "canonical"],
)
@pytest.mark.parametrize("plan_name", ["none", "static", "staged"])
def test_engines_agree_in_every_switching_mode(
    topo_name, flow_name, make_router, plan_name
):
    """The flow-control acceptance grid: 3 topologies x 3 switching
    modes x 3 routers x (no faults + 2 fault plans), multi-flit traffic,
    bit-identical SimResults including the new stalled/deadlocked
    fields."""
    topo = TOPOLOGIES[topo_name]
    flow, flit_spec = FLOWS[flow_name]
    plan = None if plan_name == "none" else _fault_plans(topo)[plan_name]
    router = make_router()
    traffic = make_traffic("uniform", topo, 150, 12, seed=1)
    sizes = flit_sizes(len(traffic), flit_spec, seed=2)
    ref = ReferenceSimulator(topo, router).run(
        traffic, faults=plan, switching=flow, flits=sizes
    )
    vec = VectorizedSimulator(topo, router).run(
        traffic, faults=plan, switching=flow, flits=sizes
    )
    assert ref == vec, (topo_name, flow_name, router.name, plan_name)
    assert ref.delivered + ref.dropped + ref.stalled == ref.injected


@pytest.mark.parametrize("flow_name", ["wormhole", "vct"])
def test_engines_agree_in_flow_modes_under_cycle_cap(flow_name):
    topo = TOPOLOGIES["fibonacci"]
    flow, flit_spec = FLOWS[flow_name]
    traffic = make_traffic("hotspot", topo, 200, 1, seed=3)
    sizes = flit_sizes(len(traffic), flit_spec, seed=4)
    for cap in (1, 5, 23):
        ref = ReferenceSimulator(topo).run(
            traffic, max_cycles=cap, switching=flow, flits=sizes
        )
        vec = VectorizedSimulator(topo).run(
            traffic, max_cycles=cap, switching=flow, flits=sizes
        )
        assert ref == vec, (flow_name, cap)
        assert ref.cycles <= cap


def test_negative_injection_cycles_rejected_by_both_engines():
    """Regression: the vectorized engine used to start counting at the
    (negative) first injection cycle while the reference engine started
    at 0 and injected late -- silently diverging latencies and cycle
    counts.  Both engines now reject negative cycles up front, on every
    preparation path."""
    topo = TOPOLOGIES["fibonacci"]
    traffic = [(-3, 0, 5), (0, 1, 4), (2, 3, 6)]
    plan = _fault_plans(topo)["staged"]
    for sim in (ReferenceSimulator(topo), VectorizedSimulator(topo)):
        with pytest.raises(ValueError, match="non-negative"):
            sim.run(traffic)
        with pytest.raises(ValueError, match="non-negative"):
            sim.run(traffic, faults=plan)
        with pytest.raises(ValueError, match="non-negative"):
            sim.run(traffic, switching=FlowControl("wormhole"), flits=2)


NATIVE_OK = _native.load_library()[0] is not None

ENGINES = {
    "reference": ReferenceSimulator,
    "numpy": partial(VectorizedSimulator, backend="numpy"),
    "native": partial(VectorizedSimulator, backend="native"),
}


@pytest.mark.parametrize("bad", [7.5, 100.0, "100", True])
@pytest.mark.parametrize("engine", [
    "reference",
    "numpy",
    pytest.param("native", marks=pytest.mark.skipif(
        not NATIVE_OK, reason="no usable C toolchain for the native backend"
    )),
])
def test_non_integer_max_cycles_rejected_by_every_engine(engine, bad):
    """Regression: 7.5 used to give cycles=8 on the reference engine, a
    float cycles=7.5 on NumPy and a ctypes TypeError on native, and True
    gave cycles=True.  Every engine now rejects the same way up front,
    in every switching mode and for an empty batch too."""
    topo = TOPOLOGIES["fibonacci"]
    traffic = make_traffic("uniform", topo, 40, 5, seed=0)
    sim = ENGINES[engine](topo)
    for switching in ("sf", "wormhole"):
        with pytest.raises(TypeError, match="max_cycles must be an integer"):
            sim.run(traffic, max_cycles=bad, switching=switching)
    if engine != "reference":
        with pytest.raises(TypeError, match="max_cycles must be an integer"):
            sim.run_batch([], max_cycles=bad)


def test_numpy_integer_max_cycles_is_accepted():
    topo = TOPOLOGIES["fibonacci"]
    traffic = make_traffic("hotspot", topo, 80, 1, seed=3)
    for sim in (ReferenceSimulator(topo), VectorizedSimulator(topo)):
        got = sim.run(traffic, max_cycles=np.int64(6))
        assert got == sim.run(traffic, max_cycles=6)
        assert type(got.cycles) is int and got.cycles == 6


def test_empty_fault_plan_is_a_no_op():
    topo = TOPOLOGIES["fibonacci"]
    traffic = make_traffic("uniform", topo, 150, 10, seed=4)
    plain = VectorizedSimulator(topo).run(traffic)
    empty = VectorizedSimulator(topo).run(traffic, faults=FaultPlan())
    assert plain == empty


def test_engines_agree_with_droppy_router():
    """GreedyRouter fails some pairs on Q_d(101): drops must match too."""
    topo = topology_of(("101", 4))
    traffic = make_traffic("uniform", topo, 120, 10, seed=2)
    ref = ReferenceSimulator(topo, GreedyRouter()).run(traffic)
    vec = VectorizedSimulator(topo, GreedyRouter()).run(traffic)
    assert ref == vec
    assert ref.delivery_rate < 1.0


def test_engines_agree_with_canonical_router():
    topo = TOPOLOGIES["fibonacci"]
    traffic = make_traffic("transpose", topo, 150, 12, seed=11)
    ref = ReferenceSimulator(topo, CanonicalRouter()).run(traffic)
    vec = VectorizedSimulator(topo, CanonicalRouter()).run(traffic)
    assert ref == vec


def test_batched_table_matches_per_pair_routes():
    """BfsRouter.build_table must return exactly route()'s paths."""
    topo = TOPOLOGIES["faulted"]
    router = BfsRouter()
    pairs = [(s, d) for s in range(topo.num_nodes) for d in range(topo.num_nodes)]
    table = router.build_table(topo, pairs)
    for pair in pairs:
        row = table.pair_row[pair]
        expected = router.route(topo, *pair)
        if expected is None:
            assert row == -1
        else:
            assert table.route_nodes(row).tolist() == expected, pair


def test_generic_build_matches_batched_build():
    topo = TOPOLOGIES["fibonacci"]
    pairs = [(s, (s + 3) % topo.num_nodes) for s in range(topo.num_nodes)]
    generic = RouteTable.build(topo, BfsRouter(), pairs)
    batched = BfsRouter().build_table(topo, pairs)
    for pair in pairs:
        g, b = generic.pair_row[pair], batched.pair_row[pair]
        assert (g < 0) == (b < 0)
        if g >= 0:
            assert generic.route_nodes(g).tolist() == batched.route_nodes(b).tolist()


def test_default_simulator_is_vectorized():
    assert issubclass(NetworkSimulator, VectorizedSimulator)


def test_empty_traffic():
    topo = TOPOLOGIES["hypercube"]
    ref = ReferenceSimulator(topo).run([])
    vec = VectorizedSimulator(topo).run([])
    assert ref == vec
    assert ref.cycles == 1 and ref.injected == 0 and ref.latencies == ()


def test_unsorted_traffic_is_stable_sorted():
    """Triples may arrive in any order; engines sort by cycle, stably."""
    topo = TOPOLOGIES["fibonacci"]
    traffic = [(5, 0, 3), (0, 1, 4), (5, 2, 6), (2, 3, 1)]
    ref = ReferenceSimulator(topo).run(traffic)
    vec = VectorizedSimulator(topo).run(traffic)
    assert ref == vec
    assert ref.delivered == 4


# -- the vectorised route table against its per-pair oracle -------------------

ORACLE_TOPOLOGIES = {
    "Q_5": topology_of(hypercube(5), name="Q5"),
    "Q_6(11)": topology_of(("11", 6)),
    "Q_6(101)": topology_of(("101", 6)),
    "Q_6(1010)": topology_of(("1010", 6)),  # not isometric
}


def _assert_table_is_route(topo):
    """Every ordered pair's table row is exactly BfsRouter.route's path,
    and a pair route() cannot serve has no row."""
    router = BfsRouter()
    n = topo.num_nodes
    pairs = [(s, d) for s in range(n) for d in range(n)]
    table = router.build_table(topo, pairs)
    assert len(table.pair_row) == len(pairs)
    unreachable = 0
    for pair in pairs:
        row = table.pair_row[pair]
        expected = router.route(topo, *pair)
        if expected is None:
            assert row == -1, pair
            unreachable += 1
        else:
            assert table.route_nodes(row).tolist() == expected, pair
    return unreachable


@pytest.mark.parametrize("name", sorted(ORACLE_TOPOLOGIES))
def test_vectorised_table_equals_route_on_every_pair(name):
    assert _assert_table_is_route(ORACLE_TOPOLOGIES[name]) == 0


def test_vectorised_table_on_a_masked_view_drops_unreachable_pairs():
    """On a fault-masked view the dead node is isolated: every pair
    to or from it (but its own zero-hop pair) is unroutable."""
    topo = ORACLE_TOPOLOGIES["Q_6(11)"]
    dead = 5
    u, v = next(e for e in topo.graph.edges() if dead not in e)
    view = topo.with_faults(FaultPlan.static(nodes=[dead], links=[(u, v)]))
    assert view is not topo
    assert _assert_table_is_route(view) == 2 * (topo.num_nodes - 1)


def test_adaptive_misroutes_match_the_per_pair_definition():
    """Misroute counts read from the cached distance rows equal the
    definition -- hops beyond the healthy topology's BFS distance,
    halved -- for every row of an AdaptiveRouter table under faults."""
    from repro.graphs.traversal import bfs_distances
    from repro.network.routing import route_table
    from repro.network.simulator import _prepare, _validate_item

    topo = TOPOLOGIES["fibonacci"]
    plan = _fault_plans(topo)["static"]
    traffic = make_traffic("uniform", topo, 400, 12, seed=5, faults=plan)
    arr, _ = _validate_item(traffic, FlowControl(), 1, None)
    [prep] = _prepare(topo, AdaptiveRouter(), [arr], plan, route_table)
    for r in range(prep.table.num_routes):
        path = prep.table.route_nodes(r).tolist()
        dist = int(bfs_distances(topo.graph, path[-1])[path[0]])
        want = max(0, (len(path) - 1 - dist) // 2) if dist >= 0 else 0
        assert prep.misroutes[r] == want, path
    assert prep.misroutes.sum() > 0
