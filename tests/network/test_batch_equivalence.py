"""Batched engine vs sequential vectorized runs: identical SimResults.

The batch engine is only allowed to be *faster*, never *different*: a
K-item batch must produce, item for item, exactly the ``SimResult`` a
sequential ``VectorizedSimulator.run`` of that item produces -- fault
plans, truncating cycle caps, droppy routers, mixed routers sharing (or
not sharing) route tables, and every switching mode (store-and-forward
and the natively-batched wormhole/vct flow-control modes, mixed freely
within one batch) all included.  This mirrors
``test_vectorized_equivalence.py`` one level up: that suite pins the
vectorized engine to the reference spec, this one pins the batch axis to
the vectorized engine, so the chain of custody back to the per-packet
reference loop is complete.
"""

import pytest

from repro.cubes.hypercube import hypercube
from repro.network.backends import native as _native
from repro.network.batch import (
    BatchedSimulator,
    BatchItem,
    run_batch,
)
from repro.network.faults import FaultPlan
from repro.network.flowcontrol import FlowControl
from repro.network.routing import (
    AdaptiveRouter,
    BfsRouter,
    DimensionOrderRouter,
    GreedyRouter,
)
from repro.network.simulator import ReferenceSimulator, VectorizedSimulator
from repro.network.topology import faulted_topology, topology_of
from repro.network.traffic import flit_sizes, make_traffic
from repro.network.workloads import compile_workload


def _topologies():
    return {
        "fibonacci": topology_of(("11", 6)),
        "hypercube": topology_of(hypercube(4), name="Q4"),
        "faulted": faulted_topology(topology_of(("11", 7)), 3, seed=5),
    }


TOPOLOGIES = _topologies()

BACKENDS = [
    "numpy",
    pytest.param("native", marks=pytest.mark.skipif(
        _native.load_library()[0] is None,
        reason="no usable C toolchain for the native backend",
    )),
]

ROUTER_MAKERS = {
    "ecube": DimensionOrderRouter,
    "bfs": BfsRouter,
    "adaptive": AdaptiveRouter,
}


def _fault_plans(topo):
    """Plans valid on any test topology: failures active up front, and
    failures striking while traffic is in flight."""
    u, v = next(iter(topo.graph.edges()))
    n = topo.num_nodes
    return {
        "none": None,
        "static": FaultPlan(node_faults=((0, 2 % n),), link_faults=((0, u, v),)),
        "staged": FaultPlan(node_faults=((4, 3 % n),), link_faults=((9, u, v),)),
    }


def _replications(topo, router, plan, k=4):
    """K replications with varying seed/pattern/load, one shared router
    instance (the shape the sweep packer produces)."""
    items = []
    for i in range(k):
        pattern = ("uniform", "hotspot", "transpose", "bursty")[i % 4]
        traffic = make_traffic(
            pattern, topo, 60 + 30 * i, 8 + 2 * i, seed=i, faults=plan
        )
        items.append(BatchItem(traffic=traffic, router=router, faults=plan))
    return items


def _sequential(topo, items, max_cycles=100000):
    return [
        VectorizedSimulator(topo, it.router).run(
            it.traffic, max_cycles=max_cycles, faults=it.faults,
            switching=it.switching, flits=it.flits,
        )
        for it in items
    ]


@pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
@pytest.mark.parametrize("router_name", sorted(ROUTER_MAKERS))
@pytest.mark.parametrize("plan_name", ["none", "static", "staged"])
def test_batched_matches_sequential(topo_name, router_name, plan_name):
    """The acceptance grid: >= 3 topologies x {ecube, bfs, adaptive} x
    fault plans, K-batched results bit-identical to K sequential runs."""
    topo = TOPOLOGIES[topo_name]
    plan = _fault_plans(topo)[plan_name]
    items = _replications(topo, ROUTER_MAKERS[router_name](), plan)
    got = BatchedSimulator(topo).run_batch(items)
    want = _sequential(topo, items)
    assert got == want, (topo_name, router_name, plan_name)
    assert any(r.delivered for r in got)


def test_mixed_routers_and_plans_in_one_batch():
    """One batch may mix router instances and fault plans freely: each
    replication still comes out exactly as its own sequential run."""
    topo = TOPOLOGIES["fibonacci"]
    plans = _fault_plans(topo)
    bfs, ecube = BfsRouter(), DimensionOrderRouter()
    items = [
        BatchItem(make_traffic("uniform", topo, 80, 10, seed=1), router=bfs),
        BatchItem(make_traffic("tornado", topo, 50, 5, seed=2), router=ecube),
        BatchItem(
            make_traffic("hotspot", topo, 90, 12, seed=3, faults=plans["staged"]),
            router=AdaptiveRouter(), faults=plans["staged"],
        ),
        BatchItem(make_traffic("uniform", topo, 40, 6, seed=4), router=bfs),
        BatchItem(
            make_traffic("uniform", topo, 70, 9, seed=5, faults=plans["static"]),
            router=bfs, faults=plans["static"],
        ),
    ]
    assert BatchedSimulator(topo).run_batch(items) == _sequential(topo, items)


@pytest.mark.parametrize("cap", [1, 5, 23])
def test_batched_matches_sequential_under_cycle_cap(cap):
    """Truncated runs (saturated network, hard cap) must agree too --
    per-run cycle counts, stall totals and all."""
    topo = TOPOLOGIES["hypercube"]
    items = [
        BatchItem(make_traffic("hotspot", topo, 120, 1, seed=s), router=BfsRouter())
        for s in range(3)
    ]
    got = BatchedSimulator(topo).run_batch(items, max_cycles=cap)
    assert got == _sequential(topo, items, max_cycles=cap)
    assert all(r.cycles <= cap for r in got)


MIXED_CAPS = (1, 7, 29, 100000)


def _mixed_items(topo):
    """sf, wormhole and vct items over one traffic, an empty item of
    each mode, an item whose packets are all unroutable (GreedyRouter on
    Q_4(101) has no route for these four pairs), sf and wormhole items
    whose fault plan kills only links no route of theirs uses (their
    packets stay on the 0-1-3-2 ring), and sf and wormhole items made
    only of zero-hop self-pairs."""
    traffic = make_traffic("uniform", topo, 60, 6, seed=7)
    sizes = flit_sizes(len(traffic), "1-4", seed=8)
    wormhole = FlowControl("wormhole", buffer_depth=2, num_vcs=2)
    vct = FlowControl("vct", buffer_depth=6, num_vcs=2)
    unroutable = [(0, 7, 11), (1, 8, 11), (2, 10, 8), (3, 11, 8)]
    ring = [(c, s, d) for c in range(6) for s, d in ((0, 3), (3, 0), (1, 2), (2, 1))]
    elsewhere = FaultPlan(link_faults=((0, 10, 11), (3, 9, 10)))
    self_pairs = [(0, 4, 4), (2, 5, 5), (2, 5, 5), (7, 0, 0)]
    return [
        BatchItem(traffic, router=BfsRouter()),
        BatchItem(traffic, router=BfsRouter(), switching=wormhole, flits=sizes),
        BatchItem(traffic, router=BfsRouter(), switching=vct, flits=sizes),
        BatchItem([]),
        BatchItem([], switching=wormhole),
        BatchItem([], switching=vct),
        BatchItem(unroutable, router=GreedyRouter(), switching=wormhole, flits=2),
        BatchItem(ring, faults=elsewhere),
        BatchItem(ring, faults=elsewhere, switching=wormhole, flits=2),
        BatchItem(self_pairs),
        BatchItem(self_pairs, switching=wormhole, flits=3),
    ]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("cap", MIXED_CAPS)
def test_mixed_switching_modes_in_one_batch(cap, backend):
    """sf, wormhole and vct items co-batch natively -- each mode engine
    on its own clock -- and every item, empty, all-unroutable, zero-hop
    and unused-link-fault ones included, matches ReferenceSimulator bit
    for bit under every cap."""
    topo = topology_of(("101", 4))
    items = _mixed_items(topo)
    got = BatchedSimulator(topo, backend=backend).run_batch(items, max_cycles=cap)
    assert got == ReferenceSimulator(topo).run_batch(items, max_cycles=cap)
    assert got[6].injected == got[6].dropped == 4
    assert all(r.injected == 0 and r.cycles == 1 for r in got[3:6])
    assert all(r.dropped == 0 for r in got[7:])
    assert all(set(r.hops) <= {0} for r in got[9:])


def test_mixed_caps_cut_the_flow_runs_while_the_sf_run_finishes():
    """The cap grid above must reach the case where the two engines'
    clocks stop apart: the sf run done early, the flow runs cut off."""
    topo = topology_of(("101", 4))
    items = _mixed_items(topo)

    def splits(cap):
        sf, wormhole, vct = ReferenceSimulator(topo).run_batch(items[:3], cap)
        return sf.stalled == 0 and sf.cycles < cap and all(
            r.stalled > 0 and r.cycles == cap for r in (wormhole, vct)
        )

    assert any(splits(cap) for cap in MIXED_CAPS)


def test_reference_run_batch_is_each_item_through_run():
    """ReferenceSimulator.run_batch gives every item what ``run`` gives it
    alone on the oracle: an item without a router takes the simulator's,
    a tenants item gets its per-tenant stats, and the vectorized batch
    agrees bit for bit."""
    topo = TOPOLOGIES["fibonacci"]
    ecube = DimensionOrderRouter()
    work = compile_workload("bg:uniform:0.3;fg:hotspot:0.2:1", topo, 8, seed=3)
    items = [
        BatchItem(make_traffic("uniform", topo, 50, 6, seed=1)),
        BatchItem(work.traffic, router=BfsRouter(), tenants=work.tenants),
    ]
    got = ReferenceSimulator(topo, ecube).run_batch(items, max_cycles=40)
    assert got == [
        ReferenceSimulator(topo, ecube).run(items[0].traffic, 40),
        ReferenceSimulator(topo).run(work.traffic, 40, tenants=work.tenants),
    ]
    assert got == VectorizedSimulator(topo, ecube).run_batch(items, 40)
    assert got[0] != ReferenceSimulator(topo).run(items[0].traffic, 40)
    assert len(got[1].tenant_stats) == 2


class _CountingRouter:
    """Shortest-path routing through ``route`` alone (no batched
    ``build_table``), recording every pair it is asked for."""

    name = "counting"

    def __init__(self):
        self.calls = []
        self._bfs = BfsRouter()

    def route(self, topo, src, dst):
        self.calls.append((src, dst))
        return self._bfs.route(topo, src, dst)


@pytest.mark.parametrize("plan_name", ["none", "staged"])
def test_reference_batch_routes_each_pair_once_per_epoch(plan_name):
    """ReferenceSimulator.run_batch prepares the items sharing a router
    and a plan as one group: ``router.route`` runs once per distinct
    (routing epoch, live pair) of the group, where routing each item on
    its own asked again for the pairs the items share; every result still
    equals its item run alone."""
    topo = TOPOLOGIES["fibonacci"]
    plan = _fault_plans(topo)[plan_name]
    router = _CountingRouter()
    items = _replications(topo, router, plan, k=4)
    got = ReferenceSimulator(topo).run_batch(items)
    bounds = plan.validate(topo).cycles() if plan else []
    death = plan.node_death_array(topo.num_nodes) if plan else None

    def live_epoch_pairs(traffic):
        out = set()
        for c, s, d in traffic.tolist():
            e = sum(b <= c for b in bounds)
            if e == 0 or min(death[s], death[d]) > bounds[e - 1]:
                out.add((e, s, d))
        return out

    per_item = [live_epoch_pairs(it.traffic) for it in items]
    want = set().union(*per_item)
    assert sorted(router.calls) == sorted((s, d) for _, s, d in want)
    assert len(want) < sum(map(len, per_item))  # the items share pairs
    alone = [ReferenceSimulator(topo, router).run(it.traffic, faults=plan) for it in items]
    assert got == alone == BatchedSimulator(topo).run_batch(items)


class _TeleportRouter:
    """Routes every pair in one hop, links or not."""

    name = "teleport"

    def route(self, topo, src, dst):
        return [src] if src == dst else [src, dst]


@pytest.mark.parametrize("engine", ["reference", *BACKENDS])
def test_invalid_last_item_raises_before_any_cycle_loop(engine, monkeypatch):
    """Both engines check every item, and every item's routes, before
    any item simulates: a bad last item raises with no cycle loop run
    for the good items before it."""
    from repro.network import simulator

    def cycle_loop(*args, **kwargs):
        raise AssertionError("a cycle loop ran before the batch was checked")

    monkeypatch.setattr(ReferenceSimulator, "_sf_run", staticmethod(cycle_loop))
    monkeypatch.setattr(simulator, "reference_flow_run", cycle_loop)
    monkeypatch.setattr(simulator, "run_fused", cycle_loop)
    topo = TOPOLOGIES["hypercube"]
    sim = (
        ReferenceSimulator(topo) if engine == "reference"
        else BatchedSimulator(topo, backend=engine)
    )
    good = [
        BatchItem(make_traffic("uniform", topo, 30, 4, seed=0)),
        BatchItem(make_traffic("hotspot", topo, 30, 4, seed=1), switching="wormhole"),
    ]
    bad = {
        "non-negative": BatchItem([(-1, 0, 5)]),
        "must be integers": BatchItem([(0, 0, 5)], switching="wormhole", flits=[1.5]),
        "single-flit": BatchItem([(0, 0, 5)], flits=2),
        "not a link": BatchItem([(0, 0, 15)], router=_TeleportRouter()),
    }
    for match, item in bad.items():
        with pytest.raises(ValueError, match=match):
            sim.run_batch([*good, item])


@pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
@pytest.mark.parametrize("mode", ["wormhole", "vct"])
@pytest.mark.parametrize("plan_name", ["none", "static", "staged"])
def test_batched_flow_control_matches_sequential(topo_name, mode, plan_name):
    """The flow-control acceptance grid: wormhole/vct batches -- varying
    VC counts, buffer depths and flit mixes per item, fault epochs
    splitting mid-batch included -- bit-identical to sequential runs."""
    topo = TOPOLOGIES[topo_name]
    plan = _fault_plans(topo)[plan_name]
    router = BfsRouter()
    items = []
    for i in range(4):
        pattern = ("uniform", "hotspot", "transpose", "bursty")[i % 4]
        traffic = make_traffic(
            pattern, topo, 60 + 30 * i, 8 + 2 * i, seed=i, faults=plan
        )
        depth = (2, 4, 3, 6)[i]
        items.append(BatchItem(
            traffic=traffic, router=router, faults=plan,
            switching=FlowControl(mode, buffer_depth=depth, num_vcs=1 + i % 3),
            flits=flit_sizes(len(traffic), ("1-4", "2", "1", "2-6")[i], seed=i)
            if mode == "wormhole" else
            flit_sizes(len(traffic), ("1-2", "2", "1", "2-3")[i], seed=i),
        ))
    got = BatchedSimulator(topo).run_batch(items)
    want = _sequential(topo, items)
    assert got == want, (topo_name, mode, plan_name)
    assert any(r.delivered for r in got)


def test_deadlocked_run_inside_a_batch():
    """A run that deadlocks must be convicted inside the batch exactly as
    it is sequentially -- frozen at the same cycle, same stalled count --
    while healthy runs in the same batch finish normally."""
    # BFS shortest paths on the non-isometric Q_5(1010) cube form
    # channel-dependency cycles; one VC and one-flit buffers make them
    # bite under load
    topo = topology_of(("1010", 5))
    router = BfsRouter()
    tight = FlowControl("wormhole", buffer_depth=1, num_vcs=1)
    roomy = FlowControl("wormhole", buffer_depth=8, num_vcs=2)
    items = []
    for seed in range(6):
        traffic = make_traffic("uniform", topo, 120, 2, seed=seed)
        items.append(BatchItem(
            traffic, router=router,
            switching=tight if seed % 2 == 0 else roomy,
            flits=flit_sizes(len(traffic), "2-6", seed=seed),
        ))
    want = _sequential(topo, items)
    # the scenario must actually exercise both verdicts, or the test
    # isn't testing what it claims
    assert any(r.deadlocked for r in want)
    assert any(not r.deadlocked and r.delivered for r in want)
    got = BatchedSimulator(topo).run_batch(items)
    assert got == want
    for g in got:
        if g.deadlocked:
            assert g.stalled > 0


@pytest.mark.parametrize("cap", [1, 7, 29])
def test_batched_flow_control_under_cycle_cap(cap):
    """Cycle-cap truncation of pipelined runs inside a batch: per-run
    cycle counts, stall totals and deadlock flags all match."""
    topo = TOPOLOGIES["fibonacci"]
    router = BfsRouter()
    items = []
    for seed in range(4):
        traffic = make_traffic("hotspot", topo, 100, 2, seed=seed)
        items.append(BatchItem(
            traffic, router=router,
            switching=FlowControl(
                ("wormhole", "vct")[seed % 2], buffer_depth=4,
                num_vcs=1 + seed % 2,
            ),
            flits=flit_sizes(len(traffic), "1-4", seed=seed),
        ))
    got = BatchedSimulator(topo).run_batch(items, max_cycles=cap)
    assert got == _sequential(topo, items, max_cycles=cap)
    assert all(r.cycles <= cap for r in got)


def test_droppy_router_and_empty_items():
    """Unroutable pairs (GreedyRouter on Q_d(101)) and empty-traffic
    items condense exactly like their sequential counterparts."""
    topo = topology_of(("101", 4))
    items = [
        BatchItem(make_traffic("uniform", topo, 90, 10, seed=2), router=GreedyRouter()),
        BatchItem([], router=BfsRouter()),
        BatchItem(make_traffic("uniform", topo, 60, 8, seed=3), router=BfsRouter()),
    ]
    got = run_batch(topo, items)
    assert got == _sequential(topo, items)
    assert got[0].delivery_rate < 1.0
    assert got[1].injected == 0 and got[1].cycles == 1


def test_default_router_is_bfs():
    topo = TOPOLOGIES["hypercube"]
    traffic = make_traffic("uniform", topo, 50, 6, seed=0)
    got = BatchedSimulator(topo).run_batch([BatchItem(traffic)])
    assert got == [VectorizedSimulator(topo, BfsRouter()).run(traffic)]


def test_batch_is_deterministic_and_order_preserving():
    topo = TOPOLOGIES["fibonacci"]
    items = _replications(topo, BfsRouter(), None, k=5)
    a = BatchedSimulator(topo).run_batch(items)
    b = BatchedSimulator(topo).run_batch(items)
    assert a == b
    # reversing the items reverses the results, nothing else
    rev = BatchedSimulator(topo).run_batch(items[::-1])
    assert rev == a[::-1]


def test_batch_validation_matches_the_engines():
    """The batch raises the sequential engines' own errors, eagerly."""
    topo = TOPOLOGIES["fibonacci"]
    ok = BatchItem(make_traffic("uniform", topo, 20, 4, seed=0))
    with pytest.raises(ValueError, match="non-negative"):
        run_batch(topo, [ok, BatchItem([(-3, 0, 5), (0, 1, 4)])])
    with pytest.raises(ValueError, match="single-flit"):
        run_batch(topo, [BatchItem([(0, 0, 5)], flits=3)])
    with pytest.raises(ValueError, match="at least 1 flit"):
        run_batch(topo, [BatchItem([(0, 0, 5)], flits=[0])])
    with pytest.raises(ValueError, match="fit whole packets"):
        run_batch(topo, [BatchItem(
            [(0, 0, 5)], switching=FlowControl("vct", buffer_depth=2), flits=5,
        )])
    # validation is eager for the WHOLE batch: a bad item after a
    # pipelined one raises before the fallback simulation ever runs
    worm = BatchItem(
        make_traffic("uniform", topo, 40, 6, seed=1),
        switching=FlowControl("wormhole"), flits=2,
    )
    with pytest.raises(ValueError, match="non-negative"):
        run_batch(topo, [worm, BatchItem([(-1, 0, 5)])])


def test_empty_batch():
    assert run_batch(TOPOLOGIES["hypercube"], []) == []


@pytest.mark.heavy
def test_large_mixed_batch_sweep_shape():
    """A sweep-shaped batch (many seeds x patterns x loads on one
    topology, shared routers) stays bit-identical at K = 24."""
    topo = TOPOLOGIES["faulted"]
    bfs, adaptive = BfsRouter(), AdaptiveRouter()
    plans = _fault_plans(topo)
    items = []
    for s in range(24):
        plan = (None, plans["static"], plans["staged"])[s % 3]
        items.append(BatchItem(
            make_traffic(
                ("uniform", "hotspot")[s % 2], topo, 40 + 11 * s,
                4 + s % 9, seed=s, faults=plan,
            ),
            router=(bfs, adaptive)[s % 2], faults=plan,
        ))
    assert BatchedSimulator(topo).run_batch(items) == _sequential(topo, items)
