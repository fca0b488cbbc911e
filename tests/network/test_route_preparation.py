"""One route preparation for both engines.

Every run gets its routes from ``simulator._prepare``: the runs of a
group that shares a router and a fault plan get one table per routing
epoch.  The vectorized engine builds those tables through
``routing.route_table`` (a router's batched ``build_table`` when it has
one), the reference engine through ``RouteTable.build``, one
``router.route`` call per (epoch, pair).  So under faults too the
reference is an oracle that never reads the tables it checks.
"""

import pytest

from repro.network.faults import FaultPlan
from repro.network.routing import AdaptiveRouter, BfsRouter
from repro.network.simulator import BatchItem, ReferenceSimulator, VectorizedSimulator
from repro.network.topology import topology_of
from repro.network.traffic import make_traffic

TOPO = topology_of(("11", 6))


def _two_cycle_plan() -> FaultPlan:
    """Faults at cycles 4 and 9: three routing epochs."""
    u, v = next(e for e in TOPO.graph.edges() if 3 not in e)
    return FaultPlan(node_faults=((4, 3),), link_faults=((9, u, v),))


class _PairByPairBfs(BfsRouter):
    """BFS routing whose batched table builder must never run."""

    def build_table(self, topo, pairs):
        raise AssertionError("the reference engine routes pair by pair")


class _CountingBfs(BfsRouter):
    """BFS routing that counts its batched table builds."""

    def __init__(self):
        self.builds = 0

    def build_table(self, topo, pairs):
        self.builds += 1
        return super().build_table(topo, pairs)


class _CountingAdaptive(AdaptiveRouter):
    """Adaptive routing that records every pair it routes, per topology."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def route(self, topo, src, dst):
        self.calls.append((topo.name, src, dst))
        return super().route(topo, src, dst)


@pytest.mark.parametrize("switching", ["sf", "wormhole"])
def test_reference_never_reads_a_batched_table(switching):
    """Under a two-cycle fault plan the reference engine routes through
    ``router.route`` alone and still equals the vectorized engine, whose
    tables come from the plain router's ``build_table``."""
    plan = _two_cycle_plan()
    traffic = make_traffic("uniform", TOPO, 150, 16, seed=3, faults=plan)
    run = dict(faults=plan, switching=switching, flits=1 if switching == "sf" else 2)
    got = ReferenceSimulator(TOPO, _PairByPairBfs()).run(traffic, **run)
    want = VectorizedSimulator(TOPO, BfsRouter()).run(traffic, **run)
    assert got == want
    assert got.dropped > 0 and got.delivered > 0


def test_equal_plans_share_one_table_per_epoch():
    """Three items with one router instance and equal but distinct plans
    build one table per epoch between them (3 builds, not 3 x 3), and
    each result equals the item run alone."""
    plans = [_two_cycle_plan() for _ in range(3)]
    assert plans[0] == plans[1] == plans[2] and plans[0] is not plans[1]
    router = _CountingBfs()
    items = [
        BatchItem(
            make_traffic(pattern, TOPO, 90, 16, seed=i, faults=plan),
            router=router, faults=plan,
        )
        for i, (pattern, plan) in enumerate(zip(("uniform", "hotspot", "bursty"), plans))
    ]
    got = VectorizedSimulator(TOPO).run_batch(items)
    assert router.builds == 3
    solo = [
        VectorizedSimulator(TOPO, BfsRouter()).run(it.traffic, faults=it.faults)
        for it in items
    ]
    assert got == solo


@pytest.mark.parametrize("faulted", [False, True])
def test_reference_routes_each_pair_once_per_epoch(faulted):
    """The reference engine calls ``router.route`` once per distinct live
    pair of each epoch, on that epoch's masked view: a repeated pair is
    routed again only after a fault cycle, and never within one."""
    plan = _two_cycle_plan() if faulted else FaultPlan()
    traffic = make_traffic("hotspot", TOPO, 200, 16, seed=5, faults=plan)
    router = _CountingAdaptive()
    ReferenceSimulator(TOPO, router).run(traffic, faults=plan)
    assert len(router.calls) == len(set(router.calls))
    death = plan.node_death_array(TOPO.num_nodes).tolist()
    want = set()
    for cycle, src, dst in traffic.tolist():
        at, name = -1, TOPO.name
        for c in plan.cycles():
            if cycle >= c:
                at, name = c, f"{TOPO.name}/f@{c}"
        if death[src] > at and death[dst] > at:
            want.add((name, src, dst))
    assert set(router.calls) == want
