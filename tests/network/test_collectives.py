"""Collective workloads: verified schedules, barriered compilation, and
bit-identical results through both cycle engines.

The acceptance grid of the collectives issue: all five collectives
produce schedules that pass :func:`verify_collective_schedule` (valid
single-port rounds, tree messages on real links, full coverage) and run
through :class:`ReferenceSimulator` and :class:`VectorizedSimulator`
bit-identically under store-and-forward and wormhole switching, plus a
fault-plan case for each collective.
"""

import pytest

from repro.cubes.hypercube import hypercube
from repro.graphs.core import Graph
from repro.network.broadcast import verify_schedule
from repro.network.collectives import (
    COLLECTIVES,
    allgather_schedule,
    alltoall_schedule,
    broadcast_schedule,
    collective_schedule,
    reduce_schedule,
    ring_schedule,
    round_lower_bound,
    run_collective,
    schedule_link_loads,
    verify_collective_schedule,
)
from repro.network.flowcontrol import FlowControl
from repro.network.simulator import ReferenceSimulator, VectorizedSimulator
from repro.network.topology import Topology, topology_of
from repro.network.traffic import flit_sizes


def _topologies():
    return {
        "hypercube": topology_of(hypercube(4), name="Q4"),
        "fibonacci": topology_of(("11", 6)),
        "q101": topology_of(("101", 5)),
    }


TOPOLOGIES = _topologies()

WORMHOLE = FlowControl("wormhole", buffer_depth=2, num_vcs=2)


class TestSchedules:
    @pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("name", sorted(COLLECTIVES))
    def test_every_schedule_verifies(self, topo_name, name):
        topo = TOPOLOGIES[topo_name]
        for root in (0, topo.num_nodes // 2):
            schedule = collective_schedule(name, topo, root=root)
            assert verify_collective_schedule(topo, name, schedule, root=root), (
                topo_name, name, root,
            )

    @pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
    def test_tree_collectives_ride_real_links(self, topo_name):
        topo = TOPOLOGIES[topo_name]
        g = topo.graph
        for name in ("broadcast", "reduce", "allgather"):
            for rnd in collective_schedule(name, topo, root=1):
                for u, v in rnd:
                    assert g.has_edge(u, v), (name, u, v)

    def test_broadcast_meets_log2_bound_on_hypercube(self):
        topo = TOPOLOGIES["hypercube"]
        schedule = broadcast_schedule(topo, root=0)
        assert len(schedule) == round_lower_bound(topo) == 4

    def test_allgather_is_recursive_doubling_on_hypercube(self):
        topo = TOPOLOGIES["hypercube"]
        schedule = allgather_schedule(topo)
        assert len(schedule) == round_lower_bound(topo) == 4
        for rnd in schedule:
            # every node sends and receives exactly once per round
            assert sorted(u for u, _ in rnd) == list(range(topo.num_nodes))
            assert sorted(v for _, v in rnd) == list(range(topo.num_nodes))
            # exchanges are symmetric: u -> v implies v -> u
            pairs = set(rnd)
            assert all((v, u) in pairs for u, v in rnd)

    def test_allgather_round_k_flips_position_k(self):
        topo = TOPOLOGIES["hypercube"]
        for k, rnd in enumerate(allgather_schedule(topo)):
            for u, v in rnd:
                wu, wv = topo.node_word(u), topo.node_word(v)
                assert [i for i, (a, b) in enumerate(zip(wu, wv)) if a != b] == [k]

    def test_allgather_needs_every_node_word_addressed(self):
        """Two nodes labelled by letters are no Q_1: the tree fallback."""
        g = Graph.from_edges(2, [(0, 1)])
        g.set_labels(["a", "b"])
        topo = topology_of(g, name="pair")
        assert allgather_schedule(topo) == reduce_schedule(topo) + broadcast_schedule(topo)

    def test_allgather_falls_back_to_tree_on_generalized_cube(self):
        topo = TOPOLOGIES["fibonacci"]
        assert allgather_schedule(topo, root=2) == (
            reduce_schedule(topo, root=2) + broadcast_schedule(topo, root=2)
        )

    def test_reduce_is_the_reversed_broadcast(self):
        topo = TOPOLOGIES["fibonacci"]
        fwd = broadcast_schedule(topo, root=3)
        rev = reduce_schedule(topo, root=3)
        assert len(rev) == len(fwd)
        rebuilt = [[(v, u) for u, v in rnd] for rnd in reversed(rev)]
        assert rebuilt == fwd
        assert verify_schedule(topo, 3, rebuilt)

    @pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
    def test_alltoall_serves_every_ordered_pair_once(self, topo_name):
        topo = TOPOLOGIES[topo_name]
        n = topo.num_nodes
        pairs = [
            (u, v) for rnd in alltoall_schedule(topo) for u, v in rnd
        ]
        assert len(pairs) == n * (n - 1)
        assert len(set(pairs)) == len(pairs)

    @pytest.mark.parametrize("topo_name", ["hypercube", "fibonacci"])
    def test_ring_rides_a_real_hamiltonian_path(self, topo_name):
        """On the clean cube families the search finds a true Hamiltonian
        path, so every ring message is a single link activation."""
        topo = TOPOLOGIES[topo_name]
        g = topo.graph
        schedule = ring_schedule(topo)
        assert len(schedule) == topo.num_nodes - 1
        for rnd in schedule:
            for u, v in rnd:
                assert g.has_edge(u, v)

    def test_ring_falls_back_to_virtual_ring(self):
        """A star graph has no Hamiltonian path; ring emulation degrades
        to a routed virtual ring instead of failing."""
        g = Graph(5)
        for leaf in range(1, 5):
            g.add_edge(0, leaf)
        topo = Topology(name="star", graph=g)
        schedule = ring_schedule(topo)
        assert verify_collective_schedule(topo, "ring", schedule)
        assert len(schedule) == 4

    def test_a_node_the_ring_cannot_reach_raises(self):
        """On a fault view with a failed (isolated) node, the ring's DFS
        fallback from node 0 misses it: an explicit ValueError, as
        broadcast, reduce and allgather give, not an IndexError.
        alltoall names pairs only and still builds."""
        from repro.network.faults import FaultPlan

        view = topology_of(hypercube(3), name="Q3").with_faults(FaultPlan.parse("n3"))
        for name in ("ring", "broadcast", "reduce", "allgather"):
            with pytest.raises(ValueError, match="does not reach every node"):
                collective_schedule(name, view)
        assert len(collective_schedule("alltoall", view)) == view.num_nodes - 1

    def test_unknown_collective_raises(self):
        with pytest.raises(ValueError, match="unknown collective"):
            collective_schedule("gossip", TOPOLOGIES["hypercube"])

    def test_bad_root_raises(self):
        with pytest.raises(ValueError, match="root"):
            collective_schedule("broadcast", TOPOLOGIES["hypercube"], root=99)

    def test_verify_rejects_double_send_and_double_receive(self):
        topo = TOPOLOGIES["hypercube"]
        g = topo.graph
        a, b = sorted(g.neighbors(0))[:2]
        assert not verify_collective_schedule(topo, "ring", [[(0, a), (0, b)]])
        c = next(v for v in g.neighbors(a) if v != 0)
        assert not verify_collective_schedule(topo, "ring", [[(0, a), (c, a)]])

    def test_verify_rejects_self_message_and_bad_node(self):
        topo = TOPOLOGIES["hypercube"]
        assert not verify_collective_schedule(topo, "ring", [[(0, 0)]])
        assert not verify_collective_schedule(topo, "ring", [[(0, 99)]])


class TestLinkLoads:
    def test_broadcast_tree_uses_each_link_once(self):
        topo = TOPOLOGIES["hypercube"]
        schedule = broadcast_schedule(topo, root=0)
        loads = schedule_link_loads(topo, schedule)
        assert max(loads.values()) == 1
        assert sum(loads.values()) == topo.num_nodes - 1

    def test_loads_match_simulated_hops_without_faults(self):
        topo = TOPOLOGIES["fibonacci"]
        res = run_collective(topo, "alltoall")
        loads = schedule_link_loads(topo, collective_schedule("alltoall", topo))
        assert sum(loads.values()) == sum(res.result.hops)
        assert res.max_link_load == max(loads.values())


ENGINE_GRID = [
    ("sf", "sf", 1),
    ("wormhole", WORMHOLE, "1-4"),
]


class TestEngineEquivalence:
    @pytest.mark.parametrize("topo_name", ["hypercube", "fibonacci"])
    @pytest.mark.parametrize("name", sorted(COLLECTIVES))
    @pytest.mark.parametrize(
        "switching, flow, flits", ENGINE_GRID, ids=["sf", "wormhole"]
    )
    def test_engines_bit_identical(self, topo_name, name, switching, flow, flits):
        """The acceptance grid: every collective, both engines, sf and
        wormhole -- CollectiveResults (barrier cycles, compiled traffic
        and the full SimResult) must be equal field for field."""
        topo = TOPOLOGIES[topo_name]
        ref = run_collective(
            topo, name, root=1, engine="reference", switching=flow, flits=flits
        )
        vec = run_collective(
            topo, name, root=1, engine="vectorized", switching=flow, flits=flits
        )
        assert ref == vec, (topo_name, name, switching)
        assert vec.completed
        assert vec.result.delivered == vec.result.injected
        assert vec.rounds >= vec.round_bound

    @pytest.mark.parametrize("name", sorted(COLLECTIVES))
    def test_engines_bit_identical_under_faults(self, name):
        """One fault-plan case per collective: a node dies mid-collective
        and both engines agree on the degraded outcome."""
        from repro.network.faults import FaultPlan

        topo = TOPOLOGIES["fibonacci"]
        plan = FaultPlan(node_faults=((3, 5),), link_faults=((7, 0, 1),))
        ref = run_collective(topo, name, root=0, engine="reference", faults=plan)
        vec = run_collective(topo, name, root=0, engine="vectorized", faults=plan)
        assert ref == vec, name
        res = vec.result
        assert res.delivered + res.dropped + res.stalled == res.injected
        assert res.dropped > 0  # the dead node actually bites

    def test_simulator_classes_accepted_directly(self):
        topo = TOPOLOGIES["hypercube"]
        by_name = run_collective(topo, "broadcast", engine="reference")
        by_cls = run_collective(topo, "broadcast", engine=ReferenceSimulator)
        assert by_name == by_cls

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown engine"):
            run_collective(TOPOLOGIES["hypercube"], "broadcast", engine="quantum")


class TestBarriers:
    @pytest.mark.parametrize("name", sorted(COLLECTIVES))
    def test_round_starts_strictly_increase(self, name):
        res = run_collective(TOPOLOGIES["fibonacci"], name)
        assert len(res.round_starts) == res.rounds
        assert list(res.round_starts) == sorted(set(res.round_starts))
        assert res.round_starts[0] == 0

    @pytest.mark.parametrize("name", sorted(COLLECTIVES))
    @pytest.mark.parametrize(
        "switching, flow, flits", ENGINE_GRID, ids=["sf", "wormhole"]
    )
    def test_compiled_traffic_replays_to_the_same_result(
        self, name, switching, flow, flits
    ):
        """Each round is simulated once, alone at its barrier (the
        network is drained at every barrier), and the round runs are
        summed, so replaying the full compiled traffic in one engine run
        must reproduce the reported SimResult exactly -- the merge's
        correctness proof, run for every collective in both switching
        modes."""
        topo = TOPOLOGIES["fibonacci"]
        res = run_collective(topo, name, root=4, switching=flow, flits=flits)
        sizes = flit_sizes(len(res.traffic), flits, seed=0)
        replay = VectorizedSimulator(topo).run(
            list(res.traffic), switching=flow, flits=sizes
        )
        assert replay == res.result

    def test_compiled_traffic_replays_identically_under_faults(self):
        from repro.network.faults import FaultPlan

        topo = TOPOLOGIES["fibonacci"]
        plan = FaultPlan(node_faults=((3, 5),))
        res = run_collective(topo, "broadcast", root=0, faults=plan)
        replay = VectorizedSimulator(topo).run(list(res.traffic), faults=plan)
        assert replay == res.result

    def test_rounds_complete_before_the_next_barrier(self):
        """Dependency order: every message of round r is delivered at or
        before the injection cycle of round r + 1."""
        topo = TOPOLOGIES["fibonacci"]
        res = run_collective(topo, "broadcast", root=0)
        deliveries = {}
        for (cycle, _, _), latency in zip(res.traffic, res.result.latencies):
            deliveries.setdefault(cycle, []).append(cycle + latency)
        starts = list(res.round_starts) + [res.result.cycles]
        for rnd, start in enumerate(res.round_starts):
            assert max(deliveries[start]) <= starts[rnd + 1]

    def test_max_cycles_cap_stops_compilation(self):
        """A capped run stops injecting rounds instead of looping; the
        wedged state is reported, never hung."""
        topo = TOPOLOGIES["fibonacci"]
        res = run_collective(topo, "alltoall", max_cycles=10)
        assert len(res.round_starts) < res.rounds
        assert not res.completed
        assert res.result.cycles <= 10

    def test_wormhole_collective_with_deep_contention_terminates(self):
        """Single-VC depth-1 wormhole on the non-isometric Q_5(1010):
        per-round barriers keep concurrency low enough to finish, and
        both engines agree on every barrier."""
        topo = topology_of(("1010", 5))
        flow = FlowControl("wormhole", buffer_depth=1, num_vcs=1)
        ref = run_collective(
            topo, "alltoall", engine="reference", switching=flow, flits=4
        )
        vec = run_collective(
            topo, "alltoall", engine="vectorized", switching=flow, flits=4
        )
        assert ref == vec
        assert vec.completed and not vec.result.deadlocked


class TestEdgeCases:
    def test_single_node_collectives_are_empty(self):
        g = Graph(1)
        g.set_labels(["0"])
        topo = topology_of(g, name="dot")
        for name in sorted(COLLECTIVES):
            res = run_collective(topo, name)
            assert res.rounds == 0 and res.round_bound == 0
            assert res.traffic == () and res.completed

    def test_two_node_broadcast_is_one_round(self):
        g = Graph(2)
        g.add_edge(0, 1)
        g.set_labels(["0", "1"])
        topo = topology_of(g, name="pair")
        res = run_collective(topo, "broadcast")
        assert res.rounds == res.round_bound == 1
        assert res.result.delivered == 1

    def test_completion_time_is_the_run_length(self):
        res = run_collective(TOPOLOGIES["hypercube"], "reduce", root=5)
        assert res.completion_time == res.result.cycles
