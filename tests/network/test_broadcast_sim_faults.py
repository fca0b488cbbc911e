"""Broadcast scheduling, the message simulator, fault trials, Hamiltonicity."""

import numpy as np
import pytest

from repro.cubes.generalized import generalized_fibonacci_cube
from repro.cubes.hypercube import hypercube
from repro.network.broadcast import (
    binomial_broadcast_schedule,
    broadcast_rounds,
    verify_schedule,
)
from repro.network.faults import fault_tolerance_trial
from repro.network.hamilton import find_hamiltonian_cycle, find_hamiltonian_path
from repro.network.simulator import NetworkSimulator, uniform_traffic
from repro.network.topology import topology_of

from tests.conftest import cycle_graph, path_graph


class TestBroadcast:
    def test_hypercube_meets_log_bound(self):
        for d in (2, 3, 4, 5):
            topo = topology_of(hypercube(d), name=f"Q{d}")
            rounds, bound = broadcast_rounds(topo, 0)
            assert rounds == bound == d

    def test_schedule_verifies(self):
        topo = topology_of(("11", 6))
        for root in (0, 5, topo.num_nodes - 1):
            sched = binomial_broadcast_schedule(topo, root)
            assert verify_schedule(topo, root, sched)

    def test_fibonacci_cube_rounds_close_to_bound(self):
        topo = topology_of(("11", 7))
        rounds, bound = broadcast_rounds(topo, 0)
        assert bound <= rounds <= bound + 3

    def test_path_broadcast_is_linear(self):
        g = path_graph(6)
        g.set_labels([str(i) for i in range(6)])
        topo = topology_of(g, name="path")
        rounds, _ = broadcast_rounds(topo, 0)
        assert rounds == 5  # head of a path can only flood sequentially

    def test_single_node(self):
        g = path_graph(1)
        g.set_labels(["x"])
        topo = topology_of(g, name="dot")
        rounds, bound = broadcast_rounds(topo, 0)
        assert rounds == 0 and bound == 0

    def test_verify_rejects_bogus_schedule(self):
        topo = topology_of(("11", 4))
        # sender not informed
        assert not verify_schedule(topo, 0, [[(3, 4)]])
        # non-edge
        n = topo.num_nodes
        bad = None
        for v in range(1, n):
            if not topo.graph.has_edge(0, v):
                bad = v
                break
        if bad is not None:
            assert not verify_schedule(topo, 0, [[(0, bad)]])


class TestSimulator:
    @pytest.fixture(scope="class")
    def gamma6(self):
        return topology_of(("11", 6))

    def test_all_delivered_light_load(self, gamma6):
        traffic = uniform_traffic(gamma6, 100, 200, seed=3)
        res = NetworkSimulator(gamma6).run(traffic)
        assert res.delivery_rate == 1.0
        assert res.delivered == 100

    def test_latency_lower_bound(self, gamma6):
        from repro.graphs.traversal import bfs_distances

        src, dst = 0, gamma6.num_nodes - 1
        dist = int(bfs_distances(gamma6.graph, src)[dst])
        res = NetworkSimulator(gamma6).run([(0, src, dst)])
        assert res.latencies[0] >= dist

    def test_contention_raises_latency(self, gamma6):
        # everyone sends to node 0 at cycle 0: serialization at the sink
        n = gamma6.num_nodes
        traffic = [(0, s, 0) for s in range(1, n)]
        res = NetworkSimulator(gamma6).run(traffic)
        assert res.delivery_rate == 1.0
        assert res.max_latency > res.avg_latency >= 1.0
        assert res.max_queue >= 1

    def test_deterministic_traffic(self, gamma6):
        t1 = uniform_traffic(gamma6, 50, 10, seed=9)
        t2 = uniform_traffic(gamma6, 50, 10, seed=9)
        assert np.array_equal(t1, t2)

    def test_throughput_positive(self, gamma6):
        traffic = uniform_traffic(gamma6, 60, 30, seed=5)
        res = NetworkSimulator(gamma6).run(traffic)
        assert res.throughput > 0

    def test_traffic_needs_two_nodes(self):
        g = path_graph(1)
        g.set_labels(["x"])
        topo = topology_of(g, name="dot")
        with pytest.raises(ValueError):
            uniform_traffic(topo, 5, 5)


class TestFaults:
    def test_zero_faults_keeps_everything(self):
        topo = topology_of(("11", 6))
        rep = fault_tolerance_trial(topo, 0, seed=1)
        assert rep.still_connected
        assert rep.largest_component_fraction == 1.0
        assert rep.reachable_pair_fraction == 1.0
        assert rep.diameter_after == rep.diameter_before

    def test_moderate_faults_mostly_survive(self):
        topo = topology_of(("11", 8))
        rep = fault_tolerance_trial(topo, 4, seed=2)
        assert rep.largest_component_fraction > 0.8

    def test_invalid_fault_count(self):
        topo = topology_of(("11", 4))
        with pytest.raises(ValueError):
            fault_tolerance_trial(topo, topo.num_nodes, seed=0)

    def test_deterministic_given_seed(self):
        topo = topology_of(("11", 6))
        a = fault_tolerance_trial(topo, 3, seed=11)
        b = fault_tolerance_trial(topo, 3, seed=11)
        assert a == b


class TestHamilton:
    def test_path_graph_has_ham_path(self):
        assert find_hamiltonian_path(path_graph(6)) is not None

    def test_cycle_has_ham_cycle(self):
        cyc = find_hamiltonian_cycle(cycle_graph(7))
        assert cyc is not None
        assert len(cyc) == 7

    def test_star_has_no_ham_path(self):
        from tests.conftest import star_graph

        assert find_hamiltonian_path(star_graph(3)) is None

    def test_path_has_no_ham_cycle(self):
        assert find_hamiltonian_cycle(path_graph(5)) is None

    @pytest.mark.parametrize("s,d", [(2, 5), (2, 7), (3, 6), (4, 6)])
    def test_q_d_1s_mostly_hamiltonian(self, s, d):
        """Liu--Hsu--Chung: Q_d(1^s) has a Hamiltonian path."""
        g = generalized_fibonacci_cube("1" * s, d).graph()
        path = find_hamiltonian_path(g)
        assert path is not None
        assert len(path) == g.num_vertices
        assert len(set(path)) == g.num_vertices
        for a, b in zip(path, path[1:]):
            assert g.has_edge(a, b)

    def test_hypercube_ham_cycle(self):
        cyc = find_hamiltonian_cycle(hypercube(4))
        assert cyc is not None
        assert hypercube(4).has_edge(cyc[-1], cyc[0])

    def test_tiny_graphs(self):
        assert find_hamiltonian_path(path_graph(1)) == [0]
        assert find_hamiltonian_cycle(path_graph(2)) is None
