"""Network substrate: topology metrics and routers."""

import sys
import threading

import numpy as np
import pytest

from repro.cubes.fibonacci import fibonacci_cube
from repro.cubes.hypercube import hypercube
from repro.graphs.core import Graph
from repro.graphs.traversal import bfs_distances
from repro.network.routing import BfsRouter, CanonicalRouter, GreedyRouter, route_stats
from repro.network.topology import Topology, topology_of

from tests.conftest import cycle_graph


class TestTopology:
    def test_from_cube(self):
        topo = topology_of(("11", 5))
        assert topo.name == "Q_5(11)"
        assert topo.word_length == 5
        assert topo.num_nodes == 13

    def test_from_cube_object(self):
        topo = topology_of(fibonacci_cube(4))
        assert topo.num_nodes == 8

    def test_from_plain_graph(self):
        g = cycle_graph(6)
        g.set_labels([f"n{i}" for i in range(6)])
        topo = topology_of(g, name="ring")
        assert topo.name == "ring"
        assert topo.word_length == 2  # labels all length 2 ("n0")

    def test_metrics_hypercube(self):
        topo = topology_of(hypercube(4), name="Q4")
        m = topo.metrics()
        assert m["nodes"] == 16
        assert m["links"] == 32
        assert m["diameter"] == 4
        assert m["max_degree"] == 4
        assert m["cost_degree_x_diameter"] == 16

    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            Topology("broken", g)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Topology("empty", Graph(0))

    def test_degree_range(self):
        topo = topology_of(("11", 4))
        dmin, dmax = topo.degree_range()
        assert dmin >= 1 and dmax == 4

    def test_bad_input_type(self):
        with pytest.raises(TypeError):
            topology_of(42)

    def test_distance_rows_are_lazy_compact_and_exact(self):
        topo = topology_of(("101", 7))
        assert "dist" not in topo._memo  # nothing computed at build time
        table, row = topo.distance_rows([5, 2, 5])
        assert table.dtype == np.int8 and table.shape[0] == 2
        for r, dst in zip(row, (5, 2, 5)):
            assert np.array_equal(table[r], bfs_distances(topo.graph, dst))
        assert topo.hop_distances([0, 3], [2, 5]).tolist() == [
            bfs_distances(topo.graph, 2)[0], bfs_distances(topo.graph, 5)[3],
        ]

    def test_distance_rows_under_concurrent_growth(self):
        """Sweep-service worker threads share one topology: rows added
        by racing threads must never be mapped to the wrong destination."""
        topo = topology_of(hypercube(9), name="Q9")
        want = {d: bfs_distances(topo.graph, d) for d in range(topo.num_nodes)}
        bad = []

        def worker(k):
            rng = np.random.default_rng(k)
            try:
                for _ in range(40):
                    dsts = rng.integers(0, topo.num_nodes, size=3)
                    table, row = topo.distance_rows(dsts)
                    bad.extend(
                        int(d) for d, r in zip(dsts, row)
                        if not np.array_equal(table[r], want[int(d)])
                    )
            except IndexError as exc:  # a torn update can point past the table
                bad.append(repr(exc))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert bad == []


class TestRouters:
    @pytest.fixture(scope="class")
    def gamma6(self):
        return topology_of(("11", 6))

    def test_bfs_router_optimal_everywhere(self, gamma6):
        stats = route_stats(gamma6, BfsRouter())
        assert stats.delivery_rate == 1.0
        assert stats.optimality_rate == 1.0
        assert stats.stretch == 1.0

    def test_canonical_router_optimal_on_1s_factors(self, gamma6):
        """Proposition 3.1 in routing form: canonical bit-fix paths stay
        inside Q_d(1^s) and are therefore optimal."""
        stats = route_stats(gamma6, CanonicalRouter())
        assert stats.delivery_rate == 1.0
        assert stats.optimality_rate == 1.0

    def test_canonical_router_on_111(self):
        topo = topology_of(("111", 6))
        stats = route_stats(topo, CanonicalRouter())
        assert stats.delivery_rate == 1.0
        assert stats.optimality_rate == 1.0

    def test_greedy_router_on_isometric_cube(self, gamma6):
        stats = route_stats(gamma6, GreedyRouter())
        assert stats.delivery_rate == 1.0
        # greedy always reduces Hamming distance by 1 per hop when it
        # delivers, so delivered paths are optimal
        assert stats.optimality_rate == 1.0

    def test_greedy_can_fail_on_non_isometric_cube(self):
        """On Q_4(101) (not isometric) some pairs defeat pure greedy --
        the reason embeddability matters for local routing."""
        topo = topology_of(("101", 4))
        stats = route_stats(topo, GreedyRouter())
        assert stats.delivery_rate < 1.0

    def test_bfs_router_full_delivery_on_non_isometric(self):
        topo = topology_of(("101", 4))
        stats = route_stats(topo, BfsRouter())
        assert stats.delivery_rate == 1.0
        # but some routes are longer than Hamming distance
        assert stats.stretch >= 1.0

    def test_route_specific_pair(self):
        topo = topology_of(("11", 5))
        src = topo.graph.index_of("10000")
        dst = topo.graph.index_of("00001")
        path = CanonicalRouter().route(topo, src, dst)
        assert path is not None
        assert path[0] == src and path[-1] == dst
        assert len(path) == 3  # Hamming distance 2

    def test_route_stats_subset_pairs(self):
        topo = topology_of(("11", 5))
        stats = route_stats(topo, BfsRouter(), pairs=[(0, 1), (1, 0)])
        assert stats.pairs == 2

    def test_route_stats_rejects_a_broken_path(self, gamma6):
        class Stuck:
            name = "stuck"

            def route(self, topo, s, t):
                return [s]

        with pytest.raises(AssertionError, match="returned a broken path"):
            route_stats(gamma6, Stuck(), pairs=[(0, 0), (0, 1)])

    def test_route_stats_rejects_a_non_edge(self, gamma6):
        class Jumper:
            name = "jumper"

            def route(self, topo, s, t):
                return [s, t]

        near = gamma6.graph.neighbors(0)[0]
        far = int(np.argmax(bfs_distances(gamma6.graph, 0)))
        with pytest.raises(AssertionError, match="used a non-edge"):
            route_stats(gamma6, Jumper(), pairs=[(0, near), (0, far)])

    def test_canonical_needs_word_topology(self):
        g = cycle_graph(4)
        g.set_labels([0, 1, 2, 3])
        topo = Topology("ring", g)
        with pytest.raises(ValueError):
            CanonicalRouter().route(topo, 0, 2)
