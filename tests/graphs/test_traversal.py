"""Unit tests for BFS kernels and distance parameters (vs networkx)."""

import networkx as nx
import numpy as np
import pytest

from repro.graphs.core import Graph
from repro.graphs.nxadapter import to_networkx
from repro.graphs.traversal import (
    all_pairs_distances,
    bfs_distances,
    bfs_distances_csr,
    bfs_distances_many,
    connected_components,
    diameter,
    eccentricities,
    is_connected,
    radius,
)

from tests.conftest import complete_graph, cycle_graph, grid_graph, path_graph, star_graph


GRAPHS = {
    "path6": path_graph(6),
    "cycle7": cycle_graph(7),
    "k5": complete_graph(5),
    "grid34": grid_graph(3, 4),
    "star8": star_graph(8),
}


class TestBfsEngines:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_deque_matches_networkx(self, name):
        g = GRAPHS[name]
        nxg = to_networkx(g, use_labels=False)
        for s in range(g.num_vertices):
            want = nx.single_source_shortest_path_length(nxg, s)
            got = bfs_distances(g, s)
            for v in range(g.num_vertices):
                assert got[v] == want.get(v, -1)

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_csr_matches_deque(self, name):
        g = GRAPHS[name]
        for s in range(g.num_vertices):
            assert np.array_equal(bfs_distances(g, s), bfs_distances_csr(g, s))

    def test_disconnected_marks_unreachable(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        dist = bfs_distances(g, 0)
        assert dist.tolist() == [0, 1, -1, -1]
        assert np.array_equal(dist, bfs_distances_csr(g, 0))

    def test_source_out_of_range(self):
        g = path_graph(3)
        with pytest.raises(IndexError):
            bfs_distances(g, 3)
        with pytest.raises(IndexError):
            bfs_distances_csr(g, -1)

    def test_csr_on_isolated_vertex(self):
        g = Graph(3)
        g.add_edge(0, 1)
        dist = bfs_distances_csr(g, 2)
        assert dist.tolist() == [-1, -1, 0]

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_many_matches_deque(self, name):
        g = GRAPHS[name]
        sources = list(range(g.num_vertices))[::-1] + [0]
        rows = bfs_distances_many(g, sources, dtype=np.int8)
        assert rows.shape == (len(sources), g.num_vertices)
        assert rows.dtype == np.int8
        for row, s in zip(rows, sources):
            assert np.array_equal(row, bfs_distances(g, s))

    def test_many_with_isolated_and_disconnected_vertices(self):
        # isolated vertices sit in the middle and at the end of the CSR
        g = Graph.from_edges(7, [(0, 1), (1, 3), (4, 5)])
        rows = bfs_distances_many(g, range(7))
        for s in range(7):
            assert np.array_equal(rows[s], bfs_distances(g, s))
        assert bfs_distances_many(Graph(2), [1]).tolist() == [[-1, 0]]
        assert bfs_distances_many(g, []).shape == (0, 7)


class TestAllPairs:
    @pytest.mark.parametrize("engine", ["deque", "csr", "auto"])
    def test_engines_agree(self, engine):
        g = grid_graph(3, 3)
        base = all_pairs_distances(g, engine="deque")
        assert np.array_equal(all_pairs_distances(g, engine=engine), base)

    def test_symmetric(self):
        g = cycle_graph(6)
        d = all_pairs_distances(g)
        assert np.array_equal(d, d.T)

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            all_pairs_distances(path_graph(2), engine="gpu")


class TestParameters:
    def test_path_diameter_radius(self):
        g = path_graph(7)
        assert diameter(g) == 6
        assert radius(g) == 3

    def test_cycle_even(self):
        g = cycle_graph(8)
        assert diameter(g) == 4
        assert radius(g) == 4

    def test_eccentricities_star(self):
        g = star_graph(5)
        ecc = eccentricities(g)
        assert ecc[0] == 1
        assert all(e == 2 for e in ecc[1:])

    def test_disconnected_eccentricity_raises(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            eccentricities(g)

    def test_empty_diameter_raises(self):
        with pytest.raises(ValueError):
            diameter(Graph(0))
        with pytest.raises(ValueError):
            radius(Graph(0))

    def test_diameter_matches_networkx(self):
        for name, g in GRAPHS.items():
            assert diameter(g) == nx.diameter(to_networkx(g, use_labels=False)), name


class TestConnectivity:
    def test_connected(self):
        assert is_connected(path_graph(5))
        assert is_connected(Graph(1))
        assert is_connected(Graph(0))

    def test_disconnected(self):
        assert not is_connected(Graph.from_edges(3, [(0, 1)]))

    def test_components(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
        comps = connected_components(g)
        assert sorted(map(sorted, comps)) == [[0, 1, 2], [3, 4], [5]]

    def test_components_cover_all_vertices(self):
        g = Graph.from_edges(5, [(0, 4), (1, 3)])
        comps = connected_components(g)
        assert sorted(v for comp in comps for v in comp) == list(range(5))
