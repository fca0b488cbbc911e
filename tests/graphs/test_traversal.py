"""Unit tests for BFS kernels and distance parameters (vs networkx)."""

import networkx as nx
import numpy as np
import pytest

from repro.graphs.core import Graph
from repro.graphs.nxadapter import to_networkx
from repro.graphs.traversal import (
    all_pairs_distances,
    bfs_distances,
    bfs_distances_many,
    connected_components,
    diameter,
    distance_blocks,
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
    # more than one block of 256 sources, with an isolated vertex last
    "grid17x17+1": Graph.from_edges(290, grid_graph(17, 17).edges()),
}


def deque_rows(g):
    return np.array([bfs_distances(g, s) for s in range(g.num_vertices)], dtype=np.int64)


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

    def test_disconnected_marks_unreachable(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        dist = bfs_distances(g, 0)
        assert dist.tolist() == [0, 1, -1, -1]
        assert np.array_equal(dist, bfs_distances_many(g, [0])[0])

    def test_source_out_of_range(self):
        g = path_graph(3)
        with pytest.raises(IndexError):
            bfs_distances(g, 3)
        for sources in ([-1], [3], [0, 3, 1]):
            with pytest.raises(IndexError):
                bfs_distances_many(g, sources)
        # a negative index must not wrap around to the last vertex
        with pytest.raises(IndexError):
            bfs_distances_many(Graph.from_edges(4, [(0, 1), (1, 2)]), [-1])

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


class TestDistanceBlocks:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_blocks_are_the_deque_rows_in_order(self, name):
        g = GRAPHS[name]
        n = g.num_vertices
        blocks = list(distance_blocks(g))
        assert [start for start, _ in blocks] == list(range(0, n, 256))
        dtype = np.int8 if n <= 128 else np.int16
        assert all(rows.dtype == dtype for _, rows in blocks)
        assert np.array_equal(np.concatenate([rows for _, rows in blocks]), deque_rows(g))

    def test_empty_graph_has_no_blocks(self):
        assert list(distance_blocks(Graph(0))) == []


class TestAllPairs:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_equals_stacked_deque_rows(self, name):
        g = GRAPHS[name]
        dist = all_pairs_distances(g)
        assert dist.dtype == np.int64
        assert np.array_equal(dist, deque_rows(g))

    def test_symmetric(self):
        g = cycle_graph(6)
        d = all_pairs_distances(g)
        assert np.array_equal(d, d.T)


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

    def test_eccentricities_match_deque_rows(self):
        g = grid_graph(17, 17)  # two blocks of sources
        assert np.array_equal(eccentricities(g), deque_rows(g).max(axis=1))
        assert (diameter(g), radius(g)) == (32, 16)

    def test_disconnected_eccentricity_raises(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            eccentricities(g)
        with pytest.raises(ValueError):
            eccentricities(GRAPHS["grid17x17+1"])  # unreachable only in the second block

    def test_empty_diameter_raises(self):
        with pytest.raises(ValueError):
            diameter(Graph(0))
        with pytest.raises(ValueError):
            radius(Graph(0))

    def test_diameter_matches_networkx(self):
        for name, g in GRAPHS.items():
            if is_connected(g):
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

    def test_components_read_each_adjacency_list_once(self):
        """The deque BFS walks the graph's own lists: components of an
        edgeless graph read n adjacency lists, not n per component."""

        class Counting(Graph):
            calls = 0

            def neighbors(self, u):
                Counting.calls += 1
                return super().neighbors(u)

        comps = connected_components(Counting(500))
        assert len(comps) == 500
        assert Counting.calls == 500
