"""Unit tests for intervals and medians."""

import pytest

from repro.cubes.hypercube import hypercube
from repro.graphs.core import Graph
from repro.graphs.intervals import (
    distance_interval,
    interval_from_distances,
    is_on_shortest_path,
)
from repro.graphs.traversal import bfs_distances
from repro.graphs.median import (
    is_median_graph,
    majority_word,
    median_of_triple,
    triple_intervals_intersection,
)

from tests.conftest import complete_graph, cycle_graph, grid_graph, path_graph


class TestIntervals:
    def test_path_interval_is_whole_segment(self):
        g = path_graph(6)
        assert distance_interval(g, 1, 4) == [1, 2, 3, 4]

    def test_interval_endpoints_always_in(self):
        g = grid_graph(3, 3)
        for u in range(9):
            for v in range(9):
                iv = distance_interval(g, u, v)
                assert u in iv and v in iv

    def test_cycle_antipodal_interval_is_everything(self):
        g = cycle_graph(6)
        assert distance_interval(g, 0, 3) == list(range(6))

    def test_cycle_short_interval(self):
        g = cycle_graph(6)
        assert distance_interval(g, 0, 1) == [0, 1]

    def test_hypercube_interval_size(self):
        # |I(u, v)| = 2^{hamming} in a hypercube
        g = hypercube(3)
        assert len(distance_interval(g, 0, 7)) == 8
        assert len(distance_interval(g, 0, 3)) == 4

    def test_disconnected_raises(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            distance_interval(g, 0, 2)

    def test_vertex_unreachable_from_both_endpoints(self):
        # the path 0-1-2 plus the isolated vertex 3, whose -1 + -1 must not
        # pass for a distance sum
        g = Graph.from_edges(4, [(0, 1), (1, 2)])
        assert distance_interval(g, 0, 2) == [0, 1, 2]
        dist_0, dist_2 = bfs_distances(g, 0), bfs_distances(g, 2)
        assert interval_from_distances(dist_0, dist_2, 2) == [0, 1, 2]
        with pytest.raises(TypeError):
            interval_from_distances(dist_0, dist_2)  # d(u, v) is required

    def test_is_on_shortest_path(self):
        g = path_graph(5)
        assert is_on_shortest_path(g, 0, 2, 4)
        g2 = cycle_graph(6)
        assert not is_on_shortest_path(g2, 0, 3, 1)


class TestMedian:
    def test_path_median(self):
        g = path_graph(5)
        assert median_of_triple(g, 0, 2, 4) == 2
        assert median_of_triple(g, 0, 1, 4) == 1

    def test_hypercube_median_is_majority(self):
        g = hypercube(4)
        import itertools

        for u, v, w in itertools.combinations(range(16), 3):
            assert median_of_triple(g, u, v, w) == majority_word(u, v, w)

    def test_even_cycle_has_no_unique_median_for_antipodes(self):
        g = cycle_graph(6)
        hits = triple_intervals_intersection(g, 0, 2, 4)
        assert len(hits) != 1
        assert median_of_triple(g, 0, 2, 4) is None

    def test_trees_are_median(self):
        assert is_median_graph(path_graph(6))

    def test_hypercube_is_median(self):
        assert is_median_graph(hypercube(3))

    def test_k4_not_median(self):
        assert not is_median_graph(complete_graph(4))

    def test_c6_not_median(self):
        assert not is_median_graph(cycle_graph(6))

    def test_c4_is_median(self):
        assert is_median_graph(cycle_graph(4))

    def test_empty_not_median(self):
        assert not is_median_graph(Graph(0))

    def test_disconnected_not_median(self):
        assert not is_median_graph(Graph.from_edges(2, []))

    def test_majority_word_bits(self):
        assert majority_word(0b110, 0b101, 0b011) == 0b111
        assert majority_word(0b000, 0b101, 0b011) == 0b001
        assert majority_word(5, 5, 9) == 5
