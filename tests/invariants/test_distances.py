"""Wiener index, average distance, and the coordinate-cut isometry witness."""

import networkx as nx
import pytest

from repro.cubes.generalized import generalized_fibonacci_cube
from repro.graphs.nxadapter import to_networkx
from repro.invariants.distances import (
    average_distance,
    distance_distribution,
    hypercube_wiener,
    wiener_by_cuts,
    wiener_index,
)


class TestWiener:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_hypercube_closed_form(self, d):
        # Q_d realized as Q_d(f) with a factor longer than d
        w = wiener_index(("1" * (d + 1), d))
        assert w == hypercube_wiener(d)

    def test_matches_networkx(self):
        for f, d in [("11", 6), ("110", 6), ("101", 5)]:
            g = to_networkx(generalized_fibonacci_cube(f, d).graph(), use_labels=False)
            assert wiener_index((f, d)) == nx.wiener_index(g)

    def test_disconnected_raises(self):
        from repro.cubes.multifactor import MultiFactorCube

        with pytest.raises(ValueError):
            wiener_index(MultiFactorCube(["11", "00"], 4))

    def test_hypercube_wiener_validation(self):
        assert hypercube_wiener(0) == 0
        with pytest.raises(ValueError):
            hypercube_wiener(-1)


class TestAverageDistance:
    def test_single_vertex(self):
        assert average_distance(("1", 4)) == 0.0

    def test_path(self):
        # Q_3(10) = P_4: distances 1,1,1,2,2,3 -> mean 10/6
        assert average_distance(("10", 3)) == pytest.approx(10 / 6)

    def test_consistent_with_wiener(self):
        f, d = "11", 6
        cube = generalized_fibonacci_cube(f, d)
        n = cube.num_vertices
        assert average_distance((f, d)) == pytest.approx(
            wiener_index((f, d)) / (n * (n - 1) / 2)
        )


class TestDistribution:
    def test_path_distribution(self):
        dist = distance_distribution(("10", 3))
        assert dist == {1: 3, 2: 2, 3: 1}

    def test_sums_to_pair_count(self):
        cube = generalized_fibonacci_cube("110", 6)
        dist = distance_distribution(("110", 6))
        n = cube.num_vertices
        assert sum(dist.values()) == n * (n - 1) // 2

    def test_max_is_diameter(self):
        from repro.graphs.traversal import diameter

        dist = distance_distribution(("11", 6))
        g = generalized_fibonacci_cube("11", 6).graph()
        assert max(dist) == diameter(g)


class TestCutDecomposition:
    """wiener_by_cuts == wiener_index exactly on isometric cubes."""

    @pytest.mark.parametrize("f,d", [("11", 6), ("111", 6), ("110", 7), ("1010", 7), ("11010", 7)])
    def test_equality_on_isometric(self, f, d):
        assert wiener_by_cuts((f, d)) == wiener_index((f, d))

    @pytest.mark.parametrize("f,d", [("101", 4), ("1101", 5), ("1100", 7)])
    def test_strict_inequality_on_non_isometric(self, f, d):
        # internal distances exceed Hamming somewhere, so cuts undercount
        assert wiener_by_cuts((f, d)) < wiener_index((f, d))

    def test_witness_agrees_with_engines(self):
        from repro.isometry import is_isometric
        from repro.words.core import all_words

        for f in all_words(3):
            for d in range(2, 7):
                iso = is_isometric((f, d))
                cube = generalized_fibonacci_cube(f, d)
                if cube.num_vertices < 2:
                    continue
                from repro.graphs.traversal import is_connected

                if not is_connected(cube.graph()):
                    continue
                assert (wiener_by_cuts((f, d)) == wiener_index((f, d))) == iso, (f, d)
