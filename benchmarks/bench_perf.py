"""P1 -- performance ablations of the implementation choices.

Not a paper artefact: these benches quantify the engineering decisions
DESIGN.md calls out, so regressions in the fast paths are measurable.

- cube construction: automaton sweep vs per-word filtering;
- isometry: vectorised DP vs per-vertex BFS reference;
- counting: the stepped vertex counting system vs enumeration;
- BFS: CSR frontier sweep vs deque.
"""

import pytest

from repro.cubes.generalized import GeneralizedFibonacciCube
from repro.graphs.traversal import bfs_distances, bfs_distances_csr
from repro.isometry.bruteforce import is_isometric_bfs
from repro.isometry.vectorized import is_isometric_dp
from repro.words.counting import count_vertices_automaton
from repro.words.enumerate import avoiding_int_array, count_avoiding_bruteforce


class TestConstruction:
    def test_vertex_sweep_d16(self, benchmark):
        codes = benchmark(avoiding_int_array, "11", 16)
        assert codes.size == 2584  # F_18

    def test_full_cube_build_d12(self, benchmark):
        def build():
            cube = GeneralizedFibonacciCube("110", 12)
            return cube.graph().num_edges

        edges = benchmark(build)
        assert edges > 0


class TestIsometryEngines:
    """Ablation: the DP engine vs the BFS reference on the same input."""

    CASE = ("1100", 8)  # 100+ vertices, non-isometric

    def test_bfs_reference(self, benchmark):
        assert benchmark(is_isometric_bfs, self.CASE) is False

    def test_dp_vectorised(self, benchmark):
        assert benchmark(is_isometric_dp, self.CASE) is False

    def test_bfs_isometric_case(self, benchmark):
        assert benchmark(is_isometric_bfs, ("11", 12)) is True

    def test_dp_isometric_case(self, benchmark):
        assert benchmark(is_isometric_dp, ("11", 12)) is True


class TestCounting:
    """Ablation: the vertex counting system (the avoidance automaton's
    live states, stepped once per position) vs enumeration."""

    def test_automaton_count_d24(self, benchmark):
        assert benchmark(count_vertices_automaton, "11", 24) == 121393

    def test_enumeration_count_d24(self, benchmark):
        assert benchmark(count_avoiding_bruteforce, "11", 24) == 121393

    def test_automaton_count_d2000(self, benchmark):
        # enumeration could never do this
        v = benchmark(count_vertices_automaton, "110", 2000)
        assert v > 10**400


class TestBfsKernels:
    """Ablation: CSR frontier sweep vs deque BFS on a dense cube level."""

    @pytest.fixture(scope="class")
    def big_graph(self):
        return GeneralizedFibonacciCube("111", 14).graph()

    def test_deque_bfs(self, benchmark, big_graph):
        dist = benchmark(bfs_distances, big_graph, 0)
        assert int(dist.max()) >= 7

    def test_csr_bfs(self, benchmark, big_graph):
        dist = benchmark(bfs_distances_csr, big_graph, 0)
        assert int(dist.max()) >= 7
