"""P1 -- performance ablations of the implementation choices.

Not a paper artefact: these benches quantify the engineering decisions
DESIGN.md calls out, so regressions in the fast paths are measurable.

- cube construction: automaton sweep vs per-word filtering;
- isometry: the blocked engine's early exit vs a full scan;
- counting: the stepped vertex counting system vs enumeration;
- BFS: one deque BFS vs a block of 256 sources in the bit-parallel BFS.
"""

import pytest

from repro.cubes.generalized import GeneralizedFibonacciCube
from repro.graphs.traversal import bfs_distances, bfs_distances_many
from repro.isometry import is_isometric
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


class TestIsometryEngine:
    """The blocked engine: a non-isometric cube stops at its first bad
    block, an isometric one scans every pair."""

    def test_non_isometric_case(self, benchmark):
        assert benchmark(is_isometric, ("10101", 12)) is False  # 3,282 vertices

    def test_isometric_case(self, benchmark):
        assert benchmark(is_isometric, ("11", 12)) is True


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
    """Ablation: one deque BFS vs 256 sources in one bit-parallel BFS."""

    @pytest.fixture(scope="class")
    def big_graph(self):
        return GeneralizedFibonacciCube("111", 14).graph()

    def test_deque_bfs(self, benchmark, big_graph):
        dist = benchmark(bfs_distances, big_graph, 0)
        assert int(dist.max()) >= 7

    def test_bit_parallel_block(self, benchmark, big_graph):
        rows = benchmark(bfs_distances_many, big_graph, range(256))
        assert rows.shape == (256, big_graph.num_vertices)
        assert int(rows.max()) >= 7
