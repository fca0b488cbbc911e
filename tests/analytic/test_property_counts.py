"""Property tests: every counting route agrees with brute force and
with the actually-built topologies (the satellite-4 contract)."""

import random

import pytest

from repro.analytic.enumeration import edge_system, square_system, vertex_system
from repro.analytic.fsm import FSM
from repro.cubes.fibonacci import fibonacci_cube
from repro.cubes.generalized import generalized_fibonacci_cube
from repro.cubes.hypercube import hypercube
from repro.invariants.counts import brute_counts
from repro.network.topology import topology_of
from repro.words.core import all_words, contains_factor
from repro.words.counting import count_vertices_automaton


def random_factors(seed, n=12, max_len=5):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        length = rng.randint(1, max_len)
        out.append("".join(rng.choice("01") for _ in range(length)))
    return out


class TestBruteForceAgreement:
    @pytest.mark.parametrize("f", random_factors(seed=7))
    def test_vertices_match_brute_force(self, f):
        fsm = FSM.from_factors([f])
        system = vertex_system(fsm)
        for d in range(13):
            brute = sum(1 for w in all_words(d) if not contains_factor(w, f))
            assert count_vertices_automaton(f, d) == brute
            assert fsm.count_words(d) == brute
            assert system.term(d) == brute

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_factor_sets_match_brute_force(self, seed):
        factors = random_factors(seed=seed, n=3, max_len=4)
        fsm = FSM.from_factors(factors)
        for d in range(11):
            brute = [
                w for w in all_words(d)
                if not any(contains_factor(w, f) for f in factors)
            ]
            assert fsm.count_words(d) == len(brute)

    @pytest.mark.parametrize("f", ["11", "000", "101", "0101"])
    def test_edges_match_brute_force(self, f):
        system = edge_system(FSM.from_factors([f]))
        for d in range(10):
            words = [w for w in all_words(d) if not contains_factor(w, f)]
            kept = set(words)
            brute = sum(
                1 for w in words for i in range(d)
                if w[i] == "0" and w[:i] + "1" + w[i + 1:] in kept
            )
            assert system.term(d) == brute


def brute_squares(fsm, d):
    """Squares of the cube of ``fsm``'s language by enumeration: base
    words ``w`` with zeros at ``i < j`` whose four corners are accepted."""
    kept = {w for w in all_words(d) if fsm.accepts(w)}

    def up(w, i):
        return w[:i] + "1" + w[i + 1:]

    return sum(
        1 for w in kept for i in range(d) for j in range(i + 1, d)
        if w[i] == w[j] == "0"
        and up(w, i) in kept and up(w, j) in kept and up(up(w, i), j) in kept
    )


COMPOSITE_LANGUAGES = {
    "union": FSM.from_factors(["11"]).union(FSM.from_factors(["000"])),
    "intersection": FSM.from_factors(["101"]).intersection(
        FSM.from_factors(["0110"])),
    "complement": FSM.from_factors(["010"]).complement(),
    "complement-union": FSM.from_factors(["11"]).complement().union(
        FSM.from_factors(["00"])),
}


class TestSquareSystemOracles:
    @pytest.mark.parametrize("f", random_factors(seed=7))
    def test_squares_match_brute_counts(self, f):
        system = square_system(FSM.from_factors([f]))
        assert system.series(13) == [brute_counts(f, d).squares for d in range(13)]

    @pytest.mark.parametrize("name", sorted(COMPOSITE_LANGUAGES))
    def test_composite_languages_match_brute_force(self, name):
        fsm = COMPOSITE_LANGUAGES[name]
        system = square_system(fsm)
        assert system.series(9) == [brute_squares(fsm, d) for d in range(9)]


class TestTopologyAgreement:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_hypercube(self, d):
        topo = topology_of(hypercube(d), name=f"Q_{d}")
        fsm = FSM.universal()
        assert vertex_system(fsm).term(d) == topo.num_nodes
        assert edge_system(fsm).term(d) == topo.num_links

    @pytest.mark.parametrize("d", range(1, 10))
    def test_fibonacci_cube(self, d):
        cube = fibonacci_cube(d)
        fsm = FSM.from_factors(["11"])
        assert vertex_system(fsm).term(d) == cube.num_vertices
        assert edge_system(fsm).term(d) == cube.num_edges

    @pytest.mark.parametrize("f,d", [
        ("101", 7), ("000", 6), ("0110", 7), ("00", 8),
    ])
    def test_generalized_cubes(self, f, d):
        cube = generalized_fibonacci_cube(f, d)
        topo = topology_of((f, d))
        fsm = FSM.from_factors([f])
        assert vertex_system(fsm).term(d) == cube.num_vertices == topo.num_nodes
        assert edge_system(fsm).term(d) == cube.num_edges == topo.num_links
