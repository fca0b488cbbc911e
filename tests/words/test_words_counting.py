"""Unit tests for the automaton vertex/edge/square counters."""

import tracemalloc

import pytest

from repro.combinat.sequences import fibonacci
from repro.invariants.counts import recurrences_111, squares_110_closed
from repro.words.counting import (
    count_edges_automaton,
    count_squares_automaton,
    count_vertices_automaton,
)

from tests.conftest import naive_avoiding, naive_count_edges, naive_count_squares


FACTORS = ["1", "11", "10", "110", "101", "111", "1100", "1010", "1101", "11010"]


class TestVertexCount:
    @pytest.mark.parametrize("f", FACTORS)
    @pytest.mark.parametrize("d", [0, 1, 2, 5, 8])
    def test_matches_naive(self, f, d):
        assert count_vertices_automaton(f, d) == len(naive_avoiding(f, d))

    def test_fibonacci_identity(self):
        for d in range(15):
            assert count_vertices_automaton("11", d) == fibonacci(d + 2)

    def test_kbonacci_identity(self):
        # |V(Q_d(1^k))| follows the k-bonacci recurrence
        for k in (2, 3, 4):
            f = "1" * k
            vals = [count_vertices_automaton(f, d) for d in range(12)]
            for d in range(k, 12):
                assert vals[d] == sum(vals[d - k : d])

    def test_huge_d_is_cheap_and_consistent(self):
        # transfer matrix keeps the recurrence exactly at d = 500
        v = [count_vertices_automaton("11", d) for d in (498, 499, 500)]
        assert v[2] == v[1] + v[0]

    def test_short_d_equals_2_pow(self):
        assert count_vertices_automaton("11010", 4) == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            count_vertices_automaton("", 3)
        with pytest.raises(ValueError):
            count_vertices_automaton("11", -1)


class TestEdgeCount:
    @pytest.mark.parametrize("f", FACTORS)
    @pytest.mark.parametrize("d", [0, 1, 2, 5, 8])
    def test_matches_naive(self, f, d):
        assert count_edges_automaton(f, d) == naive_count_edges(f, d)

    def test_hypercube_when_factor_long(self):
        # d < |f|: Q_d(f) = Q_d has d * 2^(d-1) edges
        assert count_edges_automaton("11010", 4) == 4 * 8

    def test_linear_in_d_feasible(self):
        # d in the hundreds must be exact and fast
        e1 = count_edges_automaton("110", 300)
        e2 = count_edges_automaton("110", 301)
        e3 = count_edges_automaton("110", 302)
        # eq (5): E(d) = E(d-1) + E(d-2) + V(d-2) + 2
        v = count_vertices_automaton("110", 300)
        assert e3 == e2 + e1 + v + 2


class TestSquareCount:
    @pytest.mark.parametrize("f", FACTORS)
    @pytest.mark.parametrize("d", [0, 1, 2, 5, 7])
    def test_matches_naive(self, f, d):
        assert count_squares_automaton(f, d) == naive_count_squares(f, d)

    def test_hypercube_squares(self):
        # Q_4 has C(4,2) * 2^2 = 24 squares; factor too long to matter
        assert count_squares_automaton("11010", 4) == 24

    def test_recurrence_6_at_large_d(self):
        # eq (6): S(d) = S(d-1) + S(d-2) + E(d-2) + 1 for Q_d(110)
        s = [count_squares_automaton("110", d) for d in (60, 61, 62)]
        e60 = count_edges_automaton("110", 60)
        assert s[2] == s[1] + s[0] + e60 + 1


def traced_peak(count, f, d):
    """Peak traced allocation of one ``count(f, d)`` call, in bytes."""
    tracemalloc.start()
    try:
        count(f, d)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamingEdgeCount:
    """The edge system streams over positions: one weight vector over a
    fixed set of states, so large d is limited by arithmetic on big
    integers, not by memory."""

    def test_fibonacci_closed_form_at_large_d(self):
        # E(Gamma_d) = (d F_{d+1} + 2 (d+1) F_d) / 5, exact at d = 2000
        for d in (200, 1000, 2000):
            expected = (d * fibonacci(d + 1) + 2 * (d + 1) * fibonacci(d)) // 5
            assert count_edges_automaton("11", d) == expected

    def test_peak_memory_does_not_scale_with_d(self):
        def peak(d):
            return traced_peak(count_edges_automaton, "1100", d)

        peak(50)  # warm caches outside the measurement
        small, large = peak(50), peak(800)
        # 16x the dimension must not cost 16x the memory; allow a
        # generous factor for the bigger integers in the DP vectors
        assert large < 6 * small


class TestStreamingSquareCount:
    """The square system streams like the edge system: a fixed set of
    word-quad states, no per-position suffix table."""

    def test_peak_memory_does_not_scale_with_d(self):
        def peak(d):
            return traced_peak(count_squares_automaton, "11010", d)

        peak(50)  # warm caches outside the measurement
        small, large = peak(50), peak(800)
        # 16x the dimension; only the integers in the weight vector grow
        assert large < 3 * small

    def test_proposition_6_3_at_d1000(self):
        assert count_squares_automaton("110", 1000) == squares_110_closed(1000)

    def test_equation_3_at_d400(self):
        assert count_squares_automaton("111", 400) == recurrences_111(400)[400].squares
