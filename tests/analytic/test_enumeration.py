"""Counting systems: stepped terms vs series vs extracted recurrences,
checked against independent oracles, including the d = 200 speed
contract of the analytic layer."""

import itertools
import time

import pytest

from repro.analytic.enumeration import (
    CountingSystem,
    berlekamp_massey,
    edge_system,
    square_system,
    vertex_system,
)
from repro.analytic.fsm import FSM
from repro.combinat.sequences import fibonacci
from repro.invariants.counts import (
    brute_counts,
    recurrences_111,
    squares_110_closed,
)
from repro.words.correlation import count_avoiding_gf


class TestBerlekampMassey:
    def test_fibonacci(self):
        assert berlekamp_massey([1, 1, 2, 3, 5, 8, 13, 21]) == [1, 1]

    def test_geometric(self):
        assert berlekamp_massey([1, 3, 9, 27, 81]) == [3]

    def test_zero_sequence(self):
        assert berlekamp_massey([0, 0, 0, 0]) == []


class TestVertexSystem:
    def test_matches_correlation_gf(self):
        for f in ("11", "000", "101", "0110"):
            system = vertex_system(FSM.from_factors([f]))
            for d in range(12):
                assert system.term(d) == count_avoiding_gf(f, d)

    def test_series_matches_term(self):
        system = vertex_system(FSM.from_factors(["101"]))
        assert system.series(15) == [system.term(d) for d in range(15)]

    def test_discovers_the_fibonacci_recurrence(self):
        system = vertex_system(FSM.from_factors(["11"]))
        assert system.linear_recurrence() == [1, 1]
        assert system.smart_enumeration(10) == [
            fibonacci(d + 2) for d in range(10)]


class TestEdgeSystem:
    def test_matches_brute_force(self):
        for f in ("11", "000", "101"):
            system = edge_system(FSM.from_factors([f]))
            for d in range(11):
                assert system.term(d) == brute_counts(f, d).edges

    def test_hypercube_edges(self):
        system = edge_system(FSM.universal())
        for d in range(12):
            expected = d * 2 ** (d - 1) if d else 0
            assert system.term(d) == expected

    def test_recurrence_extends_exactly(self):
        system = edge_system(FSM.from_factors(["11"]))
        assert system.smart_term(60) == system.term(60)


class TestSquareSystem:
    def test_hypercube_squares(self):
        # Q_d has C(d, 2) * 2^(d-2) squares
        system = square_system(FSM.universal())
        for d in range(12):
            expected = d * (d - 1) // 2 * 2 ** (d - 2) if d >= 2 else 0
            assert system.term(d) == expected

    def test_proposition_6_3_by_smart_enumeration(self):
        system = square_system(FSM.from_factors(["110"]))
        assert system.smart_enumeration(101) == [
            squares_110_closed(d) for d in range(101)]

    def test_equation_3_by_smart_enumeration(self):
        system = square_system(FSM.from_factors(["111"]))
        assert system.smart_enumeration(101) == [
            c.squares for c in recurrences_111(100)]

    def test_series_matches_term(self):
        system = square_system(FSM.from_factors(["1010"]))
        assert system.series(15) == [system.term(d) for d in range(15)]


class TestMarkedProduct:
    """The one construction behind all three systems: reachable and
    live-trimmed, so its size is bounded by the word tuples that can
    still all be accepted."""

    def test_state_bounds_for_factors_up_to_length_8(self):
        sizes = [0, 0, 0]
        for n in range(1, 9):
            for bits in itertools.product("01", repeat=n):
                fsm = FSM.from_factors(["".join(bits)])
                for k, build in enumerate(
                    (vertex_system, edge_system, square_system)
                ):
                    sizes[k] = max(sizes[k], build(fsm).size)
        assert sizes == [8, 44, 136]

    def test_dead_states_are_trimmed(self):
        # avoiding "1" keeps only the all-zeros word: one self-looping
        # vertex state, and no flip can keep both of its words alive, so
        # the edge and square products trim down to nothing
        fsm = FSM.from_factors(["1"])
        assert vertex_system(fsm).matrix == [[1]]
        for build in (edge_system, square_system):
            assert build(fsm).size == 0
            assert build(fsm).series(5) == [0] * 5

    def test_empty_language_gives_the_empty_system(self):
        nothing = FSM.universal().complement()
        for build in (vertex_system, edge_system, square_system):
            system = build(nothing)
            assert system.size == 0
            assert system.series(4) == [0] * 4
            assert system.term(50) == 0
            assert system.linear_recurrence() == []


class TestSpeedContract:
    def test_d200_under_a_second(self):
        # the acceptance criterion: exact counts at d = 200 in < 1 s
        start = time.monotonic()
        fsm = FSM.from_factors(["11"])
        nodes = vertex_system(fsm).term(200)
        edges = edge_system(fsm).smart_term(200)
        elapsed = time.monotonic() - start
        assert nodes == fibonacci(202)
        # closed form: E(Gamma_d) = (d F_{d+1} + 2 (d+1) F_d) / 5
        d = 200
        assert edges == (d * fibonacci(d + 1) + 2 * (d + 1) * fibonacci(d)) // 5
        assert elapsed < 1.0


class TestValidation:
    def test_shapes(self):
        with pytest.raises(ValueError):
            CountingSystem([[1, 2]], [1], [1])
        with pytest.raises(ValueError):
            CountingSystem([[1]], [1, 2], [1])
        system = CountingSystem([[2]], [1], [1])
        with pytest.raises(ValueError):
            system.term(-1)
        with pytest.raises(ValueError):
            system.series(-1)

    def test_trivial_systems(self):
        # 1x1 system: powers of the single entry
        system = CountingSystem([[2]], [1], [1])
        assert system.series(5) == [1, 2, 4, 8, 16]
        assert system.linear_recurrence() == [2]
        # never-accepting system: identically zero, empty recurrence
        system = CountingSystem([[2]], [1], [0])
        assert system.linear_recurrence() == []
        assert system.smart_enumeration(6) == [0] * 6
