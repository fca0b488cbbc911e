"""Unit tests for the linear/affine recurrence engine."""

import pytest

from repro.combinat.recurrence import (
    AffineRecurrence,
    LinearRecurrence,
    matrix_mult,
    matrix_power,
)
from repro.combinat.sequences import fibonacci, tribonacci


class TestAffineRecurrence:
    def test_fibonacci(self):
        rec = AffineRecurrence([1, 1], [0, 1])
        assert [rec(n) for n in range(10)] == [fibonacci(n) for n in range(10)]

    def test_constant_term(self):
        # a(n) = a(n-1) + 1, a(0) = 0  ->  a(n) = n
        rec = AffineRecurrence([1], [0], constant=1)
        assert [rec(n) for n in range(6)] == [0, 1, 2, 3, 4, 5]

    def test_v110_recurrence(self):
        # eq (4): V(d) = V(d-1) + V(d-2) + 1 with V(0)=1, V(1)=2 gives F_{d+3}-1
        rec = AffineRecurrence([1, 1], [1, 2], constant=1)
        for d in range(20):
            assert rec(d) == fibonacci(d + 3) - 1

    def test_prefix(self):
        rec = AffineRecurrence([1, 1], [0, 1])
        assert rec.prefix(6) == [0, 1, 1, 2, 3, 5, 8]

    def test_wrong_initial_count(self):
        with pytest.raises(ValueError):
            AffineRecurrence([1, 1], [0])

    def test_empty_coeffs(self):
        with pytest.raises(ValueError):
            AffineRecurrence([], [])

    def test_negative_index(self):
        rec = AffineRecurrence([1], [1])
        with pytest.raises(ValueError):
            rec(-1)


class TestLinearRecurrence:
    def test_at_matches_iterative(self):
        rec = LinearRecurrence([1, 1], [0, 1])
        for n in (0, 1, 5, 40, 97):
            assert rec.at(n) == fibonacci(n)

    def test_tribonacci_companion(self):
        rec = LinearRecurrence([1, 1, 1], [0, 0, 1])
        for n in (0, 2, 10, 37):
            assert rec.at(n) == tribonacci(n)

    def test_companion_matrix_shape(self):
        rec = LinearRecurrence([2, 0, 1], [1, 2, 3])
        mat = rec.companion_matrix()
        assert mat == [[2, 0, 1], [1, 0, 0], [0, 1, 0]]

    def test_at_negative_rejected(self):
        rec = LinearRecurrence([1], [1])
        with pytest.raises(ValueError):
            rec.at(-3)


class TestMatrixHelpers:
    def test_mult_identity(self):
        a = [[1, 2], [3, 4]]
        eye = [[1, 0], [0, 1]]
        assert matrix_mult(a, eye) == a
        assert matrix_mult(eye, a) == a

    def test_power_zero_is_identity(self):
        a = [[2, 1], [1, 1]]
        assert matrix_power(a, 0) == [[1, 0], [0, 1]]

    def test_power_matches_repeated_mult(self):
        a = [[2, 1], [1, 1]]
        expected = a
        for _ in range(4):
            expected = matrix_mult(expected, a)
        assert matrix_power(a, 5) == expected

    def test_power_negative_raises(self):
        with pytest.raises(ValueError):
            matrix_power([[1]], -1)

    def test_fibonacci_via_matrix(self):
        fib = [[1, 1], [1, 0]]
        p = matrix_power(fib, 10)
        assert p[0][1] == 55  # F_10


class TestMatrixDegenerateInputs:
    """The hardened helpers: degenerate shapes are defined, malformed
    shapes raise instead of corrupting downstream counts."""

    def test_empty_times_empty(self):
        assert matrix_mult([], []) == []

    def test_empty_power(self):
        assert matrix_power([], 0) == []
        assert matrix_power([], 7) == []

    def test_one_by_one(self):
        assert matrix_mult([[3]], [[5]]) == [[15]]
        assert matrix_power([[3]], 4) == [[81]]

    def test_ragged_rows_raise(self):
        with pytest.raises(ValueError):
            matrix_mult([[1, 2], [3]], [[1], [2]])
        with pytest.raises(ValueError):
            matrix_mult([[1]], [[1, 2], [3]])
        with pytest.raises(ValueError):
            matrix_power([[1, 2], [3]], 2)

    def test_inner_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            matrix_mult([[1, 2]], [[1, 2]])

    def test_non_square_power_raises(self):
        with pytest.raises(ValueError):
            matrix_power([[1, 2]], 2)
